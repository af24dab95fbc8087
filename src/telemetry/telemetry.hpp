// Transaction lifecycle tracing: per-thread lock-free rings of fixed-size
// events, gated by the compile-time NVHALT_TELEMETRY level.
//
// Levels (set -DNVHALT_TELEMETRY=<n> at configure time):
//   0  counters only (default). trace1/trace2 compile to nothing; the
//      TmStats record in TxThreadState stays live (plain per-thread
//      increments: counters, abort causes, size histograms).
//   1  lifecycle events: tx begin, hw attempt, decoded abort cause,
//      fallback transition, sw validation/extension, lock acquire/stall,
//      commit, flush-enqueue, fence, durability ack.
//   2  additionally per-access events (every transactional read/write).
//
// TraceRing is single-producer (the owning thread) / any-reader. A slot is
// three relaxed u64 stores (packed meta, arg, timestamp) published by a
// release store of the head counter; a separate started counter is bumped
// before the slot stores. Readers copy the published suffix, then re-read
// the started counter and drop any entry a push started in the meantime may
// have overwritten (including the producer's one in-flight, not-yet-
// published push), so snapshots are torn-free without ever blocking the
// producer. The counters never wrap — `pushed() - capacity` is the exact
// number of dropped (overwritten) events.
#pragma once

#ifndef NVHALT_TELEMETRY
#define NVHALT_TELEMETRY 0
#endif

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "htm/htm_types.hpp"
#include "util/common.hpp"

namespace nvhalt::telemetry {

inline constexpr int kLevel = NVHALT_TELEMETRY;

inline constexpr std::size_t kNumAbortCauses =
    static_cast<std::size_t>(htm::AbortCause::kNumCauses);

/// Why a read-only fast-path attempt ended without committing:
///   kRoValidation — a snapshot/lock-word validation failed (either RO
///                   engine), including hardware conflict aborts of an RO
///                   attempt;
///   kRoDemotion   — the body wrote/allocated/freed, so the attempt was
///                   abandoned and the transaction rerouted to the general
///                   path.
enum class RoAbortCause : std::uint8_t { kRoValidation = 0, kRoDemotion, kNumCauses };

inline constexpr std::size_t kNumRoAbortCauses =
    static_cast<std::size_t>(RoAbortCause::kNumCauses);

const char* ro_abort_cause_name(RoAbortCause c);

/// Cycle-granularity timestamps: rdtsc where available, steady_clock
/// nanoseconds otherwise. Only relative values within one process run are
/// meaningful; trace_io calibrates ticks-per-microsecond at dump time.
inline std::uint64_t now_ticks() {
#if defined(__x86_64__) || defined(_M_X64)
  return __builtin_ia32_rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

/// Measures ticks per microsecond against steady_clock over ~2 ms. Used by
/// exporters and once per process by PmemPool's latency billing — never on
/// a transaction path.
double calibrate_ticks_per_us();

enum class EventKind : std::uint8_t {
  kTxBegin = 0,     // arg: 0
  kHwAttempt,       // arg: attempt index within this transaction
  kHwAbort,         // cause field set; arg: abort code (htm::HtmAbort::code)
  kHwCommit,        // arg: 0
  kFallback,        // arg: hw attempts consumed before falling back
  kSwAttempt,       // arg: sw retry index
  kSwValidate,      // arg: read-set size validated
  kSwExtend,        // arg: new snapshot (rv after extension)
  kSwAbort,         // arg: 0
  kSwCommit,        // arg: sw retries consumed before the commit
  kUserAbort,       // arg: 0
  kLockAcquire,     // arg: locks acquired
  kLockStall,       // arg: stripe id << 48 | ticks spent waiting (low 48)
  kFlushEnqueue,    // arg: line index enqueued
  kFence,           // arg: unique lines written back
  kDurabilityAck,   // arg: ticks from commit to durability
  kRoAttempt,       // arg: attempt index within the read-only fast path
  kRoCommit,        // arg: unique lock lines validated
  kRoAbort,         // cause field holds RoAbortCause; arg: 0
  kRead,            // level 2; arg: gaddr
  kWrite,           // level 2; arg: gaddr
  kNumKinds
};

const char* event_kind_name(EventKind k);

/// One decoded ring slot. `cause` holds htm::AbortCause for kHwAbort and
/// RoAbortCause for kRoAbort as a raw byte; 0xFF elsewhere.
struct TraceEvent {
  std::uint64_t ticks = 0;
  std::uint64_t arg = 0;
  EventKind kind = EventKind::kNumKinds;
  std::uint8_t cause = 0xFF;
  std::uint16_t tid = 0;
};

class TraceRing {
 public:
  static constexpr std::size_t kDefaultCapacity = 4096;  // power of two

  explicit TraceRing(std::size_t capacity = kDefaultCapacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  /// Producer side (owning thread only). `started_` is bumped (with a
  /// release fence) *before* the slot stores and `head_` only after, so a
  /// reader that observed any of this push's slot words will also observe
  /// the started counter covering it — that is what lets snapshot() discard
  /// exactly the slots an in-flight push may be scribbling, instead of
  /// guessing from the published head alone.
  void push(EventKind kind, std::uint8_t cause, std::uint16_t tid,
            std::uint64_t arg, std::uint64_t ticks) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    started_.store(h + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    const std::size_t base = (static_cast<std::size_t>(h) & mask_) * kWordsPerSlot;
    slots_[base + 0].store(pack_meta(kind, cause, tid), std::memory_order_relaxed);
    slots_[base + 1].store(arg, std::memory_order_relaxed);
    slots_[base + 2].store(ticks, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  void push(EventKind kind, std::uint16_t tid, std::uint64_t arg) {
    push(kind, 0xFF, tid, arg, now_ticks());
  }

  std::size_t capacity() const { return mask_ + 1; }
  /// Total events ever pushed (monotonic).
  std::uint64_t pushed() const { return head_.load(std::memory_order_acquire); }
  /// Events overwritten before any snapshot could see them.
  std::uint64_t dropped() const {
    const std::uint64_t h = pushed();
    return h > capacity() ? h - capacity() : 0;
  }

  /// Torn-free copy of the surviving suffix, oldest first. Safe to call
  /// concurrently with push; entries the producer overwrote during the copy
  /// are discarded.
  std::vector<TraceEvent> snapshot() const;

  /// Producer-quiescent reset (tests and measured-window boundaries).
  void clear() {
    started_.store(0, std::memory_order_relaxed);
    head_.store(0, std::memory_order_release);
  }

 private:
  static constexpr std::size_t kWordsPerSlot = 3;

  static std::uint64_t pack_meta(EventKind kind, std::uint8_t cause, std::uint16_t tid) {
    return static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) |
           (static_cast<std::uint64_t>(cause) << 8) |
           (static_cast<std::uint64_t>(tid) << 16);
  }
  static void unpack_meta(std::uint64_t meta, TraceEvent& ev) {
    ev.kind = static_cast<EventKind>(meta & 0xFF);
    ev.cause = static_cast<std::uint8_t>((meta >> 8) & 0xFF);
    ev.tid = static_cast<std::uint16_t>((meta >> 16) & 0xFFFF);
  }

  std::unique_ptr<std::atomic<std::uint64_t>[]> slots_;
  std::size_t mask_;
  /// Pushes published (slot words complete) / pushes started (slot words
  /// possibly in flight). started_ >= head_ always; equal when quiescent.
  alignas(kCacheLineBytes) std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> started_{0};
};

/// Everything one ring held at snapshot time. `capacity` is carried so a
/// saved trace alone can reconstruct dropped() (= pushed - capacity when
/// positive) without knowing the build's ring size.
struct ThreadTrace {
  int tid = 0;
  std::uint64_t pushed = 0;
  std::uint64_t dropped = 0;
  std::uint64_t capacity = 0;
  std::vector<TraceEvent> events;
};

/// Process-wide table of per-tid rings, one cache-line-padded ring per pool
/// tid. Rings are tid-indexed, not TM-indexed: tids are dense pool slots,
/// and the harness/bench drivers run one TM at a time, so a tid's ring holds
/// that thread's interleaved lifecycle. Each ring still has exactly one
/// producer (the one OS thread using that tid), which is all TraceRing
/// requires.
class TraceBuffer {
 public:
  static TraceBuffer& instance();

  TraceRing& ring(int tid) { return rings_[static_cast<std::size_t>(tid)].value; }

  /// Snapshot every non-empty ring, ordered by tid.
  std::vector<ThreadTrace> collect() const;

  /// Producer-quiescent reset of all rings.
  void clear();

 private:
  TraceBuffer();
  struct alignas(kCacheLineBytes) PaddedRing {
    TraceRing value;
  };
  std::unique_ptr<PaddedRing[]> rings_;
};

/// Level-1 lifecycle hook: compiles to nothing below level 1.
inline void trace1(EventKind kind, int tid, std::uint64_t arg = 0,
                   std::uint8_t cause = 0xFF) {
  if constexpr (kLevel >= 1) {
    TraceBuffer::instance().ring(tid).push(kind, cause,
                                           static_cast<std::uint16_t>(tid), arg,
                                           now_ticks());
  } else {
    (void)kind; (void)tid; (void)arg; (void)cause;
  }
}

/// Level-2 per-access hook: compiles to nothing below level 2.
inline void trace2(EventKind kind, int tid, std::uint64_t arg = 0) {
  if constexpr (kLevel >= 2) {
    TraceBuffer::instance().ring(tid).push(kind, 0xFF,
                                           static_cast<std::uint16_t>(tid), arg,
                                           now_ticks());
  } else {
    (void)kind; (void)tid; (void)arg;
  }
}

}  // namespace nvhalt::telemetry
