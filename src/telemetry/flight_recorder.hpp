// Persistent flight recorder: per-thread, NVM-resident rings of compact
// lifecycle records that survive crash(), so every enumerated crash image
// carries an explanation of what was in flight.
//
// Layout (carved from the PmemPool raw region, like CheckpointManager):
// one header line, then kMaxThreads rings of fixed-size two-word slots,
// each ring padded to whole cache lines. A slot is
//
//   w0 = seq[63:32] | kind[31:24] | cause[23:16] | arg[15:0]
//   w1 = mix64(w0 ^ salt)        (checksum)
//
// Slots are two-word aligned within a line (4 slots/line), so a slot never
// straddles a cache line and the pool's x86 same-line store-order prefix
// guarantee applies: on crash, w1 can only be durable if w0 is. A record is
// written through the journal-ordered raw-op path (two journaled raw
// stores + one line flush, NO fence — the record rides the owning thread's
// next protocol fence), so the crash-prefix enumerator places boundaries
// inside recorder writes like anywhere else. The enumerable failure modes
// and their decode rules:
//
//   * all-zero slot        -> empty (never written), skipped silently
//   * w1 != mix64(w0^salt) -> torn (crash between the slot's stores, or a
//                             wrapped overwrite caught mid-line), counted
//                             and skipped — recovery NEVER fails on it
//   * checksum valid       -> decoded; per-thread records sort by seq
//
// postmortem() decodes into the same ThreadTrace/TraceEvent records the
// DRAM rings produce (sequence numbers as ticks, torn slots counted in the
// ring), so one writer (write_raw_trace), one checker (check_trace) and one
// in-flight reconstruction (in_flight) serve both.
//
// Crash-consistency of the recorder itself (DESIGN.md Sec. 14): records
// are advisory, never load-bearing — recovery correctness does not read
// them; the postmortem pass only *reports*. Torn tails therefore cost
// information, not safety.
//
// Level gating: the raw-region reservation depends only on the runtime
// `flight_recorder` config flag (layout is telemetry-level independent, so
// crash bundles replay across build levels), but record() compiles to
// nothing below NVHALT_TELEMETRY >= 1 — a level-0 build pays zero stores.
#pragma once

#include <cstdint>

#include "pmem/pmem_pool.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_io.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace nvhalt::telemetry {

/// What postmortem() recovered from the durable rings.
struct PostmortemReport {
  /// The recorder header checked out. When false the image holds no
  /// recorder, or a garbled one, and `trace` has no rings.
  bool header_valid = false;
  /// One ring per thread whose slots hold anything, ordered by tid:
  /// checksum-valid records sorted by sequence number, which stands in for
  /// ticks (ticks_per_us = 1). Per ring, pushed counts the slots that held
  /// data, torn the ones failing their checksum, capacity the ring's slots;
  /// dropped is 0 — sequence gaps show what was overwritten.
  TraceDump trace;
};

class FlightRecorder {
 public:
  static constexpr std::uint32_t kDefaultSlots = 64;  // per thread; 16 lines

  /// Reserves the recorder region from the pool's raw space and durably
  /// seeds the header — unless the pool attached to an existing image, in
  /// which case postmortem()/on_recover() adopt the durable state.
  explicit FlightRecorder(PmemPool& pool, std::uint32_t slots_per_thread = kDefaultSlots);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Raw persistent words the recorder reserves (header line + kMaxThreads
  /// line-padded rings). Pool sizing adds this to raw-word budgets when the
  /// recorder is enabled; disabled configurations keep a byte-identical
  /// layout.
  static std::size_t metadata_words(std::uint32_t slots_per_thread = kDefaultSlots);

  /// Appends one record to `tid`'s ring: two journaled raw stores plus a
  /// line flush on tid's own queue; durability rides the thread's next
  /// protocol fence. Compiles to nothing below telemetry level 1.
  void record(int tid, EventKind kind, std::uint8_t cause = 0xFF,
              std::uint16_t arg = 0) {
    if constexpr (kLevel >= 1) {
      record_impl(tid, kind, cause, arg);
    } else {
      (void)tid; (void)kind; (void)cause; (void)arg;
    }
  }

  /// Quiescent postmortem decode of the *durable* image: validates the
  /// header and every slot checksum, counts torn slots and keeps the valid
  /// records (in_flight() reconstructs each thread's state from them).
  /// Read-only — safe to call before recovery mutates anything.
  PostmortemReport postmortem() const;

  /// Post-recovery adoption: reseeds the volatile cursors past the highest
  /// durable record of each ring (so new records never collide with decoded
  /// history), rewrites an invalid header, and stamps a kRecovery record on
  /// behalf of `rtid`, fenced durably.
  void on_recover(int rtid);

  std::uint32_t slots_per_thread() const { return slots_; }
  /// Raw index of the recorder region (header line first).
  std::size_t base_raw_index() const { return base_; }

 private:
  static constexpr std::uint64_t kMagic = 0x46524543;  // "FREC"
  static constexpr std::uint64_t kSalt = 0x9E3779B97F4A7C15ULL;

  static std::uint64_t pack_header(std::uint32_t slots) {
    return (kMagic << 32) | (static_cast<std::uint64_t>(kMaxThreads) << 16) | slots;
  }
  static std::uint64_t pack_slot(std::uint32_t seq, EventKind kind,
                                 std::uint8_t cause, std::uint16_t arg) {
    return (static_cast<std::uint64_t>(seq) << 32) |
           (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) << 24) |
           (static_cast<std::uint64_t>(cause) << 16) | arg;
  }
  static std::uint64_t checksum(std::uint64_t w0) { return mix64(w0 ^ kSalt); }

  std::size_t ring_words() const;  // per-thread, line-padded
  std::size_t thread_base(int tid) const {
    return base_ + kWordsPerLine + static_cast<std::size_t>(tid) * ring_words();
  }

  void record_impl(int tid, EventKind kind, std::uint8_t cause, std::uint16_t arg);

  PmemPool& pool_;
  std::uint32_t slots_;
  std::size_t base_;  // raw index: header line

  /// Volatile write cursors, one per registry slot; each is written only by
  /// its owning thread (on_recover reseeds quiescently).
  struct alignas(kCacheLineBytes) Cursor {
    std::uint32_t seq = 1;  // 0 marks an empty slot, so sequences start at 1
    std::uint32_t pos = 0;
  };
  std::unique_ptr<Cursor[]> cur_;
};

}  // namespace nvhalt::telemetry
