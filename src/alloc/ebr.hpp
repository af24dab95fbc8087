// Epoch-based reclamation for the transactional allocator.
//
// The PR 6 read-only fast path reads lock-free: an in-flight RO snapshot
// can hold a pointer to a node that a concurrent writer `tx.free`s at
// commit. Handing that slot straight back to an allocator free list would
// let the next insert recycle the node under the reader (the classic
// use-after-free of Brown's HTM tree template, solved there — as here —
// with epochs). EpochService defers *volatile* reuse of a freed slot until
// every thread that has announced a reservation has passed the retirement
// epoch.
//
// Protocol (QSBR-flavoured epochs: persistent reservations, quiescent
// refresh at attempt boundaries):
//   * a thread's per-tid reservation persists across transactions; every
//     transaction attempt starts with quiesce(), which re-announces the
//     reservation only when the global epoch has moved since the last
//     announcement (the common case is two loads and a branch — the
//     fenced announce-then-verify store happens at most once per global
//     epoch bump per thread, not once per transaction);
//   * committed frees retire into the owner thread's limbo list stamped
//     with the current global epoch;
//   * a limbo entry with retire epoch `re` is physically reusable once
//     `re < min(active reservations)`;
//   * the global epoch advances (CAS, at retire time) whenever every
//     active reservation has caught up with it;
//   * reservation scans stop at a high-water tid, one past the highest tid
//     that has announced. quiesce raises it before its announcing store,
//     so a scan that reads an older bound precedes that tid's first
//     announcement in the seq_cst order, where its slot still read kIdle;
//     the snapshot it announces for starts later and cannot reach a block
//     that was already retired.
//
// The fence-free fast path is sound because the skipped store is exactly
// the value already announced: the reservation was published with a
// seq_cst store no later than the previous attempt, so any retirement
// this thread could endanger carries an epoch >= the reservation, and a
// retirement with a smaller epoch was unlinked before this attempt's
// snapshot began and is unreachable from it. The liveness contract is
// QSBR's: a tid that stops transacting keeps its last reservation, and
// so gates epoch advance (and therefore reclamation) until it runs again
// or recovery resets the service.
//
// Persistence is deliberately decoupled from synchronization (the
// "Persistence and Synchronization: Friends or Foes?" argument): the
// durable allocation bit for a freed slot is cleared at commit time, not
// at reclaim time. A crash destroys every reader along with its pins, so
// recovery may rebuild free lists directly from the durable bitmaps;
// limbo lists are volatile and simply dropped.
//
// Thread-safety: quiesce/retire/reclaim on `tid` are owner-thread
// operations; reservations, the high-water tid and the global epoch are
// shared atomics. The aggregate accessors (limbo_depth etc.) read relaxed
// per-slot counters and may be called concurrently as gauges; the
// histogram accessor is quiescent-only like the TM stats accessors.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>

#include "telemetry/histogram.hpp"
#include "util/common.hpp"

namespace nvhalt::alloc {

class EpochService {
 public:
  /// Reservation value of a tid that has not announced.
  static constexpr std::uint64_t kIdle = ~std::uint64_t{0};

  /// Limbo-entry consumer: (addr, nwords) of a now-safe block.
  using ReclaimFn = std::function<void(gaddr_t, std::uint32_t)>;

  std::uint64_t global_epoch() const { return global_.load(std::memory_order_seq_cst); }

  /// Quiescent-state refresh for slot `tid` at a transaction-attempt
  /// boundary. When the reservation already announces the current global
  /// epoch this is two loads and a branch (kept inline: it runs on every
  /// transaction, including ~40ns RO fast-path commits); otherwise it
  /// re-announces with the fenced announce-then-verify loop. The
  /// reservation persists after the attempt — there is no per-attempt
  /// unpin. The relaxed read of the own slot is exact (owner-written).
  void quiesce(int tid) {
    const std::uint64_t e = global_.load(std::memory_order_seq_cst);
    if (slots_[static_cast<std::size_t>(tid)].value.epoch.load(std::memory_order_relaxed) == e)
      return;
    quiesce_slow(tid, e);
  }

  /// True when slot `tid` has no limbo entries — the commit-hook fast
  /// path (inline for the same reason as quiesce).
  bool limbo_empty(int tid) const {
    return limbo_[static_cast<std::size_t>(tid)].value.entries.empty();
  }

  /// Moves a committed free into `tid`'s limbo list stamped with the
  /// current epoch, then opportunistically tries to advance the epoch.
  void retire(int tid, gaddr_t addr, std::uint32_t nwords);

  /// Hands every safe entry at the front of `tid`'s limbo list to `fn`
  /// (entries are epoch-monotone, so safety is a prefix property).
  /// Returns the number of blocks reclaimed.
  std::size_t reclaim(int tid, const ReclaimFn& fn);

  /// Drops all limbo entries and reservations without reclaiming
  /// (recovery: the crash destroyed every reader, and the durable bitmaps
  /// already record the frees — the rebuilt free lists own those slots
  /// now).
  void reset();

  // ---- Telemetry (relaxed gauges; histogram is quiescent-only) ---------
  std::uint64_t retired_total() const;
  std::uint64_t reclaimed_total() const;
  std::uint64_t limbo_depth() const;
  telemetry::PowHistogram reclaim_latency_ns() const;

 private:
  struct Reservation {
    std::atomic<std::uint64_t> epoch{kIdle};
  };

  struct LimboEntry {
    gaddr_t addr;
    std::uint32_t nwords;
    std::uint64_t epoch;
    std::uint64_t retire_ns;
  };

  struct LimboList {
    std::deque<LimboEntry> entries;  // owner-thread only
    std::atomic<std::uint64_t> retired{0};
    std::atomic<std::uint64_t> reclaimed{0};
    telemetry::PowHistogram latency_ns;  // owner-thread write, quiescent read
  };

  /// Raises the high-water tid over `tid`, then announce-then-verify:
  /// publish candidate epoch `e`, re-read the global, chase until stable.
  void quiesce_slow(int tid, std::uint64_t e);

  /// Smallest active reservation, or kIdle when nothing is pinned.
  std::uint64_t min_active() const;

  /// Advances the global epoch iff every active reservation equals it.
  void try_advance();

  static std::uint64_t now_ns() {
    return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                          std::chrono::steady_clock::now().time_since_epoch())
                                          .count());
  }

  std::atomic<std::uint64_t> global_{1};
  /// One past the highest tid that has announced: the bound of every
  /// reservation scan. Only grows, until reset().
  std::atomic<int> high_water_{0};
  CacheLinePadded<Reservation> slots_[kMaxThreads];
  CacheLinePadded<LimboList> limbo_[kMaxThreads];
};

}  // namespace nvhalt::alloc
