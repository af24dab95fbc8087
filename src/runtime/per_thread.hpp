// Unified per-thread state for the TM runtime layer.
//
// TxThreadState is the slice of per-thread context every TM needs — the
// TmStats outcome record, the backoff RNG, and the cached persistent
// version number. Each TM's ThreadCtx derives from it and adds its
// path-specific scratch (read/write sets, redo/undo logs, ...).
//
// PerThread<Ctx> replaces the hand-rolled `make_unique<ThreadCtx[]>` blocks:
// a fixed-size array of cache-line-aligned per-slot contexts indexed by
// the dense tid, with the stats aggregation/reset helpers all five TMs
// previously duplicated (and in one case sized inconsistently).
#pragma once

#include <memory>

#include "core/tm_stats.hpp"
#include "htm/htm_types.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"

namespace nvhalt::runtime {

/// Per-tid runtime state shared by every TM's thread context.
struct TxThreadState {
  /// This thread's outcome record (counters, abort causes, histograms).
  TmStats stats;
  Xoshiro256 rng;

  /// Cached persistent version number (loaded lazily from the pool header
  /// the first time a slot runs a transaction, invalidated by recovery).
  std::uint64_t pver = 0;
  bool pver_loaded = false;

  /// The one place a hardware abort is accounted: bumps the coarse counter
  /// and its cause in lockstep so they can never disagree. `code` is the
  /// xabort code for explicit aborts (trace payload only).
  void record_hw_abort(int tid, htm::AbortCause c, std::uint8_t code = 0) {
    stats.hw_aborts++;
    stats.hw_by_cause[static_cast<std::size_t>(c)]++;
    telemetry::trace1(telemetry::EventKind::kHwAbort, tid, code,
                      static_cast<std::uint8_t>(c));
  }

  /// The one place a read-only fast-path abort is accounted, mirroring
  /// record_hw_abort: sum(ro_by_cause) == stats.ro_aborts by construction.
  void record_ro_abort(int tid, telemetry::RoAbortCause c) {
    stats.ro_aborts++;
    stats.ro_by_cause[static_cast<std::size_t>(c)]++;
    telemetry::trace1(telemetry::EventKind::kRoAbort, tid, 0,
                      static_cast<std::uint8_t>(c));
  }
};

/// Fixed-size array of cache-line-aligned per-slot contexts, indexed by the
/// dense tid.
template <typename Ctx>
class PerThread {
 public:
  explicit PerThread(int n) : n_(n), slots_(std::make_unique<Slot[]>(static_cast<std::size_t>(n))) {}

  Ctx& operator[](int i) { return slots_[i].ctx; }
  const Ctx& operator[](int i) const { return slots_[i].ctx; }

  int size() const { return n_; }

  template <typename F>
  void for_each(F&& f) {
    for (int i = 0; i < n_; ++i) f(slots_[i].ctx);
  }

 private:
  struct alignas(kCacheLineBytes) Slot {
    Ctx ctx;
  };

  int n_;
  std::unique_ptr<Slot[]> slots_;
};

/// Sums every slot's TmStats (Ctx must derive from TxThreadState or expose
/// a `stats` member).
template <typename Ctx>
TmStats aggregate_thread_stats(const PerThread<Ctx>& per_thread) {
  TmStats agg;
  for (int i = 0; i < per_thread.size(); ++i) agg.add(per_thread[i].stats);
  return agg;
}

template <typename Ctx>
void reset_thread_stats(PerThread<Ctx>& per_thread) {
  per_thread.for_each([](Ctx& c) { c.stats.reset(); });
}

}  // namespace nvhalt::runtime
