// Per-stripe lock-contention accounting (the "contention observatory").
//
// The paper's fine-grained locks make conflict attribution meaningful only
// if it is *per lock line*: TM-global abort counters cannot say which
// stripes a workload is fighting over. ContentionTable keeps one relaxed
// atomic cell per lock stripe and is bumped exclusively on failure paths
// (acquire stalls, CAS failures, conflict aborts) — the same cost class as
// the abort taxonomy, so it stays live at every telemetry level and the
// level-0 bench gate doubles as its overhead check.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/common.hpp"

namespace nvhalt {

/// One stripe's contention tallies at snapshot time.
struct StripeContention {
  std::uint64_t stripe = 0;
  std::uint64_t stalls = 0;        ///< acquire waits observed
  std::uint64_t stall_ticks = 0;   ///< total ticks spent in those waits
  std::uint64_t cas_failures = 0;  ///< lock-word CAS losses
  std::uint64_t aborts = 0;        ///< aborts attributed to this stripe
  /// Ranking score: aborts weigh heaviest (they cost a retry), CAS losses
  /// next, bare stalls least.
  std::uint64_t score() const { return 4 * aborts + 2 * cas_failures + stalls; }
};

/// Aggregated totals across all stripes.
struct ContentionTotals {
  std::uint64_t stalls = 0;
  std::uint64_t stall_ticks = 0;
  std::uint64_t cas_failures = 0;
  std::uint64_t aborts = 0;
};

class ContentionTable {
 public:
  /// Stripes tracked exactly when the lock table fits; larger/colocated
  /// spaces hash-reduce onto this many cells.
  static constexpr std::size_t kMaxStripes = 4096;

  explicit ContentionTable(std::size_t stripes)
      : n_(std::max<std::size_t>(1, std::min(stripes, kMaxStripes))),
        cells_(new Cell[n_]) {}

  ContentionTable(const ContentionTable&) = delete;
  ContentionTable& operator=(const ContentionTable&) = delete;

  std::size_t stripes() const { return n_; }

  void on_stall(std::size_t s, std::uint64_t ticks) {
    Cell& c = cells_[s % n_];
    c.stalls.fetch_add(1, std::memory_order_relaxed);
    c.stall_ticks.fetch_add(ticks, std::memory_order_relaxed);
  }
  void on_cas_fail(std::size_t s) {
    cells_[s % n_].cas_failures.fetch_add(1, std::memory_order_relaxed);
  }
  void on_abort(std::size_t s) {
    cells_[s % n_].aborts.fetch_add(1, std::memory_order_relaxed);
  }

  ContentionTotals totals() const {
    ContentionTotals t;
    for (std::size_t i = 0; i < n_; ++i) {
      t.stalls += cells_[i].stalls.load(std::memory_order_relaxed);
      t.stall_ticks += cells_[i].stall_ticks.load(std::memory_order_relaxed);
      t.cas_failures += cells_[i].cas_failures.load(std::memory_order_relaxed);
      t.aborts += cells_[i].aborts.load(std::memory_order_relaxed);
    }
    return t;
  }

  /// The k hottest stripes by score(), hottest first; stripes with zero
  /// activity are omitted, so the result may be shorter than k.
  std::vector<StripeContention> top_k(std::size_t k) const {
    std::vector<StripeContention> all;
    for (std::size_t i = 0; i < n_; ++i) {
      StripeContention s;
      s.stripe = i;
      s.stalls = cells_[i].stalls.load(std::memory_order_relaxed);
      s.stall_ticks = cells_[i].stall_ticks.load(std::memory_order_relaxed);
      s.cas_failures = cells_[i].cas_failures.load(std::memory_order_relaxed);
      s.aborts = cells_[i].aborts.load(std::memory_order_relaxed);
      if (s.score() > 0 || s.stall_ticks > 0) all.push_back(s);
    }
    std::sort(all.begin(), all.end(),
              [](const StripeContention& a, const StripeContention& b) {
                if (a.score() != b.score()) return a.score() > b.score();
                return a.stripe < b.stripe;
              });
    if (all.size() > k) all.resize(k);
    return all;
  }

  void reset() {
    for (std::size_t i = 0; i < n_; ++i) {
      cells_[i].stalls.store(0, std::memory_order_relaxed);
      cells_[i].stall_ticks.store(0, std::memory_order_relaxed);
      cells_[i].cas_failures.store(0, std::memory_order_relaxed);
      cells_[i].aborts.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> stalls{0};
    std::atomic<std::uint64_t> stall_ticks{0};
    std::atomic<std::uint64_t> cas_failures{0};
    std::atomic<std::uint64_t> aborts{0};
  };
  std::size_t n_;
  std::unique_ptr<Cell[]> cells_;
};

}  // namespace nvhalt
