// MetricsRegistry: one snapshot surface over every TM instance and pool in
// a process, exported as JSON (machine-readable sidecars, tests) and
// Prometheus text exposition format (scrape endpoints, CI artifacts).
//
// Registration stores non-owning pointers — register objects that outlive
// the registry or deregister-by-destroying the registry first. snapshot()
// calls stats() on each TM, so it carries its quiescence contract: exact
// only when no transactions are in flight.
#pragma once

#include <string>
#include <vector>

#include "alloc/tx_allocator.hpp"
#include "api/tm.hpp"
#include "core/tm_stats.hpp"
#include "locks/contention.hpp"
#include "pmem/pmem_pool.hpp"
#include "telemetry/histogram.hpp"

namespace nvhalt::telemetry {

/// Everything snapshot() captures for one TM instance.
struct TmMetrics {
  std::string name;
  TmStats stats;
  /// Contention observatory (lock-stripe heat), captured when the TM
  /// exposes a ContentionTable (all five TMs do).
  bool has_contention = false;
  std::size_t contention_stripes = 0;
  ContentionTotals contention;
  std::vector<StripeContention> hot_stripes;  // hottest-first, top 16
};

/// Pool-level persistence counters.
struct PoolMetrics {
  std::string name;
  std::uint64_t flush_count = 0;
  std::uint64_t fence_count = 0;
  std::uint64_t flush_dedup_count = 0;
  PowHistogram fence_lines;
};

/// Allocator ledger: alloc/free counters, the epoch-reclamation gauge set
/// (retired / reclaimed / limbo depth, reclaim latency) and what the last
/// metadata recovery found.
struct AllocMetrics {
  std::string name;
  AllocStats stats;
  AllocRecoveryReport recovery;
  std::uint64_t global_epoch = 0;
  PowHistogram reclaim_latency_ns;
};

struct MetricsSnapshot {
  std::vector<TmMetrics> tms;
  std::vector<PoolMetrics> pools;
  std::vector<AllocMetrics> allocs;

  /// One JSON object: {"tms": [...], "pools": [...]}.
  std::string to_json() const;

  /// Prometheus text exposition format (# HELP/# TYPE + samples). Counter
  /// names are prefixed nvhalt_; per-TM series carry a tm="<name>" label,
  /// abort causes a cause= label, histograms the _bucket/_sum/_count
  /// triple with power-of-two le bounds.
  std::string to_prometheus() const;
};

class MetricsRegistry {
 public:
  /// Registers a TM under `label` (defaults to tm.name(); pass a label when
  /// snapshotting two instances of the same TM kind).
  void add_tm(TransactionalMemory& tm, std::string label = {});
  void add_pool(PmemPool& pool, std::string label = "pool");
  void add_alloc(const TxAllocator& alloc, std::string label = "alloc");

  MetricsSnapshot snapshot() const;

 private:
  struct TmEntry {
    TransactionalMemory* tm;
    std::string label;
  };
  struct PoolEntry {
    PmemPool* pool;
    std::string label;
  };
  struct AllocEntry {
    const TxAllocator* alloc;
    std::string label;
  };
  std::vector<TmEntry> tms_;
  std::vector<PoolEntry> pools_;
  std::vector<AllocEntry> allocs_;
};

}  // namespace nvhalt::telemetry
