// Shared benchmark driver reproducing the paper's methodology (Sec. 5):
// prefill the structure to 50% of its key range, run a timed mixed
// workload with uniformly distributed keys, report throughput in ops/sec.
//
// Scale note: the paper uses 1M keys, 20 s trials and up to 96 threads on
// a 2-socket Optane machine. This container exposes one CPU and no NVM, so
// the defaults are scaled down (keys, duration, thread counts) while
// keeping every algorithmic knob identical; set NVHALT_BENCH_FULL=1 for
// paper-scale parameters. Absolute numbers are not comparable — the
// *shape* (who wins per workload, by what factor) is what EXPERIMENTS.md
// tracks.
//
// Environment overrides:
//   NVHALT_BENCH_MS       measurement window per data point (default 150)
//   NVHALT_BENCH_KEYS     key range (default 16384)
//   NVHALT_BENCH_THREADS  comma list of thread counts (default "1,2,4")
//   NVHALT_BENCH_FULL     1 => 1M keys, 2s windows, threads 1,2,4,8,16
#pragma once

#include <string>
#include <vector>

#include "api/tm_factory.hpp"
#include "locks/contention.hpp"
#include "telemetry/tx_telemetry.hpp"

namespace nvhalt::bench {

enum class Structure { kAbTree, kHashMap };

enum class KeyDist { kUniform, kZipf };

struct BenchParams {
  TmKind kind = TmKind::kNvHalt;
  Structure structure = Structure::kAbTree;
  /// Percentage of operations that are read-only lookups; the rest split
  /// evenly between inserts and removes (paper workloads: 99/90/50/0).
  int read_pct = 90;
  int threads = 1;
  std::size_t key_range = 1 << 14;
  int duration_ms = 150;
  std::uint64_t seed = 1;
  /// Key distribution. The paper uses uniform; Zipf is an extension
  /// probing contention sensitivity (NVHALT_BENCH_ZIPF=1, or the grid's
  /// skewed column).
  KeyDist dist = KeyDist::kUniform;
  /// Skew exponent for kZipf key draws (0.99 = YCSB default).
  double zipf_theta = 0.99;
  /// Injected spurious-abort probability per hardware access (the
  /// abort-pressure sensitivity bench uses this to emulate contention).
  double spurious_abort_prob = 0.0;

  // Simulated NVM cost model (ablation class 1 and 2 knobs).
  bool flushes_enabled = true;
  bool eadr = false;
  std::uint64_t flush_latency_ns = 150;
  std::uint64_t fence_latency_ns = 80;
  std::uint64_t nvm_store_latency_ns = 50;
  /// Ablation class 3: persist hardware transactions.
  bool persist_htxns = true;
  /// Write-combining block size (PmemConfig::wc_block_lines): 4 lines = one
  /// Optane XPLine per media write-back. Billing only: each committer still
  /// flushes and fences its own write set (paper Sec. 3.2).
  std::size_t wc_block_lines = 4;
};

struct BenchResult {
  double ops_per_sec = 0;
  std::uint64_t total_ops = 0;
  TmStats tm;
  htm::HtmStats htm;
  /// Hardware-independent persistence-cost proxies: cache-line write-backs
  /// and ordering fences issued during the measured phase. These track the
  /// paper's overhead classes 1-2 without depending on simulated latencies.
  double flushes_per_op = 0;
  double fences_per_op = 0;
  /// Queued flushes coalesced away by fence-time dedupe (same line flushed
  /// twice in one fence epoch, e.g. adjacent Trinity records).
  double flush_dedup_per_op = 0;
  /// SPHT only: fraction of the measurement window during which the global
  /// fallback lock was held, i.e. all concurrency was disabled (paper
  /// Sec. 5.3). Zero for the other TMs.
  double serialized_frac = 0;
  /// Abort taxonomy + histograms for the measured phase (the taxonomy is
  /// live at every telemetry level; latency histograms need level >= 1).
  telemetry::TmTelemetry tel;
  /// Per-stripe lock-contention snapshot (always-on failure-path counters;
  /// absent only for TMs without a contention observatory).
  bool has_contention = false;
  std::size_t contention_stripes = 0;
  ContentionTotals contention;
  std::vector<StripeContention> hot_stripes;
};

/// Runs one data point: build system, prefill to 50%, measure.
BenchResult run_structure_bench(const BenchParams& p);

/// Runs the same data point `rounds` times and returns the round with the
/// highest throughput. On a shared machine each round's measurement error is
/// one-sided (preemption and co-scheduled work only ever subtract ops), so
/// max-of-rounds converges on the machine's uncontended capability while a
/// single sample can be off by 40%+. `rounds <= 1` degenerates to a single
/// run_structure_bench call.
BenchResult run_structure_bench_best(const BenchParams& p, int rounds);

/// Rounds per grid cell: NVHALT_BENCH_ROUNDS if set, else 1 in smoke mode
/// (CI runners are uniformly noisy and the smoke gate is advisory anyway)
/// and 3 in full mode, where the committed baselines are produced.
int bench_rounds_from_env(bool smoke);

/// Reads the environment-scaled defaults.
struct BenchScale {
  std::size_t key_range;
  int duration_ms;
  std::vector<int> thread_counts;
  KeyDist dist = KeyDist::kUniform;
};
BenchScale read_scale_from_env();

/// All five TMs / the paper's four workloads.
std::vector<TmKind> fig8_tms();
std::vector<int> fig8_read_pcts();

std::string workload_name(int read_pct);

}  // namespace nvhalt::bench
