#include "bench_common.hpp"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "baselines/spht/spht_tm.hpp"
#include "structures/tm_abtree.hpp"
#include "structures/tm_hashmap.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace nvhalt::bench {

namespace {

RunnerConfig make_runner_config(const BenchParams& p) {
  RunnerConfig cfg;
  cfg.kind = p.kind;
  // Pool sized for the structure: generous headroom over the prefill.
  const std::size_t data_words =
      p.structure == Structure::kHashMap ? p.key_range * 8 : p.key_range * 10;
  std::size_t words = std::size_t{1} << 16;
  while (words < data_words + (std::size_t{1} << 16)) words <<= 1;
  cfg.pmem.capacity_words = words;
  // Raw region: sized for SPHT's per-thread persistent logs plus slack.
  cfg.spht.max_threads = std::max(16, p.threads);
  cfg.spht.log_words_per_thread = std::size_t{1} << 18;
  cfg.pmem.raw_words =
      static_cast<std::size_t>(cfg.spht.max_threads) *
          (cfg.spht.log_words_per_thread + 2 * kWordsPerLine) +
      TxAllocator::metadata_words(words) + (std::size_t{1} << 16);
  cfg.pmem.flushes_enabled = p.flushes_enabled;
  cfg.pmem.eadr = p.eadr;
  cfg.pmem.flush_latency_ns = p.flush_latency_ns;
  cfg.pmem.fence_latency_ns = p.fence_latency_ns;
  cfg.pmem.nvm_store_latency_ns = p.nvm_store_latency_ns;
  cfg.pmem.track_store_order = false;  // no crash adversary in benchmarks
  cfg.pmem.wc_block_lines = p.wc_block_lines;
  cfg.htm.seed = p.seed;
  cfg.htm.spurious_abort_prob = p.spurious_abort_prob;
  cfg.nvhalt.persist_hw_txns = p.persist_htxns;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 16;
  cfg.trinity.lock_table_entries = std::size_t{1} << 16;
  cfg.spht.persist_txns = p.persist_htxns;
  return cfg;
}

}  // namespace

BenchResult run_structure_bench(const BenchParams& p) {
  TmRunner runner(make_runner_config(p));
  auto& tm = runner.tm();

  // Build + 50% prefill.
  std::unique_ptr<TmAbTree> tree_storage;
  std::unique_ptr<TmHashMap> map_storage;
  if (p.structure == Structure::kAbTree) {
    tree_storage = std::make_unique<TmAbTree>(tm);
  } else {
    // The paper's hashmap has as many buckets as keys (1M / 1M).
    std::size_t buckets = 1;
    while (buckets < p.key_range) buckets <<= 1;
    map_storage = std::make_unique<TmHashMap>(tm, buckets);
  }
  TmAbTree* tree = tree_storage.get();
  TmHashMap* map = map_storage.get();

  std::unique_ptr<workload::KeyedOps> ops_holder;
  if (tree != nullptr) {
    ops_holder = std::make_unique<workload::KeyedOpsAdapter<TmAbTree>>(*tree);
  } else {
    ops_holder = std::make_unique<workload::KeyedOpsAdapter<TmHashMap>>(*map);
  }
  workload::KeyedOps* ops = ops_holder.get();

  workload::prefill_half(*ops, p.key_range, p.seed);
  tm.reset_stats();
  runner.htm().reset_stats();
  if (p.kind == TmKind::kSpht) dynamic_cast<SphtTm&>(tm).reset_global_lock_held_ns();
  const std::uint64_t flushes_before = runner.pool().flush_count();
  const std::uint64_t fences_before = runner.pool().fence_count();
  const std::uint64_t dedup_before = runner.pool().flush_dedup_count();

  workload::WorkloadSpec spec;
  spec.read_pct = p.read_pct;
  spec.threads = p.threads;
  spec.key_range = p.key_range;
  spec.duration_ms = p.duration_ms;
  spec.dist = p.dist == KeyDist::kUniform ? workload::KeyDist::kUniform
                                          : workload::KeyDist::kZipf;
  spec.zipf_theta = p.zipf_theta;
  spec.seed = p.seed;
  const workload::WorkloadResult w = workload::run_mixed(*ops, spec);
  const double secs = w.seconds;
  const std::uint64_t flushes_measured = runner.pool().flush_count() - flushes_before;
  const std::uint64_t fences_measured = runner.pool().fence_count() - fences_before;
  const std::uint64_t dedup_measured = runner.pool().flush_dedup_count() - dedup_before;
  double serialized_frac = 0;
  if (p.kind == TmKind::kSpht) {
    serialized_frac = static_cast<double>(dynamic_cast<SphtTm&>(tm).global_lock_held_ns()) /
                      (secs * 1e9);
  }

  // SPHT: replay the persistent logs after the measured phase, as the
  // paper configures it (16 replay threads, replay after ops complete).
  // Replay flushes are excluded from the per-op metrics, mirroring the
  // paper's exclusion of replay from throughput.
  if (p.kind == TmKind::kSpht)
    dynamic_cast<SphtTm&>(tm).replay(runner.config().spht.replay_threads);

  BenchResult r;
  r.total_ops = w.total_ops;
  r.ops_per_sec = w.ops_per_sec;
  r.tm = tm.stats();
  r.htm = runner.htm().aggregate_stats();
  r.tel = tm.telemetry();
  if (const ContentionTable* ct = tm.contention()) {
    r.has_contention = true;
    r.contention_stripes = ct->stripes();
    r.contention = ct->totals();
    r.hot_stripes = ct->top_k(16);
  }
  if (r.total_ops > 0) {
    r.flushes_per_op = static_cast<double>(flushes_measured) / static_cast<double>(r.total_ops);
    r.fences_per_op = static_cast<double>(fences_measured) / static_cast<double>(r.total_ops);
    r.flush_dedup_per_op =
        static_cast<double>(dedup_measured) / static_cast<double>(r.total_ops);
  }
  r.serialized_frac = serialized_frac;
  return r;
}

BenchResult run_structure_bench_best(const BenchParams& p, int rounds) {
  BenchResult best = run_structure_bench(p);
  for (int i = 1; i < rounds; ++i) {
    BenchResult r = run_structure_bench(p);
    if (r.ops_per_sec > best.ops_per_sec) best = std::move(r);
  }
  return best;
}

int bench_rounds_from_env(bool smoke) {
  if (const char* v = std::getenv("NVHALT_BENCH_ROUNDS")) {
    const int n = std::atoi(v);
    if (n > 0) return n;
  }
  return smoke ? 1 : 3;
}

BenchScale read_scale_from_env() {
  BenchScale s;
  const char* full = std::getenv("NVHALT_BENCH_FULL");
  const bool is_full = full != nullptr && full[0] == '1';
  s.key_range = is_full ? (std::size_t{1} << 20) : (std::size_t{1} << 14);
  s.duration_ms = is_full ? 2000 : 150;
  s.thread_counts = is_full ? std::vector<int>{1, 2, 4, 8, 16} : std::vector<int>{1, 2, 4};

  if (const char* ms = std::getenv("NVHALT_BENCH_MS")) s.duration_ms = std::atoi(ms);
  if (const char* keys = std::getenv("NVHALT_BENCH_KEYS"))
    s.key_range = static_cast<std::size_t>(std::atoll(keys));
  if (const char* th = std::getenv("NVHALT_BENCH_THREADS")) {
    s.thread_counts.clear();
    std::stringstream ss(th);
    std::string item;
    while (std::getline(ss, item, ',')) s.thread_counts.push_back(std::atoi(item.c_str()));
  }
  if (const char* z = std::getenv("NVHALT_BENCH_ZIPF")) {
    if (z[0] == '1') s.dist = KeyDist::kZipf;
  }
  return s;
}

std::vector<TmKind> fig8_tms() {
  return {TmKind::kNvHalt, TmKind::kNvHaltCl, TmKind::kNvHaltSp, TmKind::kTrinity,
          TmKind::kSpht};
}

std::vector<int> fig8_read_pcts() { return {99, 90, 50, 0}; }

std::string workload_name(int read_pct) {
  switch (read_pct) {
    case 99: return "99ro";
    case 90: return "90ro";
    case 50: return "50ro";
    case 0: return "0ro";
    default: return std::to_string(read_pct) + "ro";
  }
}

}  // namespace nvhalt::bench
