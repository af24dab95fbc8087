// Perf-regression reporter: runs a fixed micro-grid (abtree + hashmap,
// 99/90/50/0% read-only uniform plus a 50% Zipf-skewed column, all 5 TMs)
// plus a software-path read-set scaling sweep (validation cache on vs
// validate_every_read), and emits a machine-readable JSON report so every
// PR leaves a throughput trajectory behind. Plain binary — no
// google-benchmark, no external JSON library.
//
// Usage: bench_regress [--smoke] [--check] [--out PATH] [--scaling-out PATH]
//                      [--taxonomy-out PATH] [--hw-out PATH] [--ro-out PATH]
//                      [--alloc-out PATH] [--baseline PATH]
//                      [--hw-baseline PATH] [--ro-baseline PATH]
//                      [--alloc-baseline PATH]
//   --smoke        truncated ~10s mode (small keys, short windows), used by
//                  the perf-smoke CTest target
//   --check        after writing the reports, re-read and validate their
//                  shape; exit nonzero on a malformed or missing file
//   --out          main report path (default: BENCH_sw_hotpath.json)
//   --scaling-out  thread-scaling report path (default:
//                  BENCH_thread_scaling.json)
//   --taxonomy-out abort-taxonomy sidecar path, one line per grid cell with
//                  the decoded abort-cause split (default: BENCH_taxonomy.json);
//                  --check additionally asserts each cell's cause counts sum
//   --contention-out per-stripe lock-contention sidecar path, one line per
//                  grid cell with totals + decayed top-K hot stripes
//                  (default: BENCH_contention.json); bench_report
//                  --contention renders it as the stripe heatmap
//                  to its hw_aborts exactly
//   --hw-out       hardware-fast-path access-cost report (ns per
//                  transactional read/write, hw commit fraction), mirroring
//                  the sw read_scaling sweep (default: BENCH_hw_hotpath.json)
//   --ro-out       read-only fast-path report: the read-dominated corner of
//                  the grid (99ro / 95ro, both structures, all TMs) with the
//                  fraction of commits the RO engines actually took
//                  (default: BENCH_ro_path.json); --check asserts the RO
//                  cause counts sum to ro_aborts and that NV-HALT cells
//                  routed most commits through the RO path
//   --baseline     compare the fresh report's grid cells against a previous
//                  report (e.g. the committed BENCH_sw_hotpath.json)
//   --hw-baseline  same for the hw-hotpath report; ns_per_op is a latency,
//                  so the gate ratio is baseline/current
//   --ro-baseline  same cell-wise ops_per_sec gate for the ro-path report
//   --alloc-out    delete-heavy allocator-churn report: 0% reads, Zipfian
//                  keys, skiplist + abtree across the four freeing TMs,
//                  with the epoch retire/reclaim ledger per cell (default:
//                  BENCH_alloc_churn.json); --check asserts the ledger
//                  balances (retired == reclaimed + limbo)
//   --alloc-baseline  same cell-wise ops_per_sec gate for the churn report
//
// Besides ops_per_sec, --baseline also compares fences_per_op cell-wise:
// a fence is the dominant persistence cost of a commit, so a fence-count
// regression is flagged (and gated under NVHALT_BENCH_TOLERANCE) even when
// throughput hides it in noise.
//
// The committed BENCH_sw_hotpath.json / BENCH_thread_scaling.json at the
// repo root are full-mode runs of this binary. By default there are no
// timing assertions anywhere: the reports record numbers; humans (and PR
// descriptions) compare them across revisions, and --baseline prints the
// per-cell deltas. Setting $NVHALT_BENCH_TOLERANCE to a positive fraction
// (e.g. 0.5) turns --baseline into a gate: any grid cell slower than
// baseline * (1 - tolerance) fails the run. CI leaves it unset/0 so shared
// noisy runners stay advisory-not-flaky; the knob exists for controlled
// perf rigs.
//
// Noise discipline: each grid / ro cell is measured best-of-N rounds
// ($NVHALT_BENCH_ROUNDS, default 3 in full mode, 1 in smoke). Measurement
// error on a shared box is one-sided — preemption only subtracts ops — so a
// single 150ms sample can read 40% low while max-of-rounds converges on the
// machine's real capability. Committed baselines are best-of-3; compare
// like with like.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "pmem/checkpoint.hpp"
#include "structures/tm_abtree.hpp"
#include "structures/tm_hashmap.hpp"
#include "structures/tm_skiplist.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace nvhalt::bench {
namespace {

struct Options {
  bool smoke = false;
  bool check = false;
  std::string out = "BENCH_sw_hotpath.json";
  std::string scaling_out = "BENCH_thread_scaling.json";
  std::string taxonomy_out = "BENCH_taxonomy.json";
  std::string contention_out = "BENCH_contention.json";
  std::string hw_out = "BENCH_hw_hotpath.json";
  std::string ro_out = "BENCH_ro_path.json";
  std::string alloc_out = "BENCH_alloc_churn.json";
  std::string baseline;
  std::string hw_baseline;
  std::string ro_baseline;
  std::string alloc_baseline;
  /// Recovery-time sweep (checkpoint/compaction + parallel replay). Empty
  /// by default: the sweep builds dozens of full pools and crash-recovers
  /// them, so only runs when explicitly requested (the CI bench job and
  /// the committed-baseline refresh pass --recovery-out).
  std::string recovery_out;
  std::string recovery_baseline;
};

/// Fractional tolerance from the environment (e.g. "0.5"); <= 0 or unset
/// means advisory mode — print deltas, never fail.
double bench_tolerance() {
  const char* v = std::getenv("NVHALT_BENCH_TOLERANCE");
  if (v == nullptr || *v == '\0') return 0.0;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  return (end == v || parsed < 0) ? 0.0 : parsed;
}

std::vector<int> scaling_thread_counts(bool smoke) {
  return smoke ? std::vector<int>{1, 2} : std::vector<int>{1, 2, 4};
}

struct ScalingPoint {
  std::size_t reads;
  double ns_per_read;
};

// Software-path read cost vs read-set size, single-threaded and
// latency-free so the validation work itself is what is measured. The
// acceptance bar for the snapshot cache: per-read cost at 256-entry read
// sets stays within a small constant factor of 8-entry sets, instead of
// the superlinear blowup of per-read full revalidation.
std::vector<ScalingPoint> measure_read_scaling(bool every_read, int iters) {
  std::vector<ScalingPoint> out;
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{256}}) {
    RunnerConfig cfg;
    cfg.kind = TmKind::kNvHalt;
    cfg.pmem.capacity_words = std::size_t{1} << 18;
    cfg.nvhalt.htm_attempts = 0;  // force the software path
    cfg.nvhalt.validate_every_read = every_read;
    // This sweep measures the *general* software read path. The bodies are
    // pure reads and the warmup exceeds the dynamic-detection streak, so
    // without this the RO engines would silently take over mid-sweep.
    cfg.nvhalt.ro_fast_path = false;
    TmRunner runner(cfg);
    auto& tm = runner.tm();
    const gaddr_t arr = runner.alloc().raw_alloc_large(n);
    word_t sink = 0;
    const auto body = [&](Tx& tx) {
      for (std::size_t i = 0; i < n; ++i) sink += tx.read(arr + i);
    };
    for (int i = 0; i < 16; ++i) tm.run(0, body);  // warm up
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) tm.run(0, body);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    out.push_back({n, ns / (static_cast<double>(iters) * static_cast<double>(n))});
    if (sink == 0xDEADBEEF) std::fprintf(stderr, "?");  // keep reads observable
  }
  return out;
}

const char* structure_name(Structure s) { return s == Structure::kAbTree ? "abtree" : "hashmap"; }

// ------------------------------------------------------ hw hotpath sweep

struct HwPoint {
  const char* op;        // "read" or "write"
  std::size_t n;         // transactional accesses per transaction
  double ns_per_op;      // ns per access, attempt loop included
  double hw_commit_frac; // fraction of commits that stayed on the hw path
};

// Hardware fast-path access cost, mirroring the sw read_scaling sweep:
// single-threaded and latency-free so the per-access instrumentation
// (conflict-line registration, lock subscription, memo hits) is what is
// measured rather than simulated NVM latencies. Reads sweep the read-set
// size; writes sweep the write-set size, which additionally pays hardware
// lock acquisition plus undo logging. Write sets stop at 64: beyond that
// the randomly hashed lock-table lines overflow the simulated L1 write
// shape and the point would measure the fallback path instead.
std::vector<HwPoint> measure_hw_hotpath(int iters) {
  std::vector<HwPoint> out;
  const auto measure = [&](const char* op, std::size_t n, bool write) {
    RunnerConfig cfg;
    cfg.kind = TmKind::kNvHalt;
    cfg.pmem.capacity_words = std::size_t{1} << 18;
    // The read points are exactly what dynamic RO detection hunts for;
    // keep them on the general hw path so the memo/subscription cost the
    // report documents is the cost actually measured.
    cfg.nvhalt.ro_fast_path = false;
    TmRunner runner(cfg);
    auto& tm = runner.tm();
    const gaddr_t arr = runner.alloc().raw_alloc_large(n);
    word_t sink = 0;
    const auto body = [&](Tx& tx) {
      if (write) {
        for (std::size_t i = 0; i < n; ++i) tx.write(arr + i, i + 1);
      } else {
        for (std::size_t i = 0; i < n; ++i) sink += tx.read(arr + i);
      }
    };
    for (int i = 0; i < 16; ++i) tm.run(0, body);  // warm up
    tm.reset_stats();
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) tm.run(0, body);
    const auto t1 = std::chrono::steady_clock::now();
    const double ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    const TmStats st = tm.stats();
    const double frac =
        st.commits > 0 ? static_cast<double>(st.hw_commits) / static_cast<double>(st.commits) : 0;
    out.push_back({op, n, ns / (static_cast<double>(iters) * static_cast<double>(n)), frac});
    if (sink == 0xDEADBEEF) std::fprintf(stderr, "?");  // keep reads observable
  };
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}, std::size_t{256}})
    measure("read", n, false);
  for (const std::size_t n : {std::size_t{8}, std::size_t{64}}) measure("write", n, true);
  return out;
}

int run_hw_report(const Options& opt) {
  const int iters = opt.smoke ? 300 : 3000;
  const std::vector<HwPoint> pts = measure_hw_hotpath(iters);
  std::ostringstream js;
  js << "{\n";
  js << "  \"schema\": \"nvhalt-bench-hw-hotpath-v1\",\n";
  js << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  js << "  \"points\": [\n";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    js << "    {\"op\": \"" << pts[i].op << "\", \"n\": " << pts[i].n
       << ", \"ns_per_op\": " << pts[i].ns_per_op
       << ", \"hw_commit_frac\": " << pts[i].hw_commit_frac << "}"
       << (i + 1 == pts.size() ? "\n" : ",\n");
    std::fprintf(stderr, "hw %s x%zu: %.1f ns/op (hw frac %.2f)\n", pts[i].op, pts[i].n,
                 pts[i].ns_per_op, pts[i].hw_commit_frac);
  }
  js << "  ]\n}\n";

  std::ofstream f(opt.hw_out, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n", opt.hw_out.c_str());
    return 1;
  }
  f << js.str();
  f.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.hw_out.c_str());
  return 0;
}

// ------------------------------------------------------ read-only path sweep

/// The read-dominated corner of the grid (99ro and 95ro, both structures,
/// all TMs) with read-only-path accounting attached: how many commits the
/// RO engines took, and how often RO attempts bounced. This is the cell
/// family the RO fast path exists for — structure lookups carry
/// TxMode::kReadOnly, so NV-HALT variants route them through the snapshot /
/// invisible-reader engines while Trinity and SPHT run their usual paths —
/// and the committed BENCH_ro_path.json is the PR-over-PR record of the
/// NV-HALT-vs-Trinity gap there.
int run_ro_report(const Options& opt) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"schema\": \"nvhalt-bench-ro-path-v1\",\n";
  js << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  js << "  \"cells\": [\n";
  bool first = true;
  for (const Structure st : {Structure::kAbTree, Structure::kHashMap}) {
    for (const int read_pct : {99, 95}) {
      for (const TmKind kind : fig8_tms()) {
        BenchParams p;
        p.kind = kind;
        p.structure = st;
        p.read_pct = read_pct;
        p.threads = 2;
        p.key_range = opt.smoke ? (std::size_t{1} << 10) : (std::size_t{1} << 14);
        p.duration_ms = opt.smoke ? 20 : 150;
        const BenchResult r = run_structure_bench_best(p, bench_rounds_from_env(opt.smoke));
        const double ro_frac =
            r.tm.commits > 0
                ? static_cast<double>(r.tm.ro_commits) / static_cast<double>(r.tm.commits)
                : 0;
        js << (first ? "" : ",\n");
        first = false;
        js << "    {\"structure\": \"" << structure_name(st) << "\", \"read_pct\": " << read_pct
           << ", \"tm\": \"" << tm_kind_name(kind) << "\", \"threads\": " << p.threads
           << ", \"ops_per_sec\": " << r.ops_per_sec << ", \"commits\": " << r.tm.commits
           << ", \"ro_commits\": " << r.tm.ro_commits << ", \"ro_commit_frac\": " << ro_frac
           << ", \"ro_aborts\": " << r.tm.ro_aborts;
        const auto& t = r.tel.tx.taxonomy;
        for (std::size_t c = 0; c < telemetry::kNumRoAbortCauses; ++c) {
          js << ", \"" << telemetry::ro_abort_cause_name(static_cast<telemetry::RoAbortCause>(c))
             << "\": " << t.ro_by_cause[c];
        }
        js << "}";
        std::fprintf(stderr, "ro %s %dro %s: %.0f ops/s (ro frac %.2f)\n", structure_name(st),
                     read_pct, tm_kind_name(kind), r.ops_per_sec, ro_frac);
      }
    }
  }
  js << "\n  ]\n}\n";

  std::ofstream f(opt.ro_out, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n", opt.ro_out.c_str());
    return 1;
  }
  f << js.str();
  f.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.ro_out.c_str());
  return 0;
}

// ------------------------------------------------------ allocator churn sweep

/// One delete-heavy churn cell (workload::run_churn): 0% reads, inserts and
/// removes 50/50 over Zipfian keys — every committed remove retires a node
/// through the epoch limbo and every insert wants one back.
workload::ChurnResult measure_alloc_cell(bool skiplist, TmKind kind, bool smoke) {
  const std::size_t key_range = smoke ? (std::size_t{1} << 10) : (std::size_t{1} << 14);

  RunnerConfig cfg;
  cfg.kind = kind;
  std::size_t words = std::size_t{1} << 16;
  while (words < key_range * 10 + (std::size_t{1} << 16)) words <<= 1;
  cfg.pmem.capacity_words = words;
  cfg.pmem.raw_words = TxAllocator::metadata_words(words) + (std::size_t{1} << 16);
  cfg.pmem.track_store_order = false;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 16;
  cfg.trinity.lock_table_entries = std::size_t{1} << 16;
  TmRunner runner(cfg);
  auto& tm = runner.tm();

  std::unique_ptr<TmSkipList> sl;
  std::unique_ptr<TmAbTree> tree;
  std::unique_ptr<workload::KeyedOps> ops;
  if (skiplist) {
    sl = std::make_unique<TmSkipList>(tm);
    ops = std::make_unique<workload::KeyedOpsAdapter<TmSkipList>>(*sl);
  } else {
    tree = std::make_unique<TmAbTree>(tm);
    ops = std::make_unique<workload::KeyedOpsAdapter<TmAbTree>>(*tree);
  }
  workload::prefill_half(*ops, key_range, 1);
  tm.reset_stats();

  workload::ChurnSpec spec;
  spec.threads = 2;
  spec.key_range = key_range;
  spec.duration_ms = smoke ? 20 : 150;
  return workload::run_churn(*ops, runner.alloc(), spec);
}

/// The allocator-churn report: the delete-heavy corner that the main grid's
/// 0ro cells only graze (uniform keys spread frees thin; Zipf concentrates
/// retire/reclaim traffic on hot segments). Skiplist and abtree cover the
/// two free shapes that actually hit the limbo — per-remove tower nodes vs
/// multi-word leaf/internal blocks freed on merges. The hashmap is out (its
/// removes mark-empty and never free, paper Sec. 5) and so is SPHT (bump
/// chunks, never frees). Cells carry the retire/reclaim ledger next to
/// ops_per_sec, and --alloc-baseline gates ops_per_sec through
/// NVHALT_BENCH_TOLERANCE like every other grid.
int run_alloc_report(const Options& opt) {
  const int rounds = bench_rounds_from_env(opt.smoke);
  std::ostringstream js;
  js << "{\n";
  js << "  \"schema\": \"nvhalt-bench-alloc-churn-v1\",\n";
  js << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  js << "  \"cells\": [\n";
  bool first = true;
  for (const bool skiplist : {true, false}) {
    for (const TmKind kind :
         {TmKind::kNvHalt, TmKind::kNvHaltCl, TmKind::kNvHaltSp, TmKind::kTrinity}) {
      workload::ChurnResult best{};
      for (int i = 0; i < rounds; ++i) {
        workload::ChurnResult r = measure_alloc_cell(skiplist, kind, opt.smoke);
        if (i == 0 || r.mixed.ops_per_sec > best.mixed.ops_per_sec) best = r;
      }
      const char* st = skiplist ? "skiplist" : "abtree";
      js << (first ? "" : ",\n");
      first = false;
      js << "    {\"structure\": \"" << st << "\", \"read_pct\": " << 0 << ", \"tm\": \""
         << tm_kind_name(kind) << "\", \"threads\": " << 2
         << ", \"ops_per_sec\": " << best.mixed.ops_per_sec
         << ", \"allocs\": " << best.alloc.allocs << ", \"frees\": " << best.alloc.frees
         << ", \"retired\": " << best.alloc.retired
         << ", \"reclaimed\": " << best.alloc.reclaimed
         << ", \"limbo\": " << best.alloc.limbo << "}";
      std::fprintf(stderr, "alloc %s churn %s: %.0f ops/s (retired %llu reclaimed %llu)\n", st,
                   tm_kind_name(kind), best.mixed.ops_per_sec,
                   static_cast<unsigned long long>(best.alloc.retired),
                   static_cast<unsigned long long>(best.alloc.reclaimed));
    }
  }
  js << "\n  ]\n}\n";

  std::ofstream f(opt.alloc_out, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n", opt.alloc_out.c_str());
    return 1;
  }
  f << js.str();
  f.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.alloc_out.c_str());
  return 0;
}

// ------------------------------------------------------ recovery-time sweep

struct RecoveryCell {
  TmKind kind;
  std::size_t pool_words;
  int history_txs;
  int workers;
  bool checkpoint;
  int checkpoint_every;
  double recover_ms;
};

/// TMs with distinct recovery engines: NV-HALT (record revert scan,
/// bitmap-bounded when checkpointing), Trinity (same engine behind a
/// different commit path) and SPHT (redo-log replay — the one whose
/// recovery work genuinely grows with history until compaction truncates
/// the logs). The NV-HALT lock-granularity variants share NV-HALT's
/// recovery code exactly, so sweeping them would triple the cells for no
/// new signal.
std::vector<TmKind> recovery_tms() {
  return {TmKind::kNvHalt, TmKind::kTrinity, TmKind::kSpht};
}

struct RecoveryScale {
  std::vector<std::size_t> pools;  // [small, mid (history sweep), large]
  int base_history;
};

/// Unlike the throughput grids, the cell coordinates here are
/// mode-independent: a cell's identity is (pool, history, workers, ckpt),
/// so shrinking those in smoke mode would leave the CI smoke run with zero
/// keys in common with the committed full-mode baseline. Smoke instead
/// cuts only the round count (NVHALT_BENCH_ROUNDS), which is safe because
/// this sweep never runs unless --recovery-out is passed explicitly.
RecoveryScale recovery_scale(bool /*smoke*/) {
  return {{std::size_t{1} << 16, std::size_t{1} << 18, std::size_t{1} << 20}, 384};
}

/// One recovery measurement: build a pool, run `history_txs` single-thread
/// transactions of 8 random writes (checkpointing every `checkpoint_every`
/// commits when enabled), crash with write-back disabled, and time
/// recover_data() — the full pipeline (record revert / log replay, volatile
/// rebuild, allocator metadata recovery, checkpoint adoption).
double measure_recovery_ms(TmKind kind, std::size_t pool_words, int history_txs, int workers,
                           bool checkpoint, int checkpoint_every) {
  RunnerConfig cfg;
  cfg.kind = kind;
  cfg.pmem.capacity_words = pool_words;
  cfg.pmem.track_store_order = false;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 12;
  cfg.trinity.lock_table_entries = std::size_t{1} << 12;
  cfg.nvhalt.recovery_threads = workers;
  cfg.trinity.recovery_threads = workers;
  // Single-threaded writer; the SPHT log must hold the whole checkpoint-off
  // history without tripping the full-log replay mid-workload (which would
  // be an implicit compaction and flatten the very growth being measured).
  cfg.spht.max_threads = 2;
  cfg.spht.replay_threads = workers;
  std::size_t log_words = std::size_t{1} << 10;
  const std::size_t history_words = static_cast<std::size_t>(history_txs) * 8 * 6;
  while (log_words < history_words) log_words <<= 1;
  cfg.spht.log_words_per_thread = log_words;
  cfg.pmem.raw_words =
      static_cast<std::size_t>(cfg.spht.max_threads) * (log_words + 2 * kWordsPerLine) +
      TxAllocator::metadata_words(pool_words) + (std::size_t{1} << 14);
  if (checkpoint) {
    cfg.nvhalt.checkpoint = true;
    cfg.trinity.checkpoint = true;
    cfg.spht.checkpoint = true;
    cfg.pmem.raw_words += CheckpointManager::metadata_words(pool_words) + 2 * kWordsPerLine;
  }
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const std::size_t array_words = std::min(pool_words / 4, std::size_t{1} << 16);
  const gaddr_t arr = runner.alloc().raw_alloc_large(array_words);
  Xoshiro256 rng(0x12EC0F + static_cast<std::uint64_t>(history_txs));
  for (int i = 0; i < history_txs; ++i) {
    tm.run(0, [&](Tx& tx) {
      for (int w = 0; w < 8; ++w) {
        const gaddr_t a = arr + static_cast<gaddr_t>(rng.next_bounded(array_words));
        tx.write(a, rng.next_bounded(std::uint64_t{1} << 32) + 1);
      }
    });
    if (checkpoint && checkpoint_every > 0 && (i + 1) % checkpoint_every == 0) tm.checkpoint(0);
  }
  runner.pool().crash(CrashPolicy{});
  const auto t0 = std::chrono::steady_clock::now();
  tm.recover_data();
  const auto t1 = std::chrono::steady_clock::now();
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         1e6;
}

/// The recovery report, two slices of the pool x history x workers cube:
///  * history sweep — mid pool, serial recovery, checkpointing off vs on,
///    history growing 1x/4x/16x past the (fixed) checkpoint cadence. The
///    claim on record: with checkpoints the recovery time stays roughly
///    flat (bounded by delta-since-checkpoint / truncated logs) while
///    SPHT's checkpoint-off replay grows with the log.
///  * worker sweep — checkpointing off (recovery work at its largest),
///    fixed history, all pool sizes x 1/2/8 workers. On multi-core rigs
///    the largest pool shows the 8-vs-1 speedup; the committed baseline
///    records whatever the baseline machine provides.
/// Latency semantics: lower is better, so the baseline gate ratio is
/// base/cur, mirroring --hw-baseline.
int run_recovery_report(const Options& opt) {
  const RecoveryScale sc = recovery_scale(opt.smoke);
  const int rounds = bench_rounds_from_env(opt.smoke);
  const int cadence = std::max(1, sc.base_history / 4);
  std::vector<RecoveryCell> cells;

  for (const TmKind kind : recovery_tms())
    for (const bool ckpt : {false, true})
      for (const int mult : {1, 4, 16})
        cells.push_back(
            {kind, sc.pools[1], sc.base_history * mult, 1, ckpt, ckpt ? cadence : 0, 0});
  for (const TmKind kind : recovery_tms())
    for (const std::size_t pool : sc.pools)
      for (const int workers : {1, 2, 8})
        cells.push_back({kind, pool, sc.base_history * 4, workers, false, 0, 0});

  for (RecoveryCell& c : cells) {
    for (int r = 0; r < rounds; ++r) {
      const double ms = measure_recovery_ms(c.kind, c.pool_words, c.history_txs, c.workers,
                                            c.checkpoint, c.checkpoint_every);
      // Recovery time is a latency; noise is one-sided, so best-of is min.
      if (r == 0 || ms < c.recover_ms) c.recover_ms = ms;
    }
    std::fprintf(stderr, "recovery %s pool=%zu hist=%d w=%d ckpt=%d: %.3f ms\n",
                 tm_kind_name(c.kind), c.pool_words, c.history_txs, c.workers,
                 c.checkpoint ? 1 : 0, c.recover_ms);
  }

  std::ostringstream js;
  js << "{\n";
  js << "  \"schema\": \"nvhalt-bench-recovery-v1\",\n";
  js << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  js << "  \"cells\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const RecoveryCell& c = cells[i];
    js << "    {\"tm\": \"" << tm_kind_name(c.kind) << "\", \"pool_words\": " << c.pool_words
       << ", \"history_txs\": " << c.history_txs << ", \"workers\": " << c.workers
       << ", \"checkpoint\": " << (c.checkpoint ? 1 : 0)
       << ", \"checkpoint_every\": " << c.checkpoint_every << ", \"ms\": " << c.recover_ms << "}"
       << (i + 1 == cells.size() ? "\n" : ",\n");
  }
  js << "  ]\n}\n";

  std::ofstream f(opt.recovery_out, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n", opt.recovery_out.c_str());
    return 1;
  }
  f << js.str();
  f.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.recovery_out.c_str());
  return 0;
}

/// Shape validation for the recovery report: right schema, 18 history-sweep
/// + 27 worker-sweep cells, all three recovery engines present, both
/// checkpoint modes present. Deliberately no timing assertions (single-core
/// CI runners cannot pin speedups); the committed baseline plus the
/// latency-ratio gate carry the regression signal.
int check_recovery_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string s = buf.str();
  std::vector<std::string> errors;

  if (s.find("\"schema\": \"nvhalt-bench-recovery-v1\"") == std::string::npos)
    errors.push_back("missing/unknown recovery schema tag");
  const auto count = [&s](const char* needle) {
    std::size_t n = 0;
    for (auto pos = s.find(needle); pos != std::string::npos; pos = s.find(needle, pos + 1)) ++n;
    return n;
  };
  if (count("\"ms\"") != 45)
    errors.push_back("recovery report must have 18 history + 27 worker cells = 45, found " +
                     std::to_string(count("\"ms\"")));
  for (const char* tm : {"NV-HALT", "Trinity", "SPHT"}) {
    if (s.find(std::string("\"tm\": \"") + tm + "\"") == std::string::npos)
      errors.push_back(std::string("recovery report missing TM ") + tm);
  }
  if (count("\"checkpoint\": 1") == 0) errors.push_back("no checkpoint-enabled recovery cells");
  if (count("\"checkpoint\": 0") == 0) errors.push_back("no checkpoint-off recovery cells");
  for (const char* w : {"\"workers\": 1", "\"workers\": 2", "\"workers\": 8"}) {
    if (s.find(w) == std::string::npos)
      errors.push_back(std::string("recovery report missing sweep point ") + w);
  }

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

std::string read_file(const std::string& path);  // defined with the baseline compares below

/// Recovery baseline compare. Keys identify the full cell coordinate; the
/// metric is a latency, so the ratio is base/cur (higher = faster now),
/// gated through NVHALT_BENCH_TOLERANCE like every other baseline flag.
int compare_recovery_with_baseline(const Options& opt) {
  const auto parse_cells = [](const std::string& text) {
    std::vector<std::pair<std::string, double>> cells;
    std::istringstream is(text);
    std::string line;
    const auto field = [&line](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return {};
      auto v = line.substr(pos + needle.size());
      if (!v.empty() && v[0] == '"') {
        const auto q = v.find('"', 1);
        return q == std::string::npos ? std::string{} : v.substr(1, q - 1);
      }
      return v.substr(0, v.find_first_of(",}"));
    };
    while (std::getline(is, line)) {
      const std::string tm = field("tm");
      const std::string pool = field("pool_words");
      const std::string hist = field("history_txs");
      const std::string workers = field("workers");
      const std::string ckpt = field("checkpoint");
      const std::string ms = field("ms");
      if (tm.empty() || pool.empty() || hist.empty() || workers.empty() || ms.empty()) continue;
      cells.emplace_back(tm + "/p" + pool + "/h" + hist + "/w" + workers + "/c" + ckpt,
                         std::strtod(ms.c_str(), nullptr));
    }
    return cells;
  };
  const std::string base_text = read_file(opt.recovery_baseline);
  if (base_text.empty()) {
    std::fprintf(stderr, "bench_regress --recovery-baseline: cannot read %s\n",
                 opt.recovery_baseline.c_str());
    return 1;
  }
  const auto base_cells = parse_cells(base_text);
  const auto cur_cells = parse_cells(read_file(opt.recovery_out));
  if (base_cells.empty() || cur_cells.empty()) {
    std::fprintf(stderr, "bench_regress --recovery-baseline: no comparable cells\n");
    return 1;
  }
  const bool mode_mismatch = (base_text.find("\"mode\": \"full\"") != std::string::npos) !=
                             (read_file(opt.recovery_out).find("\"mode\": \"full\"") !=
                              std::string::npos);
  if (mode_mismatch)
    std::fprintf(stderr,
                 "bench_regress --recovery-baseline: WARNING smoke/full mode mismatch — "
                 "ratios are indicative only\n");
  const double tolerance = bench_tolerance();
  int violations = 0;
  std::size_t compared = 0;
  for (const auto& [key, cur_ms] : cur_cells) {
    for (const auto& [bkey, base_ms] : base_cells) {
      if (bkey == key && cur_ms > 0) {
        ++compared;
        const double ratio = base_ms / cur_ms;
        const bool slow = tolerance > 0 && ratio < 1.0 - tolerance;
        if (slow) ++violations;
        std::fprintf(stderr, "recovery-baseline %-36s %6.2fx%s\n", key.c_str(), ratio,
                     slow ? "  << REGRESSION" : "");
        break;
      }
    }
  }
  if (tolerance <= 0) {
    std::fprintf(stderr,
                 "bench_regress --recovery-baseline: advisory mode (%zu cells compared, "
                 "set NVHALT_BENCH_TOLERANCE to gate)\n",
                 compared);
    return 0;
  }
  std::fprintf(stderr,
               "bench_regress --recovery-baseline: %d of %zu cells below %.0f%% of baseline\n",
               violations, compared, (1.0 - tolerance) * 100.0);
  return violations == 0 ? 0 : 1;
}

// ------------------------------------------------------ thread scaling sweep

struct ScalingCell {
  TmKind kind;
  int threads;
  std::uint64_t total_ops;
  double ops_per_sec;
};

/// One hashmap data point with dynamically registered workers: every worker
/// claims a slot through tm.register_thread() and drives the structure via
/// the registry-aware ThreadHandle overloads — the registration path the
/// runtime layer added — rather than caller-managed dense tids.
ScalingCell measure_scaling_point(TmKind kind, int threads, bool smoke) {
  const std::size_t key_range = smoke ? (std::size_t{1} << 10) : (std::size_t{1} << 14);
  const int duration_ms = smoke ? 20 : 150;

  RunnerConfig cfg;
  cfg.kind = kind;
  std::size_t words = std::size_t{1} << 16;
  while (words < key_range * 8 + (std::size_t{1} << 16)) words <<= 1;
  cfg.pmem.capacity_words = words;
  cfg.spht.max_threads = std::max(16, threads + 1);
  cfg.spht.log_words_per_thread = std::size_t{1} << 18;
  cfg.pmem.raw_words = static_cast<std::size_t>(cfg.spht.max_threads) *
                           (cfg.spht.log_words_per_thread + 2 * kWordsPerLine) +
                       TxAllocator::metadata_words(words) + (std::size_t{1} << 16);
  cfg.pmem.track_store_order = false;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 16;
  cfg.trinity.lock_table_entries = std::size_t{1} << 16;
  TmRunner runner(cfg);
  auto& tm = runner.tm();

  std::size_t buckets = 1;
  while (buckets < key_range) buckets <<= 1;
  TmHashMap map(tm, buckets);
  {
    ThreadHandle h = tm.register_thread();
    for (word_t k = 1; k <= key_range; k += 2) map.insert(h, k, k);
  }
  tm.reset_stats();

  SpinBarrier barrier(threads + 1);
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> per_thread_ops(static_cast<std::size_t>(threads), 0);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      ThreadHandle h = tm.register_thread();
      Xoshiro256 rng(0x5CA11 + static_cast<std::uint64_t>(t));
      barrier.arrive_and_wait();
      std::uint64_t ops = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const word_t key = 1 + static_cast<word_t>(rng.next_bounded(key_range));
        const std::uint64_t dice = rng.next_bounded(100);
        if (dice < 90) {
          map.contains(h, key);
        } else if (dice < 95) {
          map.insert(h, key, key);
        } else {
          map.remove(h, key);
        }
        ++ops;
      }
      per_thread_ops[static_cast<std::size_t>(t)] = ops;
    });
  }

  barrier.arrive_and_wait();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
      1e9;

  ScalingCell c{kind, threads, 0, 0};
  for (const std::uint64_t n : per_thread_ops) c.total_ops += n;
  c.ops_per_sec = secs > 0 ? static_cast<double>(c.total_ops) / secs : 0;
  return c;
}

int run_scaling_report(const Options& opt) {
  std::ostringstream js;
  js << "{\n";
  js << "  \"schema\": \"nvhalt-bench-thread-scaling-v1\",\n";
  js << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  js << "  \"structure\": \"hashmap\",\n";
  js << "  \"read_pct\": 90,\n";
  js << "  \"points\": [\n";
  bool first = true;
  for (const TmKind kind : fig8_tms()) {
    for (const int threads : scaling_thread_counts(opt.smoke)) {
      const ScalingCell c = measure_scaling_point(kind, threads, opt.smoke);
      js << (first ? "" : ",\n");
      first = false;
      js << "    {\"tm\": \"" << tm_kind_name(kind) << "\", \"threads\": " << threads
         << ", \"total_ops\": " << c.total_ops << ", \"ops_per_sec\": " << c.ops_per_sec << "}";
      std::fprintf(stderr, "scaling %s x%d: %.0f ops/s\n", tm_kind_name(kind), threads,
                   c.ops_per_sec);
    }
  }
  js << "\n  ]\n}\n";

  std::ofstream f(opt.scaling_out, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n", opt.scaling_out.c_str());
    return 1;
  }
  f << js.str();
  f.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.scaling_out.c_str());
  return 0;
}

void emit_scaling(std::ostream& os, const char* key, const std::vector<ScalingPoint>& pts,
                  bool last) {
  os << "    \"" << key << "\": [";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    os << (i == 0 ? "" : ", ") << "{\"reads\": " << pts[i].reads << ", \"ns_per_read\": "
       << pts[i].ns_per_read << "}";
  }
  os << "]" << (last ? "" : ",") << "\n";
}

int run_report(const Options& opt) {
  const int scale_iters = opt.smoke ? 300 : 3000;
  std::ostringstream js;
  js << "{\n";
  js << "  \"schema\": \"nvhalt-bench-regress-v1\",\n";
  js << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";

  js << "  \"read_scaling\": {\n";
  emit_scaling(js, "cached", measure_read_scaling(/*every_read=*/false, scale_iters), false);
  emit_scaling(js, "every_read", measure_read_scaling(/*every_read=*/true, scale_iters), true);
  js << "  },\n";

  // Taxonomy sidecar: one line per grid cell with the decoded abort-cause
  // split, so throughput regressions come with their abort story attached.
  std::ostringstream tax;
  tax << "{\n";
  tax << "  \"schema\": \"nvhalt-bench-taxonomy-v1\",\n";
  tax << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  tax << "  \"cells\": [\n";

  // Contention sidecar: one line per grid cell with the lock-contention
  // totals and the top-K hot stripes — bench_report --contention renders
  // this as the per-stripe heatmap.
  std::ostringstream con;
  con << "{\n";
  con << "  \"schema\": \"nvhalt-bench-contention-v1\",\n";
  con << "  \"mode\": \"" << (opt.smoke ? "smoke" : "full") << "\",\n";
  con << "  \"cells\": [\n";

  js << "  \"grid\": [\n";
  bool first = true;
  bool con_first = true;
  // The paper's four uniform workloads plus one Zipf-skewed update column:
  // skew concentrates writers on the same hot lines, which is exactly the
  // regime the contention observatory exists for, so the grid keeps one
  // cell of it on record.
  struct GridWorkload {
    int read_pct;
    KeyDist dist;
  };
  std::vector<GridWorkload> workloads;
  for (const int pct : fig8_read_pcts()) workloads.push_back({pct, KeyDist::kUniform});
  workloads.push_back({50, KeyDist::kZipf});
  for (const Structure st : {Structure::kAbTree, Structure::kHashMap}) {
    for (const GridWorkload& wl : workloads) {
      const int read_pct = wl.read_pct;
      const char* dist_name = wl.dist == KeyDist::kZipf ? "zipf" : "uniform";
      for (const TmKind kind : fig8_tms()) {
        BenchParams p;
        p.kind = kind;
        p.structure = st;
        p.read_pct = read_pct;
        p.dist = wl.dist;
        p.threads = 2;
        p.key_range = opt.smoke ? (std::size_t{1} << 10) : (std::size_t{1} << 14);
        p.duration_ms = opt.smoke ? 20 : 150;
        const BenchResult r = run_structure_bench_best(p, bench_rounds_from_env(opt.smoke));
        js << (first ? "" : ",\n");
        tax << (first ? "" : ",\n");
        first = false;
        js << "    {\"structure\": \"" << structure_name(st) << "\", \"read_pct\": " << read_pct
           << ", \"dist\": \"" << dist_name << "\""
           << ", \"tm\": \"" << tm_kind_name(kind) << "\", \"threads\": " << p.threads
           << ", \"ops_per_sec\": " << r.ops_per_sec
           << ", \"flushes_per_op\": " << r.flushes_per_op
           << ", \"fences_per_op\": " << r.fences_per_op
           << ", \"flush_dedup_per_op\": " << r.flush_dedup_per_op << "}";
        const auto& t = r.tel.tx.taxonomy;
        tax << "    {\"structure\": \"" << structure_name(st) << "\", \"read_pct\": " << read_pct
            << ", \"dist\": \"" << dist_name << "\""
            << ", \"tm\": \"" << tm_kind_name(kind) << "\", \"commits\": " << r.tm.commits
            << ", \"hw_aborts\": " << r.tm.hw_aborts;
        for (std::size_t c = 0; c < telemetry::kNumAbortCauses; ++c) {
          tax << ", \"" << htm::abort_cause_name(static_cast<htm::AbortCause>(c))
              << "\": " << t.hw_by_cause[c];
        }
        tax << ", \"sw_aborts\": " << t.sw_aborts << ", \"ro_aborts\": " << r.tm.ro_aborts;
        for (std::size_t c = 0; c < telemetry::kNumRoAbortCauses; ++c) {
          tax << ", \"" << telemetry::ro_abort_cause_name(static_cast<telemetry::RoAbortCause>(c))
              << "\": " << t.ro_by_cause[c];
        }
        tax << ", \"ro_commits\": " << r.tm.ro_commits << ", \"user_aborts\": " << t.user_aborts
            << ", \"fallbacks\": " << r.tm.fallbacks
            << ", \"write_set_p99\": " << r.tel.tx.write_set_size.quantile_bound(0.99) << "}";
        con << (con_first ? "" : ",\n");
        con_first = false;
        con << "    {\"structure\": \"" << structure_name(st) << "\", \"read_pct\": " << read_pct
            << ", \"dist\": \"" << dist_name << "\""
            << ", \"tm\": \"" << tm_kind_name(kind) << "\", \"stripes\": " << r.contention_stripes
            << ", \"stalls\": " << r.contention.stalls
            << ", \"stall_ticks\": " << r.contention.stall_ticks
            << ", \"cas_failures\": " << r.contention.cas_failures
            << ", \"aborts\": " << r.contention.aborts << ", \"top\": [";
        for (std::size_t i = 0; i < r.hot_stripes.size(); ++i) {
          const StripeContention& hs = r.hot_stripes[i];
          con << (i == 0 ? "" : ", ") << "{\"stripe\": " << hs.stripe
              << ", \"stalls\": " << hs.stalls << ", \"stall_ticks\": " << hs.stall_ticks
              << ", \"cas_failures\": " << hs.cas_failures << ", \"aborts\": " << hs.aborts
              << ", \"score\": " << hs.score() << "}";
        }
        con << "]}";
        std::fprintf(stderr, "%s %dro%s %s: %.0f ops/s\n", structure_name(st), read_pct,
                     wl.dist == KeyDist::kZipf ? " zipf" : "", tm_kind_name(kind), r.ops_per_sec);
      }
    }
  }
  js << "\n  ]\n}\n";
  tax << "\n  ]\n}\n";
  con << "\n  ]\n}\n";

  std::ofstream f(opt.out, std::ios::trunc);
  if (!f) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n", opt.out.c_str());
    return 1;
  }
  f << js.str();
  f.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.out.c_str());

  std::ofstream tf(opt.taxonomy_out, std::ios::trunc);
  if (!tf) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n", opt.taxonomy_out.c_str());
    return 1;
  }
  tf << tax.str();
  tf.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.taxonomy_out.c_str());

  std::ofstream cf(opt.contention_out, std::ios::trunc);
  if (!cf) {
    std::fprintf(stderr, "bench_regress: cannot open %s for writing\n",
                 opt.contention_out.c_str());
    return 1;
  }
  cf << con.str();
  cf.close();
  std::fprintf(stderr, "bench_regress: wrote %s\n", opt.contention_out.c_str());
  return 0;
}

/// Output-shape validation for the perf-smoke CTest target: the report
/// must exist, be structurally sound JSON (balanced, right schema tag) and
/// contain every grid cell. Deliberately no timing assertions.
int check_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string s = buf.str();
  std::vector<std::string> errors;

  const auto first = s.find_first_not_of(" \t\r\n");
  const auto last = s.find_last_not_of(" \t\r\n");
  if (first == std::string::npos || s[first] != '{' || s[last] != '}')
    errors.push_back("not a JSON object");

  long depth_brace = 0, depth_bracket = 0;
  bool in_string = false;
  for (const char c : s) {
    if (c == '"') in_string = !in_string;  // report strings contain no escapes
    if (in_string) continue;
    if (c == '{') ++depth_brace;
    if (c == '}') --depth_brace;
    if (c == '[') ++depth_bracket;
    if (c == ']') --depth_bracket;
    if (depth_brace < 0 || depth_bracket < 0) break;
  }
  if (depth_brace != 0 || depth_bracket != 0 || in_string)
    errors.push_back("unbalanced braces/brackets/quotes");

  const auto count = [&s](const char* needle) {
    std::size_t n = 0;
    for (auto pos = s.find(needle); pos != std::string::npos; pos = s.find(needle, pos + 1)) ++n;
    return n;
  };
  if (s.find("\"schema\": \"nvhalt-bench-regress-v1\"") == std::string::npos)
    errors.push_back("missing/unknown schema tag");
  if (s.find("\"read_scaling\"") == std::string::npos) errors.push_back("missing read_scaling");
  if (count("\"ns_per_read\"") != 6) errors.push_back("read_scaling must have 2x3 points");
  const std::size_t cells = count("\"ops_per_sec\"");
  if (cells != 50) {
    errors.push_back(
        "grid must have 2 structures x 5 workloads (4 uniform + 1 zipf) x 5 TMs = 50 cells, "
        "found " +
        std::to_string(cells));
  }
  if (count("\"dist\": \"zipf\"") != 10)
    errors.push_back("grid must carry 2 structures x 5 TMs = 10 zipf-skewed cells");
  for (const char* tm : {"NV-HALT-SP", "NV-HALT-CL", "Trinity", "SPHT"}) {
    if (s.find(std::string("\"tm\": \"") + tm + "\"") == std::string::npos)
      errors.push_back(std::string("missing TM ") + tm);
  }

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

/// Shape validation for the thread-scaling report: right schema, balanced,
/// one point per (TM, thread count) cell.
int check_scaling_report(const std::string& path, bool smoke) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string s = buf.str();
  std::vector<std::string> errors;

  if (s.find("\"schema\": \"nvhalt-bench-thread-scaling-v1\"") == std::string::npos)
    errors.push_back("missing/unknown scaling schema tag");

  const auto count = [&s](const char* needle) {
    std::size_t n = 0;
    for (auto pos = s.find(needle); pos != std::string::npos; pos = s.find(needle, pos + 1)) ++n;
    return n;
  };
  const std::size_t expected = 5 * scaling_thread_counts(smoke).size();
  if (count("\"ops_per_sec\"") != expected) {
    errors.push_back("scaling must have 5 TMs x " +
                     std::to_string(scaling_thread_counts(smoke).size()) +
                     " thread counts = " + std::to_string(expected) + " points");
  }
  for (const char* tm : {"NV-HALT-SP", "NV-HALT-CL", "Trinity", "SPHT"}) {
    if (s.find(std::string("\"tm\": \"") + tm + "\"") == std::string::npos)
      errors.push_back(std::string("scaling missing TM ") + tm);
  }

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

/// Shape + consistency validation for the taxonomy sidecar: 50 cells, and
/// on every cell the per-cause counts must sum to hw_aborts exactly — the
/// invariant record_hw_abort() maintains at the source.
int check_taxonomy(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> errors;
  std::string line;
  bool saw_schema = false;
  std::size_t cells = 0;
  while (std::getline(f, line)) {
    if (line.find("\"schema\": \"nvhalt-bench-taxonomy-v1\"") != std::string::npos)
      saw_schema = true;
    const auto field = [&line](const std::string& key) -> long long {
      const std::string needle = "\"" + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return -1;
      return std::atoll(line.c_str() + pos + needle.size());
    };
    const long long hw = field("hw_aborts");
    if (hw < 0) continue;
    ++cells;
    long long by_cause = 0;
    for (std::size_t c = 0; c < telemetry::kNumAbortCauses; ++c)
      by_cause += std::max(0LL, field(htm::abort_cause_name(static_cast<htm::AbortCause>(c))));
    if (by_cause != hw) {
      errors.push_back("cell " + std::to_string(cells) + ": cause sum " +
                       std::to_string(by_cause) + " != hw_aborts " + std::to_string(hw));
    }
    // Same invariant for the read-only path: record_ro_abort() is the only
    // writer of both sides, so any drift means a bookkeeping bug.
    const long long ro = field("ro_aborts");
    if (ro >= 0) {
      long long ro_by_cause = 0;
      for (std::size_t c = 0; c < telemetry::kNumRoAbortCauses; ++c)
        ro_by_cause += std::max(
            0LL, field(telemetry::ro_abort_cause_name(static_cast<telemetry::RoAbortCause>(c))));
      if (ro_by_cause != ro) {
        errors.push_back("cell " + std::to_string(cells) + ": ro cause sum " +
                         std::to_string(ro_by_cause) + " != ro_aborts " + std::to_string(ro));
      }
    }
  }
  if (!saw_schema) errors.push_back("missing/unknown taxonomy schema tag");
  if (cells != 50)
    errors.push_back("taxonomy must have 50 cells, found " + std::to_string(cells));

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

/// Shape + consistency validation for the contention sidecar: 50 cells,
/// every cell carries a stripe count, and every top-K entry's score obeys
/// the published formula (4*aborts + 2*cas_failures + stalls) — the same
/// arithmetic ContentionTable ranks by, so drift means a snapshot bug.
int check_contention(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> errors;
  std::string line;
  bool saw_schema = false;
  std::size_t cells = 0;
  while (std::getline(f, line)) {
    if (line.find("\"schema\": \"nvhalt-bench-contention-v1\"") != std::string::npos)
      saw_schema = true;
    const auto tm_pos = line.find("\"tm\": \"");
    const auto top_pos = line.find("\"top\": [");
    if (tm_pos == std::string::npos || top_pos == std::string::npos) continue;
    ++cells;
    const auto stripes_pos = line.find("\"stripes\": ");
    if (stripes_pos == std::string::npos ||
        std::atoll(line.c_str() + stripes_pos + 11) < 1) {
      errors.push_back("contention cell " + std::to_string(cells) + ": missing stripe count");
      continue;
    }
    // Walk the top-K objects; keys repeat per entry so scan object by object.
    std::size_t pos = top_pos + 8;
    while (true) {
      const auto open = line.find('{', pos);
      if (open == std::string::npos) break;
      const auto close = line.find('}', open);
      if (close == std::string::npos) break;
      const std::string obj = line.substr(open, close - open + 1);
      const auto field = [&obj](const char* key) -> long long {
        const std::string needle = std::string("\"") + key + "\": ";
        const auto p = obj.find(needle);
        return p == std::string::npos ? 0 : std::atoll(obj.c_str() + p + needle.size());
      };
      const long long want = 4 * field("aborts") + 2 * field("cas_failures") + field("stalls");
      if (field("score") != want) {
        errors.push_back("contention cell " + std::to_string(cells) + ": top entry score " +
                         std::to_string(field("score")) + " != recomputed " +
                         std::to_string(want));
      }
      pos = close + 1;
    }
  }
  if (!saw_schema) errors.push_back("missing/unknown contention schema tag");
  if (cells != 50)
    errors.push_back("contention sidecar must have 50 cells, found " + std::to_string(cells));

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

/// Shape validation for the hw-hotpath report: right schema, both ops
/// present, 3 read points + 2 write points.
int check_hw_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string s = buf.str();
  std::vector<std::string> errors;

  if (s.find("\"schema\": \"nvhalt-bench-hw-hotpath-v1\"") == std::string::npos)
    errors.push_back("missing/unknown hw-hotpath schema tag");

  const auto count = [&s](const char* needle) {
    std::size_t n = 0;
    for (auto pos = s.find(needle); pos != std::string::npos; pos = s.find(needle, pos + 1)) ++n;
    return n;
  };
  if (count("\"ns_per_op\"") != 5)
    errors.push_back("hw hotpath must have 3 read + 2 write = 5 points");
  if (count("\"op\": \"read\"") != 3) errors.push_back("hw hotpath missing read points");
  if (count("\"op\": \"write\"") != 2) errors.push_back("hw hotpath missing write points");
  if (count("\"hw_commit_frac\"") != 5)
    errors.push_back("hw hotpath points must carry hw_commit_frac");

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

/// Shape + consistency validation for the ro-path report: 2 structures x
/// 2 workloads x 5 TMs = 20 cells; per cell the RO cause counts must sum
/// to ro_aborts; NV-HALT cells must actually route through the RO engines
/// (majority of commits) while the baselines must report zero RO commits.
int check_ro_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> errors;
  std::string line;
  bool saw_schema = false;
  std::size_t cells = 0;
  while (std::getline(f, line)) {
    if (line.find("\"schema\": \"nvhalt-bench-ro-path-v1\"") != std::string::npos)
      saw_schema = true;
    const auto field = [&line](const std::string& key) -> long long {
      const std::string needle = "\"" + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return -1;
      return std::atoll(line.c_str() + pos + needle.size());
    };
    const long long ro = field("ro_aborts");
    if (ro < 0 || line.find("\"tm\": \"") == std::string::npos) continue;
    ++cells;
    long long by_cause = 0;
    for (std::size_t c = 0; c < telemetry::kNumRoAbortCauses; ++c)
      by_cause += std::max(
          0LL, field(telemetry::ro_abort_cause_name(static_cast<telemetry::RoAbortCause>(c))));
    if (by_cause != ro) {
      errors.push_back("ro cell " + std::to_string(cells) + ": cause sum " +
                       std::to_string(by_cause) + " != ro_aborts " + std::to_string(ro));
    }
    const bool nvhalt_cell = line.find("\"tm\": \"NV-HALT") != std::string::npos;
    const long long commits = field("ro_commits");
    const long long total = field("commits");
    if (nvhalt_cell) {
      if (total > 0 && commits * 2 <= total) {
        errors.push_back("ro cell " + std::to_string(cells) +
                         ": NV-HALT routed only " + std::to_string(commits) + "/" +
                         std::to_string(total) + " commits through the RO path");
      }
    } else if (commits != 0) {
      errors.push_back("ro cell " + std::to_string(cells) + ": baseline TM reports " +
                       std::to_string(commits) + " ro_commits");
    }
  }
  if (!saw_schema) errors.push_back("missing/unknown ro-path schema tag");
  if (cells != 20)
    errors.push_back("ro-path report must have 20 cells, found " + std::to_string(cells));

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

/// Shape + consistency validation for the alloc-churn report: 2 structures
/// x 4 freeing TMs = 8 cells, and per cell the epoch ledger must balance —
/// everything retired during the phase was either reclaimed or is still in
/// limbo (retire() and reclaim() are the only writers of either side).
int check_alloc_report(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_regress --check: missing %s\n", path.c_str());
    return 1;
  }
  std::vector<std::string> errors;
  std::string line;
  bool saw_schema = false;
  std::size_t cells = 0;
  while (std::getline(f, line)) {
    if (line.find("\"schema\": \"nvhalt-bench-alloc-churn-v1\"") != std::string::npos)
      saw_schema = true;
    const auto field = [&line](const std::string& key) -> long long {
      const std::string needle = "\"" + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return -1;
      return std::atoll(line.c_str() + pos + needle.size());
    };
    const long long retired = field("retired");
    if (retired < 0) continue;
    ++cells;
    const long long reclaimed = field("reclaimed");
    const long long limbo = field("limbo");
    if (retired != reclaimed + limbo) {
      errors.push_back("alloc cell " + std::to_string(cells) + ": retired " +
                       std::to_string(retired) + " != reclaimed " + std::to_string(reclaimed) +
                       " + limbo " + std::to_string(limbo));
    }
    if (line.find("\"tm\": \"SPHT\"") != std::string::npos)
      errors.push_back("alloc churn must not include SPHT (bump allocator, never frees)");
  }
  if (!saw_schema) errors.push_back("missing/unknown alloc-churn schema tag");
  if (cells != 8)
    errors.push_back("alloc-churn report must have 8 cells, found " + std::to_string(cells));

  for (const auto& e : errors) std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
  if (errors.empty()) std::fprintf(stderr, "bench_regress --check: %s OK\n", path.c_str());
  return errors.empty() ? 0 : 1;
}

// ------------------------------------------------- baseline comparison

/// One parsed grid cell: a composed workload key plus the two gated
/// metrics. The reports are emitted one grid object per line by this
/// binary, so a line-oriented field scan is a complete parser for them.
/// The optional dist coordinate only suffixes the key when present, so
/// keys for pre-existing reports are unchanged and old committed baselines
/// stay comparable.
struct ParsedCell {
  std::string key;
  double ops = 0;
  /// Negative when the report doesn't carry the field (ro/alloc reports).
  double fences_per_op = -1;
};

std::vector<ParsedCell> parse_grid_cells(const std::string& text) {
  std::vector<ParsedCell> cells;
  std::istringstream is(text);
  std::string line;
  const auto field = [&line](const char* key) -> std::string {
    const std::string needle = std::string("\"") + key + "\": ";
    const auto pos = line.find(needle);
    if (pos == std::string::npos) return {};
    auto v = line.substr(pos + needle.size());
    if (!v.empty() && v[0] == '"') {
      const auto q = v.find('"', 1);
      return q == std::string::npos ? std::string{} : v.substr(1, q - 1);
    }
    return v.substr(0, v.find_first_of(",}"));
  };
  while (std::getline(is, line)) {
    const std::string st = field("structure");
    const std::string tm = field("tm");
    const std::string pct = field("read_pct");
    const std::string ops = field("ops_per_sec");
    if (st.empty() || tm.empty() || pct.empty() || ops.empty()) continue;
    ParsedCell c;
    c.key = st + "/" + pct + "ro";
    if (field("dist") == "zipf") c.key += "-zipf";
    c.key += "/" + tm;
    c.ops = std::strtod(ops.c_str(), nullptr);
    const std::string fences = field("fences_per_op");
    if (!fences.empty()) c.fences_per_op = std::strtod(fences.c_str(), nullptr);
    cells.push_back(std::move(c));
  }
  return cells;
}

std::string read_file(const std::string& path) {
  std::ifstream f(path);
  if (!f) return {};
  std::stringstream buf;
  buf << f.rdbuf();
  return buf.str();
}

/// Compares a fresh report's grid cells against a baseline report (the
/// main grid and the ro-path/alloc reports share the cell line shape, so
/// one comparator serves every flag).
/// Advisory by default (prints every cell's ratio, worst first, returns
/// 0); with a positive $NVHALT_BENCH_TOLERANCE it fails when any cell's
/// throughput drops below baseline * (1 - tolerance), or — for reports
/// that carry fences_per_op — when a cell's fence count rises above
/// baseline * (1 + tolerance). Fences are simulated-clock deterministic
/// modulo scheduling, so the fence gate catches durability-cost creep that
/// wall-clock noise would hide.
int compare_grid_files(const char* flag, const std::string& base_path,
                       const std::string& cur_path) {
  const std::string base_text = read_file(base_path);
  if (base_text.empty()) {
    std::fprintf(stderr, "bench_regress %s: cannot read %s\n", flag, base_path.c_str());
    return 1;
  }
  const std::string cur_text = read_file(cur_path);
  const auto base_cells = parse_grid_cells(base_text);
  const auto cur_cells = parse_grid_cells(cur_text);
  if (base_cells.empty() || cur_cells.empty()) {
    std::fprintf(stderr, "bench_regress %s: no comparable grid cells\n", flag);
    return 1;
  }
  const bool mode_mismatch = (base_text.find("\"mode\": \"full\"") != std::string::npos) !=
                             (cur_text.find("\"mode\": \"full\"") != std::string::npos);
  if (mode_mismatch)
    std::fprintf(stderr,
                 "bench_regress %s: WARNING smoke/full mode mismatch — "
                 "ratios are indicative only\n",
                 flag);

  const double tolerance = bench_tolerance();
  struct Delta {
    std::string key;
    double ratio;
    /// cur/base fence ratio, or 0 when either side lacks the field.
    double fence_ratio;
  };
  std::vector<Delta> deltas;
  for (const ParsedCell& cur : cur_cells) {
    for (const ParsedCell& base : base_cells) {
      if (base.key != cur.key || base.ops <= 0) continue;
      Delta d{cur.key, cur.ops / base.ops, 0};
      if (base.fences_per_op > 0 && cur.fences_per_op >= 0)
        d.fence_ratio = cur.fences_per_op / base.fences_per_op;
      deltas.push_back(std::move(d));
      break;
    }
  }
  std::sort(deltas.begin(), deltas.end(),
            [](const Delta& a, const Delta& b) { return a.ratio < b.ratio; });

  int violations = 0;
  for (const Delta& d : deltas) {
    const bool slow = tolerance > 0 && d.ratio < 1.0 - tolerance;
    const bool fence_regress = tolerance > 0 && d.fence_ratio > 1.0 + tolerance;
    if (slow || fence_regress) ++violations;
    if (d.fence_ratio > 0) {
      std::fprintf(stderr, "baseline %-36s %6.2fx  fences %5.2fx%s%s\n", d.key.c_str(), d.ratio,
                   d.fence_ratio, slow ? "  << REGRESSION" : "",
                   fence_regress ? "  << FENCE REGRESSION" : "");
    } else {
      std::fprintf(stderr, "baseline %-36s %6.2fx%s\n", d.key.c_str(), d.ratio,
                   slow ? "  << REGRESSION" : "");
    }
  }
  if (tolerance <= 0) {
    std::fprintf(stderr, "bench_regress %s: advisory mode (%zu cells compared, "
                         "set NVHALT_BENCH_TOLERANCE to gate)\n",
                 flag, deltas.size());
    return 0;
  }
  std::fprintf(stderr,
               "bench_regress %s: %d of %zu cells outside the %.0f%% tolerance band\n", flag,
               violations, deltas.size(), tolerance * 100.0);
  return violations == 0 ? 0 : 1;
}

/// hw-hotpath baseline compare. Keys are "op/n", the metric is ns_per_op —
/// a *latency*, so the ratio is base/cur (higher = faster now) to keep the
/// same "ratio < 1 - tolerance means regression" gate as the grid compare.
int compare_hw_with_baseline(const Options& opt) {
  const auto parse_points = [](const std::string& text) {
    std::vector<std::pair<std::string, double>> pts;
    std::istringstream is(text);
    std::string line;
    const auto field = [&line](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return {};
      auto v = line.substr(pos + needle.size());
      if (!v.empty() && v[0] == '"') {
        const auto q = v.find('"', 1);
        return q == std::string::npos ? std::string{} : v.substr(1, q - 1);
      }
      return v.substr(0, v.find_first_of(",}"));
    };
    while (std::getline(is, line)) {
      const std::string op = field("op");
      const std::string n = field("n");
      const std::string ns = field("ns_per_op");
      if (op.empty() || n.empty() || ns.empty()) continue;
      pts.emplace_back(op + "/" + n, std::strtod(ns.c_str(), nullptr));
    }
    return pts;
  };
  const std::string base_text = read_file(opt.hw_baseline);
  if (base_text.empty()) {
    std::fprintf(stderr, "bench_regress --hw-baseline: cannot read %s\n", opt.hw_baseline.c_str());
    return 1;
  }
  const auto base_pts = parse_points(base_text);
  const auto cur_pts = parse_points(read_file(opt.hw_out));
  if (base_pts.empty() || cur_pts.empty()) {
    std::fprintf(stderr, "bench_regress --hw-baseline: no comparable points\n");
    return 1;
  }
  const double tolerance = bench_tolerance();
  int violations = 0;
  std::size_t compared = 0;
  for (const auto& [key, cur_ns] : cur_pts) {
    for (const auto& [bkey, base_ns] : base_pts) {
      if (bkey == key && cur_ns > 0) {
        ++compared;
        const double ratio = base_ns / cur_ns;
        const bool slow = tolerance > 0 && ratio < 1.0 - tolerance;
        if (slow) ++violations;
        std::fprintf(stderr, "hw-baseline %-12s %6.2fx%s\n", key.c_str(), ratio,
                     slow ? "  << REGRESSION" : "");
        break;
      }
    }
  }
  if (tolerance <= 0) {
    std::fprintf(stderr, "bench_regress --hw-baseline: advisory mode (%zu points compared)\n",
                 compared);
    return 0;
  }
  std::fprintf(stderr, "bench_regress --hw-baseline: %d of %zu points below %.0f%% of baseline\n",
               violations, compared, (1.0 - tolerance) * 100.0);
  return violations == 0 ? 0 : 1;
}

}  // namespace
}  // namespace nvhalt::bench

int main(int argc, char** argv) {
  nvhalt::bench::Options opt;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      opt.smoke = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      opt.check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      opt.out = argv[++i];
    } else if (std::strcmp(argv[i], "--scaling-out") == 0 && i + 1 < argc) {
      opt.scaling_out = argv[++i];
    } else if (std::strcmp(argv[i], "--taxonomy-out") == 0 && i + 1 < argc) {
      opt.taxonomy_out = argv[++i];
    } else if (std::strcmp(argv[i], "--contention-out") == 0 && i + 1 < argc) {
      opt.contention_out = argv[++i];
    } else if (std::strcmp(argv[i], "--hw-out") == 0 && i + 1 < argc) {
      opt.hw_out = argv[++i];
    } else if (std::strcmp(argv[i], "--ro-out") == 0 && i + 1 < argc) {
      opt.ro_out = argv[++i];
    } else if (std::strcmp(argv[i], "--alloc-out") == 0 && i + 1 < argc) {
      opt.alloc_out = argv[++i];
    } else if (std::strcmp(argv[i], "--alloc-baseline") == 0 && i + 1 < argc) {
      opt.alloc_baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      opt.baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--hw-baseline") == 0 && i + 1 < argc) {
      opt.hw_baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--ro-baseline") == 0 && i + 1 < argc) {
      opt.ro_baseline = argv[++i];
    } else if (std::strcmp(argv[i], "--recovery-out") == 0 && i + 1 < argc) {
      opt.recovery_out = argv[++i];
    } else if (std::strcmp(argv[i], "--recovery-baseline") == 0 && i + 1 < argc) {
      opt.recovery_baseline = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: bench_regress [--smoke] [--check] [--out PATH] [--scaling-out PATH] "
                   "[--taxonomy-out PATH] [--contention-out PATH] [--hw-out PATH] [--ro-out PATH] "
                   "[--alloc-out PATH] "
                   "[--baseline PATH] [--hw-baseline PATH] [--ro-baseline PATH] "
                   "[--alloc-baseline PATH] "
                   "[--recovery-out PATH] [--recovery-baseline PATH]\n");
      return 2;
    }
  }
  int rc = nvhalt::bench::run_report(opt);
  if (rc != 0) return rc;
  rc = nvhalt::bench::run_scaling_report(opt);
  if (rc != 0) return rc;
  rc = nvhalt::bench::run_hw_report(opt);
  if (rc != 0) return rc;
  rc = nvhalt::bench::run_ro_report(opt);
  if (rc != 0) return rc;
  rc = nvhalt::bench::run_alloc_report(opt);
  if (rc != 0) return rc;
  if (!opt.recovery_out.empty()) {
    rc = nvhalt::bench::run_recovery_report(opt);
    if (rc != 0) return rc;
  }
  if (opt.check) {
    rc = nvhalt::bench::check_report(opt.out);
    const int rc2 = nvhalt::bench::check_scaling_report(opt.scaling_out, opt.smoke);
    const int rc3 = nvhalt::bench::check_taxonomy(opt.taxonomy_out);
    const int rc4 = nvhalt::bench::check_hw_report(opt.hw_out);
    const int rc5 = nvhalt::bench::check_ro_report(opt.ro_out);
    const int rc6 = nvhalt::bench::check_alloc_report(opt.alloc_out);
    const int rc7 = opt.recovery_out.empty()
                        ? 0
                        : nvhalt::bench::check_recovery_report(opt.recovery_out);
    const int rc8 = nvhalt::bench::check_contention(opt.contention_out);
    if (rc == 0) rc = rc2;
    if (rc == 0) rc = rc3;
    if (rc == 0) rc = rc4;
    if (rc == 0) rc = rc5;
    if (rc == 0) rc = rc6;
    if (rc == 0) rc = rc7;
    if (rc == 0) rc = rc8;
    if (rc != 0) return rc;
  }
  if (!opt.baseline.empty()) {
    rc = nvhalt::bench::compare_grid_files("--baseline", opt.baseline, opt.out);
    if (rc != 0) return rc;
  }
  if (!opt.ro_baseline.empty()) {
    rc = nvhalt::bench::compare_grid_files("--ro-baseline", opt.ro_baseline, opt.ro_out);
    if (rc != 0) return rc;
  }
  if (!opt.alloc_baseline.empty()) {
    rc = nvhalt::bench::compare_grid_files("--alloc-baseline", opt.alloc_baseline, opt.alloc_out);
    if (rc != 0) return rc;
  }
  if (!opt.recovery_baseline.empty() && !opt.recovery_out.empty()) {
    rc = nvhalt::bench::compare_recovery_with_baseline(opt);
    if (rc != 0) return rc;
  }
  if (!opt.hw_baseline.empty()) return nvhalt::bench::compare_hw_with_baseline(opt);
  return rc;
}
