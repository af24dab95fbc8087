// The spec table: every benchmark sweep as its cell list, its metrics and
// its invariants, plus the measurement behind each cell. Methodology
// (paper Sec. 5): prefill a structure to 50% of its key range, then run a
// timed mixed workload. The paper runs 1M keys for 20 s on up to 96
// threads of an Optane machine; the full scale here is 2^14 keys, 150 ms
// windows and 1/2/4 threads, so only the shape (who wins, by what factor)
// carries over, not absolute numbers. EXPERIMENTS.md scores that shape.
#include <atomic>
#include <chrono>
#include <memory>
#include <thread>

#include "alloc/segment.hpp"
#include "api/tm_factory.hpp"
#include "baselines/spht/spht_tm.hpp"
#include "engine.hpp"
#include "host.hpp"
#include "latency.hpp"
#include "pmem/checkpoint.hpp"
#include "structures/tm_abtree.hpp"
#include "structures/tm_hashmap.hpp"
#include "structures/tm_skiplist.hpp"
#include "telemetry/telemetry.hpp"
#include "util/barrier.hpp"
#include "util/rng.hpp"
#include "workload/workload.hpp"

namespace nvhalt::bench {
namespace {

constexpr int kHotStripes = 8;
const char* const kHwCauses[] = {"conflict", "capacity", "explicit", "spurious", "flush"};
const char* const kRoCauses[] = {"ro_validation", "ro_demotion"};
static_assert(std::size(kHwCauses) == telemetry::kNumAbortCauses);
static_assert(std::size(kRoCauses) == telemetry::kNumRoAbortCauses);

double secs_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

// ------------------------------------------------------------ mixed cells

/// One mixed-workload cell. The ablation fields are the Fig. 9 levels.
struct Mixed {
  std::string structure;  // abtree, hashmap or skiplist
  std::string workload;   // "<read_pct>ro", "-zipf" suffix for Zipf(0.99) keys
  TmKind kind = TmKind::kNvHalt;
  int threads = 1;
  bool eadr = false, nvm_latency = true, persist = true;
  double spurious = 0;
};

/// Times every op with the TSC into one histogram per worker, each on its
/// own cache lines (LatencyHist bumps a total on every record). Like
/// perfbench, it reads the clock once per op boundary: an op's latency runs
/// from the previous op's completion on the same worker (so it includes
/// the workload loop's key draw) to its own, and the first op of each worker is
/// not recorded.
class TimedOps final : public workload::KeyedOps {
 public:
  TimedOps(workload::KeyedOps& ops, int threads)
      : ops_(ops), slots_(static_cast<std::size_t>(threads)) {}
  bool insert(int tid, word_t k, word_t v) override {
    return timed(tid, [&] { return ops_.insert(tid, k, v); });
  }
  bool remove(int tid, word_t k) override {
    return timed(tid, [&] { return ops_.remove(tid, k); });
  }
  bool contains(int tid, word_t k) override {
    return timed(tid, [&] { return ops_.contains(tid, k); });
  }
  perfbench::LatencyHist merged() const {
    perfbench::LatencyHist all;
    for (const Slot& s : slots_) all.add(s.ticks);
    return all;
  }

 private:
  template <typename F>
  bool timed(int tid, F&& op) {
    const bool r = op();
    Slot& s = slots_[static_cast<std::size_t>(tid)];
    const std::uint64_t now = telemetry::now_ticks();
    if (s.last != 0) s.ticks.record(now - s.last);
    s.last = now;
    return r;
  }
  struct alignas(kCacheLineBytes) Slot {
    perfbench::LatencyHist ticks;
    std::uint64_t last = 0;
  };
  workload::KeyedOps& ops_;
  std::vector<Slot> slots_;
};

double ticks_per_us() {
  static const double v = perfbench::tsc_ticks_per_us();
  return v;
}

Sample measure_mixed(const Mixed& p, const Scale& sc) {
  const std::size_t keys = static_cast<std::size_t>(sc.keys);
  RunnerConfig cfg;
  cfg.kind = p.kind;
  // Room for the prefill plus the segments each worker's allocator holds.
  const std::size_t data_words = (p.structure == "hashmap" ? keys * 8 : keys * 10) +
                                 static_cast<std::size_t>(p.threads) * 4 * kSegmentWords;
  std::size_t words = std::size_t{1} << 16;
  while (words < data_words + (std::size_t{1} << 16)) words <<= 1;
  cfg.pmem.capacity_words = words;
  cfg.pmem.raw_words = TxAllocator::metadata_words(words) + (std::size_t{1} << 16);
  if (p.kind == TmKind::kSpht) {
    cfg.spht.max_threads = std::max(16, p.threads);
    cfg.spht.log_words_per_thread = std::size_t{1} << 18;
    cfg.pmem.raw_words += static_cast<std::size_t>(cfg.spht.max_threads) *
                          (cfg.spht.log_words_per_thread + 2 * kWordsPerLine);
  }
  cfg.pmem.eadr = p.eadr;
  cfg.pmem.flush_latency_ns = p.nvm_latency ? 150 : 0;
  cfg.pmem.fence_latency_ns = p.nvm_latency ? 80 : 0;
  cfg.pmem.nvm_store_latency_ns = p.nvm_latency ? 50 : 0;
  cfg.pmem.track_store_order = false;  // no crash adversary in benchmarks
  cfg.htm.seed = 1;
  cfg.htm.spurious_abort_prob = p.spurious;
  cfg.nvhalt.persist_hw_txns = p.persist;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 16;
  cfg.trinity.lock_table_entries = std::size_t{1} << 16;
  cfg.spht.persist_txns = p.persist;
  TmRunner runner(cfg);
  auto& tm = runner.tm();

  std::unique_ptr<TmAbTree> tree;
  std::unique_ptr<TmHashMap> map;
  std::unique_ptr<TmSkipList> list;
  std::unique_ptr<workload::KeyedOps> ops;
  if (p.structure == "abtree") {
    tree = std::make_unique<TmAbTree>(tm);
    ops = std::make_unique<workload::KeyedOpsAdapter<TmAbTree>>(*tree);
  } else if (p.structure == "hashmap") {
    // The paper's hashmap has as many buckets as keys.
    std::size_t buckets = 1;
    while (buckets < keys) buckets <<= 1;
    map = std::make_unique<TmHashMap>(tm, buckets);
    ops = std::make_unique<workload::KeyedOpsAdapter<TmHashMap>>(*map);
  } else {
    list = std::make_unique<TmSkipList>(tm);
    ops = std::make_unique<workload::KeyedOpsAdapter<TmSkipList>>(*list);
  }
  workload::prefill_half(*ops, keys, 1);
  tm.reset_stats();
  auto* spht = dynamic_cast<SphtTm*>(&tm);
  if (spht != nullptr) spht->reset_global_lock_held_ns();
  PmemPool& pool = runner.pool();
  const std::uint64_t flushes0 = pool.flush_count(), fences0 = pool.fence_count(),
                      dedup0 = pool.flush_dedup_count();
  const AllocStats alloc0 = runner.alloc().stats();

  workload::WorkloadSpec spec;
  spec.read_pct = std::stoi(p.workload);
  spec.threads = p.threads;
  spec.key_range = keys;
  spec.duration_ms = sc.ms;
  spec.dist = p.workload.ends_with("-zipf") ? workload::KeyDist::kZipf
                                            : workload::KeyDist::kUniform;
  TimedOps timed(*ops, p.threads);
  const workload::WorkloadResult w = workload::run_mixed(timed, spec);

  Sample s;
  const double n = std::max<double>(1, static_cast<double>(w.total_ops));
  s["ops_per_sec"] = w.ops_per_sec;
  s["total_ops"] = static_cast<double>(w.total_ops);
  const perfbench::LatencyHist lat = timed.merged();
  s["p50_us"] = lat.quantile(0.50) / ticks_per_us();
  s["p99_us"] = lat.quantile(0.99) / ticks_per_us();
  s["flushes_per_op"] = static_cast<double>(pool.flush_count() - flushes0) / n;
  s["fences_per_op"] = static_cast<double>(pool.fence_count() - fences0) / n;
  s["dedup_per_op"] = static_cast<double>(pool.flush_dedup_count() - dedup0) / n;
  // SPHT only: share of the window the global fallback lock was held, all
  // concurrency disabled (paper Sec. 5.3).
  s["serialized_frac"] =
      spht ? static_cast<double>(spht->global_lock_held_ns()) / (w.seconds * 1e9) : 0.0;
  // SPHT replays its logs after the measured phase, as the paper does; the
  // replay's flushes stay out of the per-op counts above.
  if (spht != nullptr) spht->checkpoint(0);

  const TmStats st = tm.stats();
  s["commits"] = static_cast<double>(st.commits);
  s["hw_commits"] = static_cast<double>(st.hw_commits);
  s["sw_commits"] = static_cast<double>(st.sw_commits);
  s["ro_commits"] = static_cast<double>(st.ro_commits);
  s["hw_aborts"] = static_cast<double>(st.hw_aborts);
  for (std::size_t c = 0; c < std::size(kHwCauses); ++c)
    s[kHwCauses[c]] = static_cast<double>(st.hw_by_cause[c]);
  s["sw_aborts"] = static_cast<double>(st.sw_aborts);
  s["ro_aborts"] = static_cast<double>(st.ro_aborts);
  for (std::size_t c = 0; c < std::size(kRoCauses); ++c)
    s[kRoCauses[c]] = static_cast<double>(st.ro_by_cause[c]);
  s["user_aborts"] = static_cast<double>(st.user_aborts);
  s["fallbacks"] = static_cast<double>(st.fallbacks);
  s["write_set_p99"] = static_cast<double>(st.write_set_size.quantile_bound(0.99));

  // Epoch ledger over the phase: retired and reclaimed are phase deltas,
  // limbo_start/limbo the limbo depth at its start and end.
  const AllocStats alloc1 = runner.alloc().stats();
  s["allocs"] = static_cast<double>(alloc1.allocs - alloc0.allocs);
  s["frees"] = static_cast<double>(alloc1.frees - alloc0.frees);
  s["retired"] = static_cast<double>(alloc1.retired - alloc0.retired);
  s["reclaimed"] = static_cast<double>(alloc1.reclaimed - alloc0.reclaimed);
  s["limbo_start"] = static_cast<double>(alloc0.limbo);
  s["limbo"] = static_cast<double>(alloc1.limbo);

  // Lock contention: totals and the hottest stripes (zeros past the last).
  const ContentionTable* ct = tm.contention();
  const ContentionTotals tot = ct ? ct->totals() : ContentionTotals{};
  s["lock_stripes"] = ct ? static_cast<double>(ct->stripes()) : 0.0;
  s["lock_stalls"] = static_cast<double>(tot.stalls);
  s["lock_stall_ticks"] = static_cast<double>(tot.stall_ticks);
  s["lock_cas_failures"] = static_cast<double>(tot.cas_failures);
  s["lock_aborts"] = static_cast<double>(tot.aborts);
  const std::vector<StripeContention> hot =
      ct ? ct->top_k(kHotStripes) : std::vector<StripeContention>{};
  for (int k = 0; k < kHotStripes; ++k) {
    const StripeContention h = k < static_cast<int>(hot.size()) ? hot[k] : StripeContention{};
    const std::string pre = "hot" + std::to_string(k + 1) + "_";
    s[pre + "stripe"] = static_cast<double>(h.stripe);
    s[pre + "score"] = static_cast<double>(h.score());
    s[pre + "stalls"] = static_cast<double>(h.stalls);
    s[pre + "stall_ticks"] = static_cast<double>(h.stall_ticks);
    s[pre + "cas"] = static_cast<double>(h.cas_failures);
    s[pre + "aborts"] = static_cast<double>(h.aborts);
  }
  return s;
}

std::vector<MetricSpec> mixed_metrics() {
  std::vector<MetricSpec> m = {{"ops_per_sec", Better::kHigher, true},
                               {"p50_us", Better::kLower},
                               {"p99_us", Better::kLower},
                               {"flushes_per_op", Better::kLower},
                               {"fences_per_op", Better::kLower, true},
                               {"dedup_per_op"},
                               {"serialized_frac", Better::kLower},
                               {"total_ops"}};
  for (const char* n : {"commits", "hw_commits", "sw_commits", "ro_commits", "hw_aborts"})
    m.push_back({n});
  for (const char* n : kHwCauses) m.push_back({n});
  m.push_back({"sw_aborts"});
  m.push_back({"ro_aborts"});
  for (const char* n : kRoCauses) m.push_back({n});
  for (const char* n : {"user_aborts", "fallbacks", "write_set_p99", "allocs", "frees", "retired",
                        "reclaimed", "limbo_start", "limbo", "lock_stripes", "lock_stalls",
                        "lock_stall_ticks", "lock_cas_failures", "lock_aborts"})
    m.push_back({n});
  for (int k = 1; k <= kHotStripes; ++k)
    for (const char* f : {"stripe", "score", "stalls", "stall_ticks", "cas", "aborts"})
      m.push_back({"hot" + std::to_string(k) + "_" + f});
  return m;
}

std::string unless(bool holds, const std::string& why) { return holds ? std::string() : why; }
std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::vector<Invariant> mixed_invariants() {
  return {
      {"hw abort causes sum to hw_aborts",
       [](const Dims&, const MetricView& m) {
         double sum = 0;
         for (const char* c : kHwCauses) sum += m(c);
         return unless(sum == m("hw_aborts"),
                       "causes sum to " + num(sum) + ", hw_aborts is " + num(m("hw_aborts")));
       }},
      {"ro abort causes sum to ro_aborts",
       [](const Dims&, const MetricView& m) {
         const double sum = m("ro_validation") + m("ro_demotion");
         return unless(sum == m("ro_aborts"),
                       "causes sum to " + num(sum) + ", ro_aborts is " + num(m("ro_aborts")));
       }},
      {"contention covers at least one stripe",
       [](const Dims&, const MetricView& m) {
         return unless(m("lock_stripes") >= 1, "lock_stripes is " + num(m("lock_stripes")));
       }},
      {"hot-stripe score = 4*aborts + 2*cas + stalls",
       [](const Dims&, const MetricView& m) {
         for (int k = 1; k <= kHotStripes; ++k) {
           const std::string p = "hot" + std::to_string(k) + "_";
           if (m(p + "score") != 4 * m(p + "aborts") + 2 * m(p + "cas") + m(p + "stalls"))
             return p + "score is " + num(m(p + "score"));
         }
         return std::string();
       }},
      {"Trinity and SPHT take no RO commits",
       [](const Dims& d, const MetricView& m) {
         const std::string tm = dim(d, "tm");
         return unless((tm != "Trinity" && tm != "SPHT") || m("ro_commits") == 0,
                       "ro_commits is " + num(m("ro_commits")));
       }},
      {"epoch ledger balances: retired + limbo_start = reclaimed + limbo",
       [](const Dims&, const MetricView& m) {
         return unless(m("retired") + m("limbo_start") == m("reclaimed") + m("limbo"),
                       "retired " + num(m("retired")) + ", reclaimed " + num(m("reclaimed")));
       }},
  };
}

/// NV-HALT variants route read-mostly commits through the RO engine.
Invariant ro_routing(bool at_t2) {
  return {std::string("NV-HALT routes most 99ro/95ro commits through the RO engine") +
              (at_t2 ? " (t2)" : " (t1/t4)"),
          [at_t2](const Dims& d, const MetricView& m) {
            const std::string wl = dim(d, "workload");
            if (!dim(d, "tm").starts_with("NV-HALT") || (wl != "99ro" && wl != "95ro") ||
                (dim(d, "threads") == "2") != at_t2 || m("commits") <= 0)
              return std::string();
            return unless(m("ro_commits") * 2 > m("commits"),
                          "RO engine took " + num(m("ro_commits")) + " of " +
                              num(m("commits")) + " commits");
          },
          /*advisory=*/!at_t2};
}

const char* const kAllTms[] = {"NV-HALT", "NV-HALT-CL", "NV-HALT-SP", "Trinity", "SPHT"};

SweepSpec grid_sweep() {
  SweepSpec s{"grid", "Fig. 8 rows 1-2, all five TMs at 1/2/4 threads", mixed_metrics(), {},
              mixed_invariants(), nullptr, {"tm", "Trinity", "ops_per_sec", "workload"}};
  s.invariants.push_back(ro_routing(true));
  s.invariants.push_back(ro_routing(false));
  for (const char* st : {"abtree", "hashmap"})
    for (const char* wl : {"99ro", "95ro", "90ro", "50ro", "0ro", "50ro-zipf"})
      for (const char* tm : kAllTms)
        for (const char* t : {"1", "2", "4"})
          s.cells.push_back({{"structure", st}, {"workload", wl}, {"tm", tm}, {"threads", t}});
  s.measure = [](const Dims& d, const Scale& sc) {
    return measure_mixed({dim(d, "structure"), dim(d, "workload"),
                          tm_kind_from_string(dim(d, "tm")), std::stoi(dim(d, "threads"))},
                         sc);
  };
  return s;
}

SweepSpec ablation_sweep() {
  SweepSpec s{"ablation",
              "Fig. 9, abtree at 4 threads: persistence overheads removed one class at a time",
              mixed_metrics(), {}, mixed_invariants(), nullptr,
              {"level", "BASE", "ops_per_sec", "tm"}};
  for (const char* wl : {"99ro", "90ro", "50ro", "0ro"})
    for (const char* tm : {"NV-HALT-CL", "SPHT"})
      // NO-FLUSH-FENCE is the eADR platform: no flushes or fences, NVM
      // store latency kept.
      for (const char* lv : {"BASE", "NO-FLUSH-FENCE", "NO-NVRAM", "NO-PERSIST-HTXN"})
        s.cells.push_back({{"workload", wl}, {"tm", tm}, {"level", lv}});
  s.measure = [](const Dims& d, const Scale& sc) {
    const std::string lv = dim(d, "level");
    Mixed p{"abtree", dim(d, "workload"), tm_kind_from_string(dim(d, "tm")), 4};
    p.eadr = lv != "BASE";
    p.nvm_latency = lv == "BASE" || lv == "NO-FLUSH-FENCE";
    p.persist = lv != "NO-PERSIST-HTXN";
    return measure_mixed(p, sc);
  };
  return s;
}

SweepSpec abort_sweep() {
  // Injected spurious aborts stand in for contention: SPHT's fallback
  // serialises everything, NV-HALT's keeps disjoint commits concurrent.
  SweepSpec s{"abort", "abort pressure: abtree 50ro at 4 threads, spurious aborts per hw access",
              mixed_metrics(), {}, mixed_invariants(), nullptr, {}};
  for (const char* tm : {"NV-HALT", "NV-HALT-CL", "SPHT"})
    for (const char* pct : {"0", "1", "5", "20"})
      s.cells.push_back({{"tm", tm}, {"spurious_pct", pct}});
  s.measure = [](const Dims& d, const Scale& sc) {
    Mixed p{"abtree", "50ro", tm_kind_from_string(dim(d, "tm")), 4};
    p.spurious = std::stoi(dim(d, "spurious_pct")) / 100.0;
    return measure_mixed(p, sc);
  };
  return s;
}

SweepSpec alloc_sweep() {
  // The allocator's worst case: every remove retires a node through the
  // epoch limbo, Zipf skew concentrates frees. The hashmap never frees
  // (removes mark slots empty) and neither does SPHT's bump allocator.
  SweepSpec s{"alloc", "allocator churn: 0ro-zipf on the two structures that free",
              mixed_metrics(), {}, mixed_invariants(), nullptr, {}};
  s.invariants.push_back({"no SPHT cell (its bump allocator never frees)",
                          [](const Dims& d, const MetricView&) {
                            return unless(dim(d, "tm") != "SPHT", "SPHT cell present");
                          }});
  for (const char* st : {"skiplist", "abtree"})
    for (const char* tm : {"NV-HALT", "NV-HALT-CL", "NV-HALT-SP", "Trinity"})
      for (const char* t : {"1", "2", "4"})
        s.cells.push_back({{"structure", st}, {"tm", tm}, {"threads", t}});
  s.measure = [](const Dims& d, const Scale& sc) {
    return measure_mixed({dim(d, "structure"), "0ro-zipf", tm_kind_from_string(dim(d, "tm")),
                          std::stoi(dim(d, "threads"))},
                         sc);
  };
  return s;
}

// ------------------------------------------------------------ livelock

/// Fig. 6: two threads run opposing array scans on the software path; the
/// weakly progressive NV-HALT can abort both sides of a conflict over and
/// over, NV-HALT-SP guarantees a winner per conflict.
Sample measure_livelock(TmKind kind, bool hw_path, int ms) {
  RunnerConfig cfg;
  cfg.kind = kind;
  cfg.pmem.capacity_words = std::size_t{1} << 18;
  if (!hw_path) cfg.nvhalt.htm_attempts = 0;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  constexpr std::size_t kSlots = 32;
  const gaddr_t arr = runner.alloc().raw_alloc_large(kSlots);
  std::atomic<bool> stop{false};
  SpinBarrier barrier(3);
  std::uint64_t commits[2] = {0, 0};
  std::thread workers[2];
  for (int tid = 0; tid < 2; ++tid) {
    workers[tid] = std::thread([&, tid] {
      barrier.arrive_and_wait();
      while (!stop.load(std::memory_order_relaxed)) {
        // T1 updates the front and reads ascending, T2 updates the back and
        // reads descending.
        tm.run(tid, [&](Tx& tx) {
          const gaddr_t mine = tid == 0 ? arr : arr + kSlots - 1;
          tx.write(mine, tx.read(mine) + 1);
          for (std::size_t s = 1; s < kSlots; ++s)
            (void)tx.read(tid == 0 ? arr + s : arr + kSlots - 1 - s);
        });
        ++commits[tid];
      }
    });
  }
  barrier.arrive_and_wait();
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
  stop.store(true);
  for (auto& w : workers) w.join();
  const TmStats st = tm.stats();
  return {{"commits_per_sec", static_cast<double>(commits[0] + commits[1]) / secs_since(t0)},
          {"aborts_per_commit", st.commits == 0 ? 0.0
                                                : static_cast<double>(st.sw_aborts + st.hw_aborts) /
                                                      static_cast<double>(st.commits)}};
}

SweepSpec livelock_sweep() {
  SweepSpec s{"livelock", "Fig. 6 progress pathology: two opposing scans",
              {{"commits_per_sec", Better::kHigher, true}, {"aborts_per_commit", Better::kLower}},
              {}, {}, nullptr, {}};
  for (const char* tm : {"NV-HALT", "NV-HALT-SP"})
    for (const char* paths : {"sw-only", "full"}) s.cells.push_back({{"tm", tm}, {"paths", paths}});
  s.measure = [](const Dims& d, const Scale& sc) {
    return measure_livelock(tm_kind_from_string(dim(d, "tm")), dim(d, "paths") == "full", sc.ms);
  };
  return s;
}

// ------------------------------------------------------------ hotpath

/// Which commit counter each engine label owns (Trinity is TL2, software).
const char* engine_counter(const std::string& engine) {
  return engine == "hw" ? "hw_commits" : engine == "ro" ? "ro_commits" : "sw_commits";
}

/// Per-access cost of one engine: single-threaded, latency-free unless the
/// config says otherwise, so the instrumentation itself is what is timed.
Sample measure_hotpath(const Dims& d, int iters) {
  const std::string engine = dim(d, "engine"), config = dim(d, "config");
  const std::size_t n = std::stoul(dim(d, "n"));
  const bool write = dim(d, "op") == "write";
  RunnerConfig cfg;
  cfg.kind = tm_kind_from_string(dim(d, "tm"));
  cfg.pmem.capacity_words = std::size_t{1} << 18;
  cfg.spht.max_threads = 2;
  cfg.spht.log_words_per_thread = std::size_t{1} << 14;
  if (engine == "sw") cfg.nvhalt.htm_attempts = 0;
  cfg.nvhalt.hw_read_check_locks = config != "no-lock-checks";
  cfg.nvhalt.validate_every_read = config == "every-read";
  cfg.nvhalt.persist_hw_txns = config != "no-persist";
  cfg.spht.persist_txns = config != "no-persist";
  if (config.starts_with("flush-")) {
    cfg.pmem.flush_latency_ns = std::stoul(config.substr(6));
    cfg.pmem.fence_latency_ns = cfg.pmem.flush_latency_ns / 2;
  }
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t arr = runner.alloc().raw_alloc_large(n);
  word_t sink = 0, v = 0;
  const auto body = [&](Tx& tx) {
    ++v;
    for (std::size_t i = 0; i < n; ++i) {
      if (write)
        tx.write(arr + i, v);
      else
        sink += tx.read(arr + i);
    }
  };
  // Only the ro cells hint their pure-read bodies onto the RO engine.
  const TxMode mode = engine == "ro" ? TxMode::kReadOnly : TxMode::kUpdate;
  for (int i = 0; i < 16; ++i) tm.run(0, mode, body);  // warm up
  tm.reset_stats();
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) tm.run(0, mode, body);
  const double secs = secs_since(t0);
  if (sink == 0xDEADBEEF) std::fprintf(stderr, "?");  // keep the reads observable
  const TmStats st = tm.stats();
  Sample s{{"ns_per_access", secs * 1e9 / (static_cast<double>(iters) * static_cast<double>(n))},
           {"commits", static_cast<double>(st.commits)},
           {"hw_commits", static_cast<double>(st.hw_commits)},
           {"sw_commits", static_cast<double>(st.sw_commits)},
           {"ro_commits", static_cast<double>(st.ro_commits)}};
  s["engine_share"] = st.commits ? s[engine_counter(engine)] / static_cast<double>(st.commits) : 0;
  return s;
}

SweepSpec hotpath_sweep() {
  SweepSpec s{"hotpath", "per-access cost of each commit engine, one thread",
              {{"ns_per_access", Better::kLower, true},
               {"engine_share"},
               {"commits"},
               {"hw_commits"},
               {"sw_commits"},
               {"ro_commits"}},
              {}, {}, nullptr, {}};
  s.invariants = {
      {"hw cells commit in hardware",
       [](const Dims& d, const MetricView& m) {
         const bool hw = dim(d, "engine") == "hw";
         return unless(!hw || (m("commits") > 0 && m("hw_commits") == m("commits")),
                       num(m("hw_commits")) + " of " + num(m("commits")) + " commits in hardware");
       }},
      {"the labelled engine takes >= 99% of commits",
       [](const Dims& d, const MetricView& m) {
         const double mine = m(engine_counter(dim(d, "engine")));
         return unless(m("commits") > 0 && mine >= 0.99 * m("commits"),
                       num(mine) + " of " + num(m("commits")) + " commits");
       }},
  };
  const auto add = [&](const char* engine, const char* tm, const char* op,
                       std::initializer_list<const char*> ns, const char* config) {
    for (const char* n : ns)
      s.cells.push_back({{"engine", engine}, {"tm", tm}, {"op", op}, {"n", n}, {"config", config}});
  };
  add("hw", "NV-HALT", "read", {"8", "64", "256"}, "default");
  add("hw", "NV-HALT", "read", {"8", "64"}, "no-lock-checks");
  add("hw", "NV-HALT", "write", {"1", "8", "64"}, "default");
  add("hw", "NV-HALT", "write", {"1", "8"}, "no-persist");
  add("hw", "NV-HALT", "write", {"1"}, "flush-150");
  add("hw", "NV-HALT", "write", {"1"}, "flush-500");
  add("sw", "NV-HALT", "read", {"8", "32", "64", "128", "256"}, "default");
  add("sw", "NV-HALT", "read", {"8", "32", "64", "128", "256"}, "every-read");
  add("ro", "NV-HALT", "read", {"8", "32", "64", "128", "256"}, "default");
  add("Trinity", "Trinity", "read", {"8", "32", "128"}, "default");
  add("hw", "SPHT", "write", {"1"}, "default");
  add("hw", "SPHT", "write", {"1"}, "no-persist");
  s.measure = [](const Dims& d, const Scale& sc) { return measure_hotpath(d, sc.iters); };
  return s;
}

// ------------------------------------------------------------ recovery

/// One recovery: build a pool, run `history` single-thread transactions of
/// 8 random writes (checkpointing every `every` commits when > 0), crash
/// with write-back disabled, and time recover_data().
double measure_recovery_ms(TmKind kind, std::size_t pool_words, int history, int workers,
                           int every) {
  RunnerConfig cfg;
  cfg.kind = kind;
  cfg.pmem.capacity_words = pool_words;
  cfg.pmem.track_store_order = false;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 12;
  cfg.trinity.lock_table_entries = std::size_t{1} << 12;
  cfg.nvhalt.recovery_threads = workers;
  cfg.trinity.recovery_threads = workers;
  // The SPHT log holds the whole checkpoint-off history, so no full-log
  // replay (an implicit compaction) flattens the growth being measured.
  cfg.spht.max_threads = 2;
  cfg.spht.replay_threads = workers;
  std::size_t log_words = std::size_t{1} << 10;
  while (log_words < static_cast<std::size_t>(history) * 8 * 6) log_words <<= 1;
  cfg.spht.log_words_per_thread = log_words;
  cfg.pmem.raw_words = static_cast<std::size_t>(cfg.spht.max_threads) *
                           (log_words + 2 * kWordsPerLine) +
                       TxAllocator::metadata_words(pool_words) + (std::size_t{1} << 14);
  if (every > 0) {
    cfg.nvhalt.checkpoint = cfg.trinity.checkpoint = true;
    cfg.pmem.raw_words += CheckpointManager::metadata_words(pool_words) + 2 * kWordsPerLine;
  }
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const std::size_t array_words = std::min(pool_words / 4, std::size_t{1} << 16);
  const gaddr_t arr = runner.alloc().raw_alloc_large(array_words);
  Xoshiro256 rng(0x12EC0F + static_cast<std::uint64_t>(history));
  for (int i = 0; i < history; ++i) {
    tm.run(0, [&](Tx& tx) {
      for (int w = 0; w < 8; ++w)
        tx.write(arr + static_cast<gaddr_t>(rng.next_bounded(array_words)),
                 rng.next_bounded(std::uint64_t{1} << 32) + 1);
    });
    if (every > 0 && (i + 1) % every == 0) tm.checkpoint(0);
  }
  runner.pool().crash(CrashPolicy{});
  const auto t0 = std::chrono::steady_clock::now();
  tm.recover_data();
  return secs_since(t0) * 1e3;
}

SweepSpec recovery_sweep() {
  // Two slices of the pool x history x workers cube: history growing past
  // a fixed checkpoint cadence (checkpointing should keep recovery flat
  // while SPHT's checkpoint-off replay grows with the log), and worker
  // counts on every pool size with checkpointing off. The NV-HALT variants
  // share NV-HALT's recovery code, so only the three engines are swept.
  // Recovery reads only the carved heap, so it tracks the cells' write
  // block of min(pool_words / 4, 2^16) words, not pool_words: 4 segments
  // at both 2^18 and 2^20 words, 1 at 2^16.
  SweepSpec s{"recovery", "crash recovery time vs history, checkpointing and workers",
              {{"recover_ms", Better::kLower, true}}, {}, {}, nullptr,
              {"workers", "1", "recover_ms", ""}};
  constexpr int kBase = 384;
  const std::string mid = std::to_string(1 << 18), cadence = std::to_string(kBase / 4);
  for (const char* tm : {"NV-HALT", "Trinity", "SPHT"})
    for (const std::string& ckpt : {std::string("off"), cadence})
      for (const int mult : {1, 4, 16})
        s.cells.push_back({{"slice", "history"}, {"tm", tm}, {"pool_words", mid},
                           {"history", std::to_string(kBase * mult)}, {"workers", "1"},
                           {"checkpoint_every", ckpt}});
  for (const char* tm : {"NV-HALT", "Trinity", "SPHT"})
    for (const int pool : {1 << 16, 1 << 18, 1 << 20})
      for (const char* w : {"1", "2", "8"})
        s.cells.push_back({{"slice", "workers"}, {"tm", tm}, {"pool_words", std::to_string(pool)},
                           {"history", std::to_string(kBase * 4)}, {"workers", w},
                           {"checkpoint_every", "off"}});
  s.measure = [](const Dims& d, const Scale&) {
    const std::string every = dim(d, "checkpoint_every");
    return Sample{{"recover_ms",
                   measure_recovery_ms(tm_kind_from_string(dim(d, "tm")),
                                       std::stoul(dim(d, "pool_words")),
                                       std::stoi(dim(d, "history")), std::stoi(dim(d, "workers")),
                                       every == "off" ? 0 : std::stoi(every))}};
  };
  return s;
}

}  // namespace

const std::vector<SweepSpec>& sweeps() {
  static const std::vector<SweepSpec> all = {grid_sweep(),    ablation_sweep(), abort_sweep(),
                                             livelock_sweep(), hotpath_sweep(),  alloc_sweep(),
                                             recovery_sweep()};
  return all;
}

}  // namespace nvhalt::bench
