// One-shot evaluation report: runs a compact version of the paper's whole
// evaluation (Fig. 8 both structures, Fig. 9 ablation, Fig. 6 progress)
// and prints the tables side by side, in the layout of the paper's
// figures. Scale knobs are the usual NVHALT_BENCH_* environment variables.
//
//   $ NVHALT_BENCH_MS=300 ./build/bench/bench_report
//
// With --taxonomy PATH it instead renders a bench_regress abort-taxonomy
// sidecar (BENCH_taxonomy.json) into markdown tables — one per structure,
// abort causes as columns — and exits without running any benchmark.
// With --hw-hotpath PATH it renders a bench_regress hw-hotpath report
// (BENCH_hw_hotpath.json) as a markdown table of per-access fast-path cost.
// With --gap PATH it renders any grid-shaped bench_regress report
// (BENCH_sw_hotpath.json or BENCH_ro_path.json) as a per-cell ratio table
// of every TM against Trinity — the paper's competitiveness claim in one
// markdown table, with a geometric-mean summary row.
// With --recovery PATH it renders a bench_regress recovery-time report
// (BENCH_recovery.json): recovery vs history length (checkpoint off/on)
// and vs parallel replay worker count.
// With --contention PATH it renders a bench_regress lock-contention sidecar
// (BENCH_contention.json) as the per-stripe heatmap: totals per grid cell
// plus the hottest stripes of the most contended cell per TM.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace nvhalt;
using namespace nvhalt::bench;

namespace {

void print_fig8(Structure structure, const char* title, const BenchScale& scale) {
  std::printf("\n== Fig. 8 %s — ops/s (key range %zu, %d ms windows) ==\n", title,
              scale.key_range, scale.duration_ms);
  std::printf("%-8s %-4s", "workload", "thr");
  for (const TmKind kind : fig8_tms()) std::printf(" %12s", tm_kind_name(kind));
  std::printf("\n");
  for (const int read_pct : fig8_read_pcts()) {
    for (const int threads : scale.thread_counts) {
      std::printf("%-8s %-4d", workload_name(read_pct).c_str(), threads);
      for (const TmKind kind : fig8_tms()) {
        BenchParams p;
        p.kind = kind;
        p.structure = structure;
        p.read_pct = read_pct;
        p.threads = threads;
        p.key_range = scale.key_range;
        p.duration_ms = scale.duration_ms;
        p.dist = scale.dist;
        const BenchResult r = run_structure_bench(p);
        std::printf(" %11.0fk", r.ops_per_sec / 1e3);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
}

void print_fig9(const BenchScale& scale) {
  struct Level {
    const char* name;
    bool flushes, eadr, latency, persist;
  };
  const Level levels[] = {
      {"BASE", true, false, true, true},
      {"EADR", false, true, true, true},
      {"NO-FLUSH-FENCE", false, false, true, true},
      {"NO-NVRAM", false, false, false, true},
      {"NO-PERSIST-HTXN", false, false, false, false},
  };
  const int threads = scale.thread_counts.back();
  std::printf("\n== Fig. 9 ablation — (a,b)-tree, t%d, ops/s ==\n", threads);
  std::printf("%-8s %-12s", "workload", "tm");
  for (const auto& l : levels) std::printf(" %16s", l.name);
  std::printf("\n");
  for (const int read_pct : fig8_read_pcts()) {
    for (const TmKind kind : {TmKind::kNvHaltCl, TmKind::kSpht}) {
      std::printf("%-8s %-12s", workload_name(read_pct).c_str(), tm_kind_name(kind));
      for (const auto& l : levels) {
        BenchParams p;
        p.kind = kind;
        p.structure = Structure::kAbTree;
        p.read_pct = read_pct;
        p.threads = threads;
        p.key_range = scale.key_range;
        p.duration_ms = scale.duration_ms;
        p.flushes_enabled = l.flushes;
        p.eadr = l.eadr;
        if (!l.latency) {
          p.flush_latency_ns = 0;
          p.fence_latency_ns = 0;
          p.nvm_store_latency_ns = 0;
        }
        p.persist_htxns = l.persist;
        const BenchResult r = run_structure_bench(p);
        std::printf(" %15.0fk", r.ops_per_sec / 1e3);
        std::fflush(stdout);
      }
      std::printf("\n");
    }
  }
}

// ---- taxonomy markdown rendering (--taxonomy) ----------------------------

/// Workload label for rendered tables: the grid's Zipf-skewed column shares
/// read_pct 50 with the uniform one, so skewed cells get a "-zipf" suffix
/// ("50ro-zipf"). Cells from reports predating the dist field render
/// unchanged.
std::string wl_label(long long read_pct, const std::string& dist) {
  std::string label = workload_name(static_cast<int>(read_pct));
  if (dist == "zipf") label += "-zipf";
  return label;
}

struct TaxonomyCell {
  std::string structure, tm, dist;
  long long read_pct = 0;
  long long commits = 0, hw_aborts = 0, sw_aborts = 0, user_aborts = 0, fallbacks = 0;
  long long ro_commits = 0, ro_aborts = 0;
  long long write_set_p99 = 0;
  long long by_cause[telemetry::kNumAbortCauses] = {};
  long long ro_by_cause[telemetry::kNumRoAbortCauses] = {};
};

/// Line-oriented parse of the sidecar (bench_regress writes one cell
/// object per line, so no general JSON parser is needed).
std::vector<TaxonomyCell> parse_taxonomy(std::ifstream& f) {
  std::vector<TaxonomyCell> cells;
  std::string line;
  while (std::getline(f, line)) {
    const auto str_field = [&line](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\": \"";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return {};
      const auto start = pos + needle.size();
      const auto end = line.find('"', start);
      return end == std::string::npos ? std::string{} : line.substr(start, end - start);
    };
    const auto num_field = [&line](const std::string& key) -> long long {
      const std::string needle = "\"" + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return 0;
      return std::atoll(line.c_str() + pos + needle.size());
    };
    TaxonomyCell c;
    c.structure = str_field("structure");
    c.tm = str_field("tm");
    c.dist = str_field("dist");
    if (c.structure.empty() || c.tm.empty()) continue;
    c.read_pct = num_field("read_pct");
    c.commits = num_field("commits");
    c.hw_aborts = num_field("hw_aborts");
    c.sw_aborts = num_field("sw_aborts");
    c.user_aborts = num_field("user_aborts");
    c.fallbacks = num_field("fallbacks");
    c.ro_commits = num_field("ro_commits");
    c.ro_aborts = num_field("ro_aborts");
    c.write_set_p99 = num_field("write_set_p99");
    for (std::size_t i = 0; i < telemetry::kNumAbortCauses; ++i)
      c.by_cause[i] = num_field(htm::abort_cause_name(static_cast<htm::AbortCause>(i)));
    for (std::size_t i = 0; i < telemetry::kNumRoAbortCauses; ++i)
      c.ro_by_cause[i] =
          num_field(telemetry::ro_abort_cause_name(static_cast<telemetry::RoAbortCause>(i)));
    cells.push_back(std::move(c));
  }
  return cells;
}

int render_taxonomy_markdown(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_report --taxonomy: cannot open %s\n", path.c_str());
    return 1;
  }
  const std::vector<TaxonomyCell> cells = parse_taxonomy(f);
  if (cells.empty()) {
    std::fprintf(stderr, "bench_report --taxonomy: no cells in %s\n", path.c_str());
    return 1;
  }

  std::printf("# Abort taxonomy (%s)\n", path.c_str());
  for (const char* st : {"abtree", "hashmap"}) {
    bool any = false;
    for (const TaxonomyCell& c : cells) any |= c.structure == st;
    if (!any) continue;
    std::printf("\n## %s\n\n", st);
    std::printf("| workload | tm | commits | hw aborts");
    for (std::size_t i = 0; i < telemetry::kNumAbortCauses; ++i)
      std::printf(" | %s", htm::abort_cause_name(static_cast<htm::AbortCause>(i)));
    std::printf(" | sw aborts | ro commits | ro aborts");
    for (std::size_t i = 0; i < telemetry::kNumRoAbortCauses; ++i)
      std::printf(" | %s", telemetry::ro_abort_cause_name(static_cast<telemetry::RoAbortCause>(i)));
    std::printf(" | fallbacks | wrset p99 |\n");
    std::printf("|---|---|---:|---:");
    for (std::size_t i = 0; i < telemetry::kNumAbortCauses; ++i) std::printf("|---:");
    std::printf("|---:|---:|---:");
    for (std::size_t i = 0; i < telemetry::kNumRoAbortCauses; ++i) std::printf("|---:");
    std::printf("|---:|---:|\n");
    for (const TaxonomyCell& c : cells) {
      if (c.structure != st) continue;
      std::printf("| %s | %s | %lld | %lld", wl_label(c.read_pct, c.dist).c_str(),
                  c.tm.c_str(), c.commits, c.hw_aborts);
      for (std::size_t i = 0; i < telemetry::kNumAbortCauses; ++i)
        std::printf(" | %lld", c.by_cause[i]);
      std::printf(" | %lld | %lld | %lld", c.sw_aborts, c.ro_commits, c.ro_aborts);
      for (std::size_t i = 0; i < telemetry::kNumRoAbortCauses; ++i)
        std::printf(" | %lld", c.ro_by_cause[i]);
      std::printf(" | %lld | %lld |\n", c.fallbacks, c.write_set_p99);
    }
  }
  return 0;
}

// ---- hw-hotpath markdown rendering (--hw-hotpath) ------------------------

/// Renders a bench_regress BENCH_hw_hotpath.json (one point object per
/// line) as a markdown table: per-access cost on the hardware fast path
/// plus the fraction of commits that actually stayed hardware — a
/// hw_commit_frac below ~1.0 flags that the point partially measured the
/// software fallback instead.
int render_hw_hotpath_markdown(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_report --hw-hotpath: cannot open %s\n", path.c_str());
    return 1;
  }
  struct Point {
    std::string op;
    long long n = 0;
    double ns_per_op = 0, hw_commit_frac = 0;
  };
  std::vector<Point> pts;
  std::string line, mode = "?";
  while (std::getline(f, line)) {
    const auto mpos = line.find("\"mode\": \"");
    if (mpos != std::string::npos) {
      const auto start = mpos + 9;
      mode = line.substr(start, line.find('"', start) - start);
    }
    const auto num_field = [&line](const char* key) -> double {
      const std::string needle = std::string("\"") + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return -1;
      return std::strtod(line.c_str() + pos + needle.size(), nullptr);
    };
    const auto opos = line.find("\"op\": \"");
    if (opos == std::string::npos) continue;
    Point p;
    const auto start = opos + 7;
    p.op = line.substr(start, line.find('"', start) - start);
    p.n = static_cast<long long>(num_field("n"));
    p.ns_per_op = num_field("ns_per_op");
    p.hw_commit_frac = num_field("hw_commit_frac");
    pts.push_back(std::move(p));
  }
  if (pts.empty()) {
    std::fprintf(stderr, "bench_report --hw-hotpath: no points in %s\n", path.c_str());
    return 1;
  }
  std::printf("# Hardware fast-path access cost (%s, %s mode)\n\n", path.c_str(), mode.c_str());
  std::printf("| op | accesses/txn | ns/access | hw commit frac |\n");
  std::printf("|---|---:|---:|---:|\n");
  for (const Point& p : pts)
    std::printf("| %s | %lld | %.1f | %.3f |\n", p.op.c_str(), p.n, p.ns_per_op,
                p.hw_commit_frac);
  return 0;
}

// ---- recovery markdown rendering (--recovery) ----------------------------

struct RecoveryCell {
  std::string tm;
  long long pool_words = 0, history_txs = 0, workers = 0, checkpoint = 0;
  double ms = 0;
};

/// Renders a bench_regress BENCH_recovery.json (one cell object per line)
/// as two markdown tables: recovery time against history length with
/// checkpointing off vs on (the bounded-recovery claim — the "on" row goes
/// flat once history outgrows the checkpoint interval), and recovery time
/// against replay worker count with the parallel speedup over serial.
int render_recovery_markdown(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_report --recovery: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<RecoveryCell> cells;
  std::string line, mode = "?";
  while (std::getline(f, line)) {
    const auto mpos = line.find("\"mode\": \"");
    if (mpos != std::string::npos) {
      const auto start = mpos + 9;
      mode = line.substr(start, line.find('"', start) - start);
    }
    const auto str_field = [&line](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\": \"";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return {};
      const auto start = pos + needle.size();
      const auto end = line.find('"', start);
      return end == std::string::npos ? std::string{} : line.substr(start, end - start);
    };
    const auto num_field = [&line](const char* key) -> double {
      const std::string needle = std::string("\"") + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return -1;
      return std::strtod(line.c_str() + pos + needle.size(), nullptr);
    };
    RecoveryCell c;
    c.tm = str_field("tm");
    c.ms = num_field("ms");
    if (c.tm.empty() || c.ms < 0) continue;
    c.pool_words = static_cast<long long>(num_field("pool_words"));
    c.history_txs = static_cast<long long>(num_field("history_txs"));
    c.workers = static_cast<long long>(num_field("workers"));
    c.checkpoint = static_cast<long long>(num_field("checkpoint"));
    cells.push_back(std::move(c));
  }
  if (cells.empty()) {
    std::fprintf(stderr, "bench_report --recovery: no cells in %s\n", path.c_str());
    return 1;
  }

  std::vector<std::string> tms;
  for (const RecoveryCell& c : cells) {
    bool known = false;
    for (const std::string& t : tms) known |= t == c.tm;
    if (!known) tms.push_back(c.tm);
  }
  const auto sorted_values = [&cells](const auto& pick) {
    std::vector<long long> vals;
    for (const RecoveryCell& c : cells) {
      const long long v = pick(c);
      if (v < 0) continue;
      bool known = false;
      for (const long long k : vals) known |= k == v;
      if (!known) vals.push_back(v);
    }
    for (std::size_t i = 0; i + 1 < vals.size(); ++i)
      for (std::size_t j = i + 1; j < vals.size(); ++j)
        if (vals[j] < vals[i]) std::swap(vals[i], vals[j]);
    return vals;
  };

  std::printf("# Recovery time (%s, %s mode)\n", path.c_str(), mode.c_str());

  // Table 1: history sweep at one worker. Checkpointing bounds recovery by
  // the delta since the last checkpoint, so its row stays flat as history
  // grows; the no-checkpoint row tracks total history.
  const auto hists = sorted_values([](const RecoveryCell& c) {
    return c.workers == 1 ? c.history_txs : -1;
  });
  std::printf("\n## vs history length (1 worker)\n\n| tm | checkpoint |");
  for (const long long h : hists) std::printf(" %lld txs |", h);
  std::printf("\n|---|---|");
  for (std::size_t i = 0; i < hists.size(); ++i) std::printf("---:|");
  std::printf("\n");
  for (const std::string& tm : tms) {
    for (const long long ck : {0, 1}) {
      bool any = false;
      std::string row = "| " + tm + " | " + (ck != 0 ? "on" : "off") + " |";
      for (const long long h : hists) {
        double ms = -1;
        for (const RecoveryCell& c : cells)
          if (c.tm == tm && c.checkpoint == ck && c.workers == 1 && c.history_txs == h) {
            ms = c.ms;
            break;
          }
        char buf[48];
        if (ms < 0) {
          std::snprintf(buf, sizeof buf, " – |");
        } else {
          std::snprintf(buf, sizeof buf, " %.2f ms |", ms);
          any = true;
        }
        row += buf;
      }
      if (any) std::printf("%s\n", row.c_str());
    }
  }

  // Table 2: worker sweep on the no-checkpoint (largest-recovery) cells,
  // with the parallel speedup of the widest worker count over serial.
  const auto workers = sorted_values([](const RecoveryCell& c) {
    return c.checkpoint == 0 ? c.workers : -1;
  });
  const auto pools = sorted_values([](const RecoveryCell& c) {
    return c.checkpoint == 0 && c.workers > 1 ? c.pool_words : -1;
  });
  if (workers.size() > 1 && !pools.empty()) {
    std::printf("\n## vs replay workers (checkpoint off)\n\n| tm | pool words |");
    for (const long long w : workers) std::printf(" w=%lld |", w);
    std::printf(" speedup |\n|---|---:|");
    for (std::size_t i = 0; i < workers.size(); ++i) std::printf("---:|");
    std::printf("---:|\n");
    for (const std::string& tm : tms) {
      for (const long long pool : pools) {
        double serial = -1, widest = -1;
        std::string row = "| " + tm + " | ";
        char buf[48];
        std::snprintf(buf, sizeof buf, "%lld |", pool);
        row += buf;
        bool any = false;
        for (const long long w : workers) {
          double ms = -1;
          for (const RecoveryCell& c : cells)
            if (c.tm == tm && c.checkpoint == 0 && c.pool_words == pool && c.workers == w &&
                c.ms > 0) {
              ms = c.ms;
              break;
            }
          if (ms < 0) {
            std::snprintf(buf, sizeof buf, " – |");
          } else {
            std::snprintf(buf, sizeof buf, " %.2f ms |", ms);
            any = true;
            if (w == 1) serial = ms;
            widest = ms;
          }
          row += buf;
        }
        if (!any) continue;
        if (serial > 0 && widest > 0)
          std::snprintf(buf, sizeof buf, " %.2fx |", serial / widest);
        else
          std::snprintf(buf, sizeof buf, " – |");
        std::printf("%s%s\n", row.c_str(), buf);
      }
    }
  }
  return 0;
}

// ---- contention heatmap rendering (--contention) -------------------------

struct ContentionStripeLine {
  long long stripe = 0, stalls = 0, stall_ticks = 0, cas_failures = 0, aborts = 0, score = 0;
};

struct ContentionCell {
  std::string structure, tm, dist;
  long long read_pct = 0, stripes = 0;
  long long stalls = 0, stall_ticks = 0, cas_failures = 0, aborts = 0;
  std::vector<ContentionStripeLine> top;
};

/// Line-oriented parse of the contention sidecar. The top-K array repeats
/// keys per entry, so it is scanned object by object instead of by a
/// whole-line field lookup.
std::vector<ContentionCell> parse_contention(std::ifstream& f) {
  std::vector<ContentionCell> cells;
  std::string line;
  while (std::getline(f, line)) {
    const auto str_field = [&line](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\": \"";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return {};
      const auto start = pos + needle.size();
      const auto end = line.find('"', start);
      return end == std::string::npos ? std::string{} : line.substr(start, end - start);
    };
    const auto top_pos = line.find("\"top\": [");
    const std::string head = top_pos == std::string::npos ? line : line.substr(0, top_pos);
    const auto num_field = [&head](const char* key) -> long long {
      const std::string needle = std::string("\"") + key + "\": ";
      const auto pos = head.find(needle);
      if (pos == std::string::npos) return 0;
      return std::atoll(head.c_str() + pos + needle.size());
    };
    ContentionCell c;
    c.structure = str_field("structure");
    c.tm = str_field("tm");
    c.dist = str_field("dist");
    if (c.structure.empty() || c.tm.empty() || top_pos == std::string::npos) continue;
    c.read_pct = num_field("read_pct");
    c.stripes = num_field("stripes");
    c.stalls = num_field("stalls");
    c.stall_ticks = num_field("stall_ticks");
    c.cas_failures = num_field("cas_failures");
    c.aborts = num_field("aborts");
    std::size_t pos = top_pos + 8;
    while (true) {
      const auto open = line.find('{', pos);
      if (open == std::string::npos) break;
      const auto close = line.find('}', open);
      if (close == std::string::npos) break;
      const std::string obj = line.substr(open, close - open + 1);
      const auto obj_field = [&obj](const char* key) -> long long {
        const std::string needle = std::string("\"") + key + "\": ";
        const auto p = obj.find(needle);
        return p == std::string::npos ? 0 : std::atoll(obj.c_str() + p + needle.size());
      };
      ContentionStripeLine s;
      s.stripe = obj_field("stripe");
      s.stalls = obj_field("stalls");
      s.stall_ticks = obj_field("stall_ticks");
      s.cas_failures = obj_field("cas_failures");
      s.aborts = obj_field("aborts");
      s.score = obj_field("score");
      c.top.push_back(s);
      pos = close + 1;
    }
    cells.push_back(std::move(c));
  }
  return cells;
}

/// Renders a bench_regress contention sidecar (BENCH_contention.json) as
/// the lock-contention heatmap: per structure a totals table over every
/// workload x TM cell, then per structure the hottest stripes of the most
/// abort-heavy cell per TM with a bar scaled to the group's peak score —
/// where in the lock space the workload is actually fighting.
int render_contention_markdown(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_report --contention: cannot open %s\n", path.c_str());
    return 1;
  }
  const std::vector<ContentionCell> cells = parse_contention(f);
  if (cells.empty()) {
    std::fprintf(stderr, "bench_report --contention: no cells in %s\n", path.c_str());
    return 1;
  }

  std::printf("# Lock-contention heatmap (%s)\n", path.c_str());
  std::printf("\nFailure-path tallies only (stalls, CAS losses, conflict aborts) — an empty\n"
              "table row means the cell ran contention-free, not that tracking was off.\n");
  for (const char* st : {"abtree", "hashmap"}) {
    bool any = false;
    for (const ContentionCell& c : cells) any |= c.structure == st;
    if (!any) continue;
    std::printf("\n## %s — totals\n\n", st);
    std::printf("| workload | tm | stripes | stalls | stall ticks | cas failures | aborts |\n");
    std::printf("|---|---|---:|---:|---:|---:|---:|\n");
    for (const ContentionCell& c : cells) {
      if (c.structure != st) continue;
      std::printf("| %s | %s | %lld | %lld | %lld | %lld | %lld |\n",
                  wl_label(c.read_pct, c.dist).c_str(), c.tm.c_str(), c.stripes,
                  c.stalls, c.stall_ticks, c.cas_failures, c.aborts);
    }

    // Hot stripes: per TM, the cell with the most attributed aborts (the
    // workload actually fighting), its top stripes bar-scaled to the
    // structure-wide peak score so bars compare across TMs.
    std::vector<const ContentionCell*> hottest;
    for (const ContentionCell& c : cells) {
      if (c.structure != st || c.top.empty()) continue;
      bool found = false;
      for (const ContentionCell*& h : hottest) {
        if (h->tm != c.tm) continue;
        found = true;
        if (c.aborts > h->aborts) h = &c;
      }
      if (!found) hottest.push_back(&c);
    }
    long long peak = 0;
    for (const ContentionCell* h : hottest)
      for (const ContentionStripeLine& s : h->top) peak = std::max(peak, s.score);
    if (peak == 0) continue;
    std::printf("\n## %s — hot stripes\n\n", st);
    std::printf("| tm | workload | stripe | heat | score | stalls | cas | aborts |\n");
    std::printf("|---|---|---:|:---|---:|---:|---:|---:|\n");
    for (const ContentionCell* h : hottest) {
      std::size_t shown = 0;
      for (const ContentionStripeLine& s : h->top) {
        if (shown++ >= 8) break;
        const int bars = static_cast<int>((s.score * 20 + peak - 1) / peak);
        std::string bar;
        for (int b = 0; b < bars; ++b) bar += "█";
        std::printf("| %s | %s | %lld | %s | %lld | %lld | %lld | %lld |\n", h->tm.c_str(),
                    wl_label(h->read_pct, h->dist).c_str(), s.stripe, bar.c_str(),
                    s.score, s.stalls, s.cas_failures, s.aborts);
      }
    }
  }
  return 0;
}

// ---- Trinity-gap markdown rendering (--gap) ------------------------------

struct GapCell {
  std::string structure, tm, dist;
  long long read_pct = 0;
  double ops = 0;
  /// Negative when the report doesn't carry the field (e.g. ro-path).
  double fences_per_op = -1;
};

/// Renders any grid-shaped report (one cell object per line carrying
/// structure / read_pct / tm / ops_per_sec — the main grid and the ro-path
/// report both qualify) as a per-cell ratio table against Trinity, the
/// paper's primary competitor. A geomean row summarizes each column; cells
/// at or above 1.00 are where NV-HALT meets the competitiveness bar.
int render_gap_markdown(const std::string& path) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_report --gap: cannot open %s\n", path.c_str());
    return 1;
  }
  std::vector<GapCell> cells;
  std::string line;
  while (std::getline(f, line)) {
    const auto str_field = [&line](const char* key) -> std::string {
      const std::string needle = std::string("\"") + key + "\": \"";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return {};
      const auto start = pos + needle.size();
      const auto end = line.find('"', start);
      return end == std::string::npos ? std::string{} : line.substr(start, end - start);
    };
    const auto num_field = [&line](const char* key) -> double {
      const std::string needle = std::string("\"") + key + "\": ";
      const auto pos = line.find(needle);
      if (pos == std::string::npos) return -1;
      return std::strtod(line.c_str() + pos + needle.size(), nullptr);
    };
    GapCell c;
    c.structure = str_field("structure");
    c.tm = str_field("tm");
    c.dist = str_field("dist");
    c.ops = num_field("ops_per_sec");
    if (c.structure.empty() || c.tm.empty() || c.ops < 0) continue;
    c.read_pct = static_cast<long long>(num_field("read_pct"));
    c.fences_per_op = num_field("fences_per_op");
    cells.push_back(std::move(c));
  }
  if (cells.empty()) {
    std::fprintf(stderr, "bench_report --gap: no grid cells in %s\n", path.c_str());
    return 1;
  }

  // Column order: every TM present in the file except the Trinity divisor,
  // in first-appearance order.
  std::vector<std::string> tms;
  for (const GapCell& c : cells) {
    if (c.tm == "Trinity") continue;
    bool known = false;
    for (const std::string& t : tms) known |= t == c.tm;
    if (!known) tms.push_back(c.tm);
  }
  const auto find_cell = [&cells](const std::string& st, long long pct, const std::string& dist,
                                  const std::string& tm) -> const GapCell* {
    for (const GapCell& c : cells)
      if (c.structure == st && c.read_pct == pct && c.dist == dist && c.tm == tm) return &c;
    return nullptr;
  };

  std::printf("# Throughput vs Trinity (%s)\n\n", path.c_str());
  std::printf("Each cell is ops_per_sec(TM) / ops_per_sec(Trinity) on the same workload.\n\n");
  std::printf("| structure | workload |");
  for (const std::string& t : tms) std::printf(" %s |", t.c_str());
  std::printf("\n|---|---|");
  for (std::size_t i = 0; i < tms.size(); ++i) std::printf("---:|");
  std::printf("\n");

  struct Workload {
    long long pct;
    std::string dist;
  };
  const auto workloads_for = [&cells](const char* st) {
    // Row order: unique (read_pct, dist) pairs in file order for this
    // structure — the Zipf-skewed 50ro column is its own row.
    std::vector<Workload> wls;
    for (const GapCell& c : cells) {
      if (c.structure != st) continue;
      bool known = false;
      for (const Workload& w : wls) known |= w.pct == c.read_pct && w.dist == c.dist;
      if (!known) wls.push_back({c.read_pct, c.dist});
    }
    return wls;
  };

  std::vector<double> log_sum(tms.size(), 0.0);
  std::vector<std::size_t> log_n(tms.size(), 0);
  for (const char* st : {"abtree", "hashmap"}) {
    for (const Workload& wl : workloads_for(st)) {
      const GapCell* trinity = find_cell(st, wl.pct, wl.dist, "Trinity");
      if (trinity == nullptr || trinity->ops <= 0) continue;
      std::printf("| %s | %s |", st, wl_label(wl.pct, wl.dist).c_str());
      for (std::size_t i = 0; i < tms.size(); ++i) {
        const GapCell* c = find_cell(st, wl.pct, wl.dist, tms[i]);
        if (c == nullptr) {
          std::printf(" – |");
          continue;
        }
        const double ratio = c->ops / trinity->ops;
        log_sum[i] += std::log(ratio);
        log_n[i]++;
        std::printf(" %.2fx |", ratio);
      }
      std::printf("\n");
    }
  }
  std::printf("| **geomean** | |");
  for (std::size_t i = 0; i < tms.size(); ++i) {
    if (log_n[i] == 0)
      std::printf(" – |");
    else
      std::printf(" **%.2fx** |", std::exp(log_sum[i] / static_cast<double>(log_n[i])));
  }
  std::printf("\n");

  // Update-heavy close-up: the cells where commits actually pay for
  // durability (50% reads and below). Next to the Trinity ratio each TM
  // shows its fences_per_op — the dominant persistence cost of a commit —
  // so a throughput win (or loss) comes with its fence story.
  bool any_update_heavy = false;
  for (const GapCell& c : cells) any_update_heavy |= c.read_pct <= 50 && c.fences_per_op >= 0;
  if (any_update_heavy) {
    std::printf("\n## Update-heavy cells: durability cost\n\n");
    std::printf("fences/op is per-TM; the ratio column stays ops(TM)/ops(Trinity).\n\n");
    std::printf("| structure | workload | tm | vs Trinity | fences/op | Trinity fences/op |\n");
    std::printf("|---|---|---|---:|---:|---:|\n");
    std::vector<double> uh_log_sum(tms.size(), 0.0);
    std::vector<std::size_t> uh_log_n(tms.size(), 0);
    for (const char* st : {"abtree", "hashmap"}) {
      for (const Workload& wl : workloads_for(st)) {
        if (wl.pct > 50) continue;
        const GapCell* trinity = find_cell(st, wl.pct, wl.dist, "Trinity");
        if (trinity == nullptr || trinity->ops <= 0) continue;
        for (std::size_t i = 0; i < tms.size(); ++i) {
          const GapCell* c = find_cell(st, wl.pct, wl.dist, tms[i]);
          if (c == nullptr) continue;
          const double ratio = c->ops / trinity->ops;
          uh_log_sum[i] += std::log(ratio);
          uh_log_n[i]++;
          std::printf("| %s | %s | %s | %.2fx |", st, wl_label(wl.pct, wl.dist).c_str(),
                      tms[i].c_str(), ratio);
          if (c->fences_per_op >= 0)
            std::printf(" %.3f |", c->fences_per_op);
          else
            std::printf(" – |");
          if (trinity->fences_per_op >= 0)
            std::printf(" %.3f |\n", trinity->fences_per_op);
          else
            std::printf(" – |\n");
        }
      }
    }
    for (std::size_t i = 0; i < tms.size(); ++i) {
      if (uh_log_n[i] == 0) continue;
      std::printf("| **geomean** | | %s | **%.2fx** | | |\n", tms[i].c_str(),
                  std::exp(uh_log_sum[i] / static_cast<double>(uh_log_n[i])));
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--taxonomy") == 0 && i + 1 < argc)
      return render_taxonomy_markdown(argv[i + 1]);
    if (std::strcmp(argv[i], "--hw-hotpath") == 0 && i + 1 < argc)
      return render_hw_hotpath_markdown(argv[i + 1]);
    if (std::strcmp(argv[i], "--gap") == 0 && i + 1 < argc)
      return render_gap_markdown(argv[i + 1]);
    if (std::strcmp(argv[i], "--recovery") == 0 && i + 1 < argc)
      return render_recovery_markdown(argv[i + 1]);
    if (std::strcmp(argv[i], "--contention") == 0 && i + 1 < argc)
      return render_contention_markdown(argv[i + 1]);
    std::fprintf(stderr,
                 "usage: bench_report [--taxonomy PATH] [--hw-hotpath PATH] [--gap PATH] "
                 "[--recovery PATH] [--contention PATH]\n");
    return 2;
  }
  const BenchScale scale = read_scale_from_env();
  std::printf("NV-HALT evaluation report (simulated HTM + simulated NVM; see EXPERIMENTS.md\n"
              "for the distortion analysis — shapes, not absolute numbers, are meaningful)\n");
  print_fig8(Structure::kAbTree, "row 1: (a,b)-tree", scale);
  print_fig8(Structure::kHashMap, "row 2: hashmap", scale);
  print_fig9(scale);
  std::printf("\nFor Fig. 6 (progress pathology) run build/bench/bench_fig6_livelock;\n"
              "for abort-pressure sensitivity run build/bench/bench_abort_sensitivity.\n");
  return 0;
}
