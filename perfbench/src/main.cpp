// perfbench: the repo benchmark. Drives NV-HALT (TmKind::kNvHalt) from two
// pinned closed-loop clients on one of three workloads, checks every
// result, and prints every metric with its unit. See ../README.md.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--out-dir DIR] [--source-id ID]
//   perfbench --self-test
//
// A run: set up (pool + structure + prefill) kSetups times and keep the
// last; warm up on the head of the op stream; time the next slice of the
// stream (with --trace 1 the timed window alternates untraced quarters,
// which give the layer counts, with traced quarters, which give the span
// times); then kRestartCycles times run a fixed-count burst of the
// workload's ops, crash at that quiescent point, recover, re-attach and
// verify. The last stdout line is one JSON object with every metric;
// everything before it is human-readable.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/tm_factory.hpp"
#include "checker.hpp"
#include "core/nvhalt_tm.hpp"
#include "host.hpp"
#include "latency.hpp"
#include "locks/contention.hpp"
#include "pmem/checkpoint.hpp"
#include "structures/tm_abtree.hpp"
#include "structures/tm_hashmap.hpp"
#include "trace.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

using nvhalt::Tx;
using nvhalt::TxMode;
using nvhalt::word_t;

constexpr int kClients = 2;
// Clients stay off CPUs 0-1, which take the coordinator, interrupts and
// the rest of the host.
constexpr int kClientCpu[kClients] = {2, 3};
constexpr int kSetups = 3;
constexpr int kRestartCycles = 5;
constexpr double kWarmupS = 1.0;
// Per-client op rate the stream reservation is sized for (about 3x the
// fastest workload on a 4-vCPU Xeon host).
constexpr double kMaxOpsPerSecond = 4e6;
// Traced phase: every scan and batch is kept, one in kSampleStride
// lookups and updates.
constexpr std::uint64_t kSampleStride = 32;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 20;  // spans per client
constexpr int kHashMapRoot = 0;
constexpr int kTreeRoot = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir = ".bench_build/perfbench";
  std::string source_id = "unknown";
  bool self_test = false;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR] [--source-id ID]\n       perfbench --self-test\n",
               why);
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(v);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else if (flag == "--source-id") {
      a.source_id = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!a.self_test) {
    if (!have_workload) usage("--workload is required");
    if (!(a.seconds > 0 && a.seconds <= 120)) usage("--seconds must be in (0, 120]");
  }
  return a;
}

nvhalt::RunnerConfig make_config(const WorkloadSpec& w, std::uint64_t seed) {
  nvhalt::RunnerConfig cfg;  // library defaults unless stated below
  cfg.kind = nvhalt::TmKind::kNvHalt;
  // Pool capacity sized to the structure, as bench/bench_common.cpp does.
  const std::size_t data_words = w.tree ? std::size_t{w.keys} * 10 : std::size_t{w.keys} * 8;
  std::size_t words = std::size_t{1} << 16;
  while (words < data_words + (std::size_t{1} << 16)) words <<= 1;
  cfg.pmem.capacity_words = words;
  cfg.pmem.raw_words = nvhalt::TxAllocator::metadata_words(words) +
                       nvhalt::CheckpointManager::metadata_words(words) + (std::size_t{1} << 16);
  // Optane-shaped NVM model. group_commit, wc_block_lines, eADR and
  // store-order tracking stay at the library defaults (off, 1, off, off).
  cfg.pmem.flush_latency_ns = 150;
  cfg.pmem.fence_latency_ns = 80;
  cfg.pmem.nvm_store_latency_ns = 50;
  cfg.htm.seed = seed;
  cfg.nvhalt.checkpoint = w.checkpoint;
  return cfg;
}

// ---- The system under test -------------------------------------------

struct System {
  std::unique_ptr<nvhalt::TmRunner> runner;
  std::optional<nvhalt::TmHashMap> map;
  std::optional<nvhalt::TmAbTree> tree;

  nvhalt::TransactionalMemory& tm() { return runner->tm(); }
  nvhalt::PmemPool& pool() { return runner->pool(); }
  void reset() {
    map.reset();
    tree.reset();
    runner.reset();
  }
};

/// Library counters read at one quiescent point from each layer's public
/// stats; per-layer counts are differences of two snapshots.
enum Ctr : std::size_t {
  kCommits, kHwCommits, kSwCommits, kRoCommits, kFallbacks, kRoAborts,    // core
  kHtmBegins, kHtmCommits, kHtmConflicts, kHtmCapacity,                   // htm
  kLockStalls, kLockStallTicks, kLockCasFailures, kLockAborts,             // locks
  kFlushes, kFences, kDedup, kCkpts, kCkptMarks, kCkptMarkFences, kCkptRetired,  // pmem
  kAllocs, kFrees, kRetired, kReclaimed,                                   // alloc
  kNumCtrs
};
struct Counters {
  std::array<std::uint64_t, kNumCtrs> v{};
  std::array<std::uint64_t, nvhalt::telemetry::PowHistogram::kBuckets> fence_lines{};
  std::uint64_t limbo = 0;
};

Counters snapshot(System& sys) {
  Counters c;
  auto& v = c.v;
  const nvhalt::TmStats tm = sys.tm().stats();
  v[kCommits] = tm.commits;
  v[kHwCommits] = tm.hw_commits;
  v[kSwCommits] = tm.sw_commits;
  v[kRoCommits] = tm.ro_commits;
  v[kFallbacks] = tm.fallbacks;
  v[kRoAborts] = tm.ro_aborts;
  const nvhalt::htm::HtmStats htm = sys.runner->htm().aggregate_stats();
  v[kHtmBegins] = htm.begins;
  v[kHtmCommits] = htm.commits;
  v[kHtmConflicts] = htm.aborts[static_cast<std::size_t>(nvhalt::htm::AbortCause::kConflict)];
  v[kHtmCapacity] = htm.aborts[static_cast<std::size_t>(nvhalt::htm::AbortCause::kCapacity)];
  if (const nvhalt::ContentionTable* ct = sys.tm().contention()) {
    const nvhalt::ContentionTotals lk = ct->totals();
    v[kLockStalls] = lk.stalls;
    v[kLockStallTicks] = lk.stall_ticks;
    v[kLockCasFailures] = lk.cas_failures;
    v[kLockAborts] = lk.aborts;
  }
  v[kFlushes] = sys.pool().flush_count();
  v[kFences] = sys.pool().fence_count();
  v[kDedup] = sys.pool().flush_dedup_count();
  const nvhalt::telemetry::PowHistogram h = sys.pool().fence_flush_hist();
  for (int b = 0; b < nvhalt::telemetry::PowHistogram::kBuckets; ++b)
    c.fence_lines[static_cast<std::size_t>(b)] = h.bucket_count(b);
  if (auto* nv = dynamic_cast<nvhalt::NvHaltTm*>(&sys.tm())) {
    if (nvhalt::CheckpointManager* cm = nv->checkpoint_manager()) {
      const nvhalt::CheckpointStats ck = cm->stats();
      v[kCkpts] = ck.checkpoints;
      v[kCkptMarks] = ck.marks;
      v[kCkptMarkFences] = ck.mark_fences;
      v[kCkptRetired] = ck.lines_retired;
    }
  }
  const nvhalt::AllocStats al = sys.tm().allocator().stats();
  v[kAllocs] = al.allocs;
  v[kFrees] = al.frees;
  v[kRetired] = al.retired;
  v[kReclaimed] = al.reclaimed;
  c.limbo = al.limbo;
  return c;
}

// ---- Clients -----------------------------------------------------------

struct Client {
  Client(int id_, const WorkloadSpec& w, std::uint64_t seed, std::size_t max_ops)
      : id(id_), stream(w, seed, id_, max_ops), ledger(w.keys) {}

  int id;
  OpStream stream;
  std::size_t pos = 0;     // next stream entry
  std::uint64_t seq = 0;   // ops issued over the whole run
  std::uint64_t wraps = 0; // times the stream ran out and restarted
  std::uint64_t since_ckpt = 0;
  Ledger ledger;

  // Measurements, accumulated over the recorded (untraced, timed) phases.
  std::array<LatencyHist, kKinds> latency;
  std::array<std::uint64_t, kKinds> ops{};
  std::array<std::uint64_t, kKinds> attempts{};
  std::vector<double> ckpt_ms;
  std::uint64_t keys_scanned = 0;
  std::uint64_t last_end = 0;
  TraceBuffer trace;  // spans of the traced phases
};

std::uint64_t ops_issued(const std::vector<Client>& clients) {
  std::uint64_t n = 0;
  for (const Client& c : clients) n += c.seq;
  return n;
}

struct Phase {
  bool record = false;  // accumulate latencies, op counts and checkpoint times
  std::uint64_t op_limit = 0;  // > 0: each client stops after this many ops
  std::uint64_t t0 = 0;
  std::atomic<bool> stop{false};
};

/// Runs `fn(client)` on one pinned thread per client, runs `meanwhile` (if
/// given) on the calling thread, then joins the clients. An exception
/// escaping a client is recorded as a failure, never lost.
void on_clients(std::vector<Client>& clients, const std::function<void(Client&)>& fn,
                const std::function<void()>& meanwhile = {}) {
  std::vector<std::jthread> threads;
  threads.reserve(clients.size());
  for (Client& c : clients) {
    threads.emplace_back([&fn, &c] {
      pin_to_cpu(kClientCpu[c.id]);
      try {
        fn(c);
      } catch (const std::exception& e) {
        c.ledger.fail(std::string("client threw: ") + e.what());
      } catch (...) {
        c.ledger.fail("client threw a non-standard exception");
      }
    });
  }
  if (meanwhile) meanwhile();
}

/// One execution of a transaction body; traced runs stamp it as an attempt.
template <bool kTraced, class F>
inline void attempt([[maybe_unused]] OpStamp& op, F&& body) {
  if constexpr (kTraced) {
    AttemptScope scope(op);
    body();
    scope.done();
  } else {
    body();
  }
}

/// One client's closed loop over its stream until `ph.stop`.
template <class S, bool kTraced>
void closed_loop(Client& c, S& s, nvhalt::TransactionalMemory& tm, const WorkloadSpec& w,
                 Phase& ph) {
  constexpr bool kTree = std::is_same_v<S, nvhalt::TmAbTree>;
  std::vector<std::pair<word_t, word_t>> scan_out;
  scan_out.reserve(kScanKeys);
  bool batch_was_insert[kBatchKeys];
  bool batch_ok[kBatchKeys];
  std::uint64_t t = now_ns();
  const std::uint64_t limit = ph.op_limit != 0 ? c.seq + ph.op_limit : UINT64_MAX;
  while (c.seq < limit && !ph.stop.load(std::memory_order_relaxed)) {
    if (c.pos >= c.stream.entries()) {
      c.pos = 0;
      ++c.wraps;
    }
    const std::uint32_t* e = c.stream.data() + c.pos;
    const Code code = code_of(*e);
    const std::uint32_t key = key_of(*e);
    const Kind kind = kind_of(code);
    OpStamp op;
    op.seq = c.seq++;
    op.kind = kind;
    op.client = static_cast<std::uint8_t>(c.id);
    const bool sampled =
        kTraced && (kind == Kind::kScan || kind == Kind::kBatch || op.seq % kSampleStride == 0);
    if (sampled) op.buf = &c.trace;
    unsigned attempts = 0;
    switch (code) {
      case Code::kLookup: {
        bool found = false;
        word_t v = 0;
        tm.run(c.id, TxMode::kReadOnly, [&](Tx& tx) {
          ++attempts;
          attempt<kTraced>(op, [&] { found = s.contains_in(tx, key, &v); });
        });
        c.ledger.lookup(key, found, v);
        c.pos += 1;
        break;
      }
      case Code::kInsert:
      case Code::kRemove: {
        const bool insert = code == Code::kInsert;
        bool ok = false;
        tm.run(c.id, TxMode::kUpdate, [&](Tx& tx) {
          ++attempts;
          attempt<kTraced>(op, [&] {
            ok = insert ? s.insert_in(tx, key, key) : s.remove_in(tx, key);
          });
        });
        c.ledger.update(key, insert, ok);
        c.pos += 1;
        break;
      }
      case Code::kScan: {
        if constexpr (kTree) {
          const word_t hi = key + kScanKeys - 1;
          tm.run(c.id, TxMode::kReadOnly, [&](Tx& tx) {
            ++attempts;
            attempt<kTraced>(op, [&] {
              scan_out.clear();
              s.range_in(tx, key, hi, scan_out);
            });
          });
          c.ledger.scan(key, hi, scan_out);
          if (ph.record) c.keys_scanned += scan_out.size();
        }
        c.pos += 1;
        break;
      }
      case Code::kBatch: {
        const std::uint32_t* keys = e + 1;
        tm.run(c.id, TxMode::kUpdate, [&](Tx& tx) {
          ++attempts;
          attempt<kTraced>(op, [&] {
            for (std::uint32_t i = 0; i < kBatchKeys; ++i) {
              batch_was_insert[i] = !s.contains_in(tx, keys[i], nullptr);
              batch_ok[i] = batch_was_insert[i] ? s.insert_in(tx, keys[i], keys[i])
                                                : s.remove_in(tx, keys[i]);
            }
          });
        });
        for (std::uint32_t i = 0; i < kBatchKeys; ++i) {
          c.ledger.update(keys[i], batch_was_insert[i], batch_ok[i]);
          if (!batch_ok[i])
            c.ledger.fail("batch toggle of key " + std::to_string(keys[i]) + " failed");
        }
        c.pos += 1 + kBatchKeys;
        break;
      }
    }
    std::uint64_t t1 = now_ns();
    if (ph.record) {
      const auto k = static_cast<std::size_t>(kind);
      ++c.ops[k];
      c.attempts[k] += attempts;
      c.latency[k].record(t1 - t);
    }
    if (sampled) c.trace.push({t, t1, op.seq, SpanType::kOp, kind, op.client, 1});
    if (w.ckpt_every != 0 && c.id == 0 && ++c.since_ckpt == w.ckpt_every) {
      c.since_ckpt = 0;
      tm.checkpoint(c.id);
      const std::uint64_t t2 = now_ns();
      if (ph.record) c.ckpt_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
      if (kTraced) c.trace.push({t1, t2, op.seq, SpanType::kCheckpoint, kind, op.client, 1});
      t1 = t2;
    }
    t = t1;
  }
  c.last_end = t;
}

template <class F>
decltype(auto) with_structure(System& sys, F&& f) {
  if (sys.tree) return f(*sys.tree);
  return f(*sys.map);
}

/// Runs every client's closed loop for `seconds` (or, with ph.op_limit, until
/// each client has issued that many ops); the calling thread keeps time.
/// Returns the phase's wall time in seconds.
template <bool kTraced>
double timed_phase(System& sys, std::vector<Client>& clients, const WorkloadSpec& w, Phase& ph,
                   double seconds) {
  std::atomic<std::size_t> ready{0};
  std::atomic<bool> go{false};
  on_clients(
      clients,
      [&](Client& c) {
        ready.fetch_add(1);
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        c.last_end = ph.t0;
        with_structure(sys, [&](auto& s) {
          closed_loop<std::decay_t<decltype(s)>, kTraced>(c, s, sys.tm(), w, ph);
        });
      },
      [&] {
        while (ready.load() < clients.size()) std::this_thread::yield();
        ph.t0 = now_ns();
        go.store(true, std::memory_order_release);
        if (ph.op_limit == 0) {
          std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
          ph.stop.store(true, std::memory_order_relaxed);
        }
      });
  std::uint64_t end = ph.t0;
  for (const Client& c : clients) end = std::max(end, c.last_end);
  return static_cast<double>(end - ph.t0) / 1e9;
}

/// Reads the structure's key set through the TM (both clients, each key
/// checked against the lookup invariant) and, for the tree, validates its
/// shape. Quiescent: no other op may run.
KeySet read_key_set(System& sys, std::vector<Client>& clients, const WorkloadSpec& w) {
  KeySet present(w.keys + 1, 0);
  on_clients(clients, [&](Client& c) {
    with_structure(sys, [&](auto& s) {
      for (std::uint32_t k = 1 + static_cast<std::uint32_t>(c.id); k <= w.keys; k += kClients) {
        word_t v = 0;
        const bool found = s.contains(c.id, k, &v);
        c.ledger.lookup(k, found, v);
        present[k] = found ? 1 : 0;
      }
    });
  });
  std::string why;
  if (sys.tree && !sys.tree->validate_slow(&why)) clients[0].ledger.fail("tree invalid: " + why);
  return present;
}

// ---- Reporting ----------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Latency quantile in microseconds over every client's samples of `kind`.
double latency_us(const std::vector<Client>& clients, Kind kind, double q) {
  LatencyHist all;
  for (const Client& c : clients) all.add(c.latency[static_cast<std::size_t>(kind)]);
  return all.quantile(q) / 1e3;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void add(std::string name, double value, std::string unit) {
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void print_lines() const {
    for (const Metric& m : metrics_)
      std::printf("metric %-40s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json() const {
    std::string out = "{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      out += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
    return out + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

double per(double count, double base, double scale = 1.0) {
  return base > 0 ? scale * count / base : 0.0;
}

/// Upper bound of the power-of-two bucket holding the median fence size.
double fence_lines_p50(
    const std::array<std::uint64_t, nvhalt::telemetry::PowHistogram::kBuckets>& counts) {
  std::uint64_t total = 0;
  for (std::uint64_t n : counts) total += n;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < counts.size() && total != 0; ++i) {
    cum += counts[i];
    if (2 * cum >= total)
      return static_cast<double>(
          nvhalt::telemetry::PowHistogram::bucket_upper_bound(static_cast<int>(i)));
  }
  return 0.0;
}

int run(const Args& args) {
  const WorkloadSpec* wp = find_workload(args.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec& w = *wp;
  const nvhalt::RunnerConfig cfg = make_config(w, args.seed);

  std::string self_test_report;
  const bool self_test_ok = checker_self_test(&self_test_report);
  std::printf("# planted-fault self-test: %s\n%s", self_test_ok ? "every fault reported" : "FAILED",
              self_test_report.c_str());

  std::vector<Client> clients;
  const auto max_ops = static_cast<std::size_t>(kMaxOpsPerSecond * (kWarmupS + args.seconds)) +
                       kRestartCycles * w.burst_ops;
  for (int i = 0; i < kClients; ++i) clients.emplace_back(i, w, args.seed, max_ops);
  Ledger sink(w.keys);
  TraceBuffer coord_trace(4096);
  auto coord_span = [&](SpanType type, std::uint64_t t0, std::uint64_t t1) {
    coord_trace.push({t0, t1, 0, type, Kind::kLookup, kCoordinator, 1});
  };

  // ---- Set-up: pool + structure + prefill, kSetups times; keep the last.
  const std::vector<std::uint32_t> prefill = prefill_keys(w, args.seed);
  KeySet expected(w.keys + 1, 0);
  for (std::uint32_t k : prefill) expected[k] = 1;
  std::vector<double> setup_s, pool_init_s, prefill_s;
  System sys;
  for (int i = 0; i < kSetups; ++i) {
    sys.reset();
    const std::uint64_t t0 = now_ns();
    sys.runner = std::make_unique<nvhalt::TmRunner>(cfg);
    const std::uint64_t t1 = now_ns();
    if (w.tree)
      sys.tree.emplace(sys.tm(), kTreeRoot);
    else
      sys.map.emplace(sys.tm(), w.keys, kHashMapRoot);
    on_clients(clients, [&](Client& c) {
      with_structure(sys, [&](auto& s) {
        for (std::size_t j = static_cast<std::size_t>(c.id); j < prefill.size(); j += kClients)
          if (!s.insert(c.id, prefill[j], prefill[j]))
            c.ledger.fail("prefill insert of key " + std::to_string(prefill[j]) + " failed");
      });
    });
    const std::uint64_t t2 = now_ns();
    setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
    pool_init_s.push_back(static_cast<double>(t1 - t0) / 1e9);
    prefill_s.push_back(static_cast<double>(t2 - t1) / 1e9);
    coord_span(SpanType::kPoolInit, t0, t1);
    coord_span(SpanType::kPrefill, t1, t2);
  }

  const double setup_rss_mb = peak_rss_mb();

  // ---- Warm-up on the head of each stream (not a replay of the timed ops).
  on_clients(clients, [&](Client& c) {
    c.stream.extend(static_cast<std::size_t>(kMaxOpsPerSecond * kWarmupS));
  });
  {
    Phase ph;
    std::vector<std::uint64_t> seq0;
    for (const Client& c : clients) seq0.push_back(c.seq);
    const double wall = timed_phase<false>(sys, clients, w, ph, kWarmupS);
    // Generate the rest of the inputs before timing: the observed rate with
    // 2x headroom for the timed window and the restart bursts.
    on_clients(clients, [&](Client& c) {
      const double rate = static_cast<double>(c.seq - seq0[static_cast<std::size_t>(c.id)]) /
                          std::max(wall, 1e-3);
      c.stream.extend(c.seq + static_cast<std::size_t>(2.0 * rate * args.seconds) +
                      kRestartCycles * w.burst_ops + 1024);
    });
  }

  // ---- Timed window. With --trace 1 it alternates untraced and traced
  // quarters (U T U T), so both halves see the same host conditions: the
  // untraced quarters give every count and latency, the traced ones the
  // spans and the throughput that trace.overhead_pct compares.
  const int slices = args.trace ? 4 : 1;
  std::array<double, kNumCtrs> d{};  // library counter deltas, untraced slices
  std::array<std::uint64_t, nvhalt::telemetry::PowHistogram::kBuckets> fence_lines{};
  std::uint64_t limbo_end = 0;
  double wall = 0, traced_wall = 0;
  std::uint64_t ops = 0, traced_ops = 0, traced_t0 = 0;
  if (args.trace)
    for (Client& c : clients) c.trace = TraceBuffer(kTraceCapacity);
  const CpuTimes cpu0 = read_cpu_times();
  for (int i = 0; i < slices; ++i) {
    const std::uint64_t issued = ops_issued(clients);
    Phase ph;
    if (i % 2 == 1) {
      traced_wall += timed_phase<true>(sys, clients, w, ph, args.seconds / slices);
      traced_ops += ops_issued(clients) - issued;
      if (traced_t0 == 0) traced_t0 = ph.t0;
      continue;
    }
    ph.record = true;
    const Counters before = snapshot(sys);
    wall += timed_phase<false>(sys, clients, w, ph, args.seconds / slices);
    const Counters after = snapshot(sys);
    ops += ops_issued(clients) - issued;
    for (std::size_t k = 0; k < kNumCtrs; ++k) d[k] += static_cast<double>(after.v[k] - before.v[k]);
    for (std::size_t b = 0; b < fence_lines.size(); ++b)
      fence_lines[b] += after.fence_lines[b] - before.fence_lines[b];
    limbo_end = after.limbo;
  }
  const CpuTimes cpu1 = read_cpu_times();

  std::array<std::uint64_t, kKinds> kind_ops{}, kind_attempts{};
  std::uint64_t keys_scanned = 0;
  std::vector<double> ckpt_ms;
  for (const Client& c : clients) {
    for (std::size_t k = 0; k < c.ops.size(); ++k) {
      kind_ops[k] += c.ops[k];
      kind_attempts[k] += c.attempts[k];
    }
    keys_scanned += c.keys_scanned;
    ckpt_ms.insert(ckpt_ms.end(), c.ckpt_ms.begin(), c.ckpt_ms.end());
  }
  const double untraced_tput = static_cast<double>(ops) / wall;

  Report r;
  // End-to-end metrics.
  r.add("throughput_ops_s", untraced_tput, "ops/s");
  for (int k = 0; k < kKinds; ++k) {
    const std::string name = kind_name(Kind(k));
    r.add(name + "_p50_us", latency_us(clients, Kind(k), 0.50), "us");
    r.add(name + "_p99_us", latency_us(clients, Kind(k), 0.99), "us");
  }
  r.add("checkpoint_ms", median(ckpt_ms), "ms");

  // Per-layer counts over the untraced window.
  const double n = static_cast<double>(ops);
  const auto per_op = [&](Ctr c) { return per(d[c], n); };
  const auto per_kop = [&](Ctr c) { return per(d[c], n, 1e3); };
  const auto of_kind = [&](const auto& counts, Kind k) {
    return static_cast<double>(counts[static_cast<std::size_t>(k)]);
  };
  r.add("structures.keys_per_scan",
        per(static_cast<double>(keys_scanned), of_kind(kind_ops, Kind::kScan)), "keys");
  r.add("structures.prefill_s", median(prefill_s), "s");
  for (Kind k : {Kind::kUpdate, Kind::kBatch})
    r.add(std::string("runtime.attempts_per_op.") + kind_name(k),
          per(of_kind(kind_attempts, k), of_kind(kind_ops, k)), "attempts");
  r.add("core.hw_commit_share", per(d[kHwCommits], d[kCommits]), "ratio");
  r.add("core.sw_commit_share", per(d[kSwCommits], d[kCommits]), "ratio");
  r.add("core.ro_commit_share", per(d[kRoCommits], d[kCommits]), "ratio");
  r.add("core.fallbacks_per_kop", per_kop(kFallbacks), "count/kop");
  r.add("core.ro_aborts_per_kop", per_kop(kRoAborts), "count/kop");
  r.add("htm.begins_per_op", per_op(kHtmBegins), "count/op");
  r.add("htm.commit_ratio", per(d[kHtmCommits], d[kHtmBegins]), "ratio");
  r.add("htm.conflict_aborts_per_kop", per_kop(kHtmConflicts), "count/kop");
  r.add("htm.capacity_aborts_per_kop", per_kop(kHtmCapacity), "count/kop");
  r.add("locks.stalls_per_kop", per_kop(kLockStalls), "count/kop");
  r.add("locks.cas_failures_per_kop", per_kop(kLockCasFailures), "count/kop");
  r.add("locks.aborts_per_kop", per_kop(kLockAborts), "count/kop");
  r.add("locks.stall_us_per_kop", per_kop(kLockStallTicks) / tsc_ticks_per_us(), "us/kop");
  r.add("pmem.flushes_per_op", per_op(kFlushes), "count/op");
  r.add("pmem.fences_per_op", per_op(kFences), "count/op");
  r.add("pmem.dedup_per_op", per_op(kDedup), "count/op");
  r.add("pmem.lines_per_fence_p50", fence_lines_p50(fence_lines), "lines");
  r.add("pmem.ckpt_marks_per_op", per_op(kCkptMarks), "count/op");
  r.add("pmem.ckpt_mark_fences_per_op", per_op(kCkptMarkFences), "count/op");
  r.add("pmem.ckpt_lines_retired_per_ckpt", per(d[kCkptRetired], d[kCkpts]), "lines");
  r.add("pmem.pool_init_s", median(pool_init_s), "s");
  r.add("alloc.allocs_per_op", per_op(kAllocs), "count/op");
  r.add("alloc.frees_per_op", per_op(kFrees), "count/op");
  r.add("alloc.reclaim_ratio", per(d[kReclaimed], d[kRetired]), "ratio");
  r.add("alloc.limbo_end", static_cast<double>(limbo_end), "blocks");

  if (args.trace) {
    std::vector<const TraceBuffer*> bufs;
    for (const Client& c : clients) bufs.push_back(&c.trace);
    const TraceSummary ts = reduce_spans(bufs);
    for (Kind k : {Kind::kLookup, Kind::kUpdate, Kind::kScan, Kind::kBatch})
      r.add(std::string("structures.body_us.") + kind_name(k),
            ts.kinds[static_cast<std::size_t>(k)].body_us, "us");
    for (Kind k : {Kind::kUpdate, Kind::kBatch}) {
      const TraceSummary::PerKind& pk = ts.kinds[static_cast<std::size_t>(k)];
      r.add(std::string("runtime.retry_us.") + kind_name(k), pk.retry_us, "us");
      r.add(std::string("core.commit_us.") + kind_name(k), pk.commit_us, "us");
    }
    const double traced_tput = static_cast<double>(traced_ops) / traced_wall;
    r.add("trace.overhead_pct", per(untraced_tput - traced_tput, untraced_tput, 100.0), "%");
    std::printf("# trace: %llu sampled ops, %llu unnested attempts, %llu orphan ops, "
                "%llu spans dropped\n",
                static_cast<unsigned long long>(ts.ops),
                static_cast<unsigned long long>(ts.unnested),
                static_cast<unsigned long long>(ts.orphan_ops),
                static_cast<unsigned long long>(ts.dropped));
    if (ts.unnested != 0 || ts.orphan_ops != 0) sink.fail("trace span tree is inconsistent");
  }

  // ---- Restart cycles. Each starts from a checkpoint (a no-op without
  // checkpointing) and a fixed-count burst of the workload's own ops, so
  // every crash leaves the same amount of work since the last checkpoint;
  // then crash at that quiescent point, recover, re-attach and verify.
  std::vector<Ledger*> ledgers;
  for (Client& c : clients) ledgers.push_back(&c.ledger);
  std::vector<double> recover_ms, recover_flushes, recover_fences;
  for (int cycle = 0; cycle < kRestartCycles; ++cycle) {
    sys.tm().checkpoint(0);
    Phase burst;
    burst.op_limit = w.burst_ops;
    for (Client& c : clients) c.since_ckpt = 0;
    timed_phase<false>(sys, clients, w, burst, 0);
    std::uint64_t t0 = now_ns();
    const KeySet before_crash = read_key_set(sys, clients, w);
    check_conservation(expected, ledgers, before_crash, sink);
    coord_span(SpanType::kVerify, t0, now_ns());

    t0 = now_ns();
    sys.pool().crash(nvhalt::CrashPolicy{0.0, args.seed + static_cast<std::uint64_t>(cycle)});
    std::uint64_t t1 = now_ns();
    coord_span(SpanType::kCrash, t0, t1);
    const std::uint64_t f0 = sys.pool().flush_count(), e0 = sys.pool().fence_count();
    t0 = now_ns();
    sys.tm().recover_data();
    t1 = now_ns();
    coord_span(SpanType::kRecover, t0, t1);
    recover_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    recover_flushes.push_back(static_cast<double>(sys.pool().flush_count() - f0));
    recover_fences.push_back(static_cast<double>(sys.pool().fence_count() - e0));
    if (w.tree)
      sys.tree.emplace(nvhalt::TmAbTree::attach(sys.tm(), kTreeRoot));
    else
      sys.map.emplace(nvhalt::TmHashMap::attach(sys.tm(), kHashMapRoot));
    t0 = now_ns();
    expected = read_key_set(sys, clients, w);
    check_same_set(before_crash, expected, sink);
    coord_span(SpanType::kVerify, t0, now_ns());
  }
  r.add("recovery_ms", median(recover_ms), "ms");
  r.add("core.recover_flushes", median(recover_flushes), "count");
  r.add("core.recover_fences", median(recover_fences), "count");
  r.add("setup_s", median(setup_s), "s");
  // The system's peak footprint: the process peak less the benchmark's own
  // input streams and spans (allocated once, never reallocated), so it
  // does not grow with throughput.
  double own_mb = 0;
  for (const Client& c : clients)
    own_mb += static_cast<double>(c.stream.bytes() + c.trace.bytes()) / (1024.0 * 1024.0);
  r.add("peak_rss_mb", std::max(setup_rss_mb, peak_rss_mb() - own_mb), "MB");

  // ---- Outcome.
  std::uint64_t attempted = 0, failed = sink.violations(), wraps = 0;
  std::string first_failure = sink.first_violation();
  for (const Client& c : clients) {
    attempted += c.seq;
    failed += c.ledger.violations();
    wraps += c.wraps;
    if (first_failure.empty()) first_failure = c.ledger.first_violation();
  }
  const bool correct = failed == 0 && self_test_ok;
  if (!first_failure.empty()) std::printf("# first failure: %s\n", first_failure.c_str());

  if (args.trace) {
    std::error_code ec;
    const std::filesystem::path dir = std::filesystem::path(args.out_dir) / "traces";
    std::filesystem::create_directories(dir, ec);
    const std::string path = (dir / (w.name + std::string(".spans.tsv"))).string();
    std::vector<const TraceBuffer*> bufs = {&coord_trace};
    for (const Client& c : clients) bufs.push_back(&c.trace);
    if (!write_spans(path, bufs, traced_t0))
      std::printf("# could not write %s\n", path.c_str());
    else
      std::printf("# spans written to %s\n", path.c_str());
  }

  std::ostringstream prov;
  prov << "{\"workload\": \"" << w.name << "\", \"seed\": " << args.seed
       << ", \"seconds\": " << num(args.seconds) << ", \"trace\": " << (args.trace ? 1 : 0)
       << ", \"clients\": " << kClients << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"cpu\": \"" << json_escape(cpu_model()) << "\", \"compiler\": \""
       << json_escape(compiler_id()) << "\", \"source\": \"" << json_escape(args.source_id)
       << "\", \"steal_pct\": " << num(steal_pct(cpu0, cpu1))
       << ", \"timed_wall_s\": " << num(wall) << ", \"timed_ops\": " << ops
       << ", \"timed_ops_by_kind\": {\"lookup\": " << kind_ops[0] << ", \"update\": " << kind_ops[1]
       << ", \"scan\": " << kind_ops[2] << ", \"batch\": " << kind_ops[3] << "}"
       << ", \"mean_throughput_ops_s\": " << num(untraced_tput)
       << ", \"checkpoints\": " << ckpt_ms.size() << ", \"stream_wraps\": " << wraps
       << ", \"self_test\": " << (self_test_ok ? "true" : "false") << ", \"first_failure\": \""
       << json_escape(first_failure) << "\"}";
  std::printf("provenance %s\n", prov.str().c_str());
  r.print_lines();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s, "
              "\"provenance\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), r.json().c_str(), prov.str().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parse_args(argc, argv);
  if (args.self_test) {
    std::string report;
    const bool ok = perfbench::checker_self_test(&report);
    std::printf("%s%s\n", report.c_str(), ok ? "self-test passed: every planted fault was reported"
                                              : "self-test FAILED");
    return ok ? 0 : 1;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
