// crash_sweep: the CI entry point for the crash-prefix enumeration checker.
//
// Default mode runs the mixed 8-thread workload per TM, journals its
// persistence trace and enumerates every fence boundary (plus seeded
// adversarial write-back subsets) within a wall-clock budget, verifying
// durable-linearizability invariants after recovery from each image. On a
// violation it saves the trace bundle and prints a replayable
// (trace-hash, prefix, subset-seed) triple; reproduce locally with:
//
//   crash_sweep --replay <bundle-file> <hash:prefix:seed>
//
// --mutate runs NV-HALT with a deliberately broken recovery (the first
// undo-record revert is skipped) and *expects* the checker to catch it —
// the CI's self-test that the checker has teeth.
//
// The per-TM time budget (ms) defaults from $NVHALT_CRASH_BUDGET (the CI
// knob: small on pull requests, large on the nightly schedule); 0 means
// unlimited.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "crash_harness.hpp"

namespace {

using namespace nvhalt;
using test::CrashHarnessOptions;
using test::CrashImageVerifier;
using test::CrashTraceBundle;

struct SweepArgs {
  std::vector<TmKind> kinds;
  int txs_per_thread = 12;
  // Delete-heavy list churn on by default: CI sweeps should always cover
  // the allocator's free-intent + epoch-reclamation machinery.
  int list_threads = 2;
  // Checkpoint cadence (0 = off): interleaves checkpoint truncation/
  // compaction with live commits so crash boundaries land inside those
  // windows. The CI recovery-sweep step runs with this enabled.
  int checkpoint_every = 0;
  std::uint64_t subset_seeds = 2;
  std::uint64_t budget_ms = env_u64("NVHALT_CRASH_BUDGET", 20000);
  std::uint64_t workload_seed = 0xC0FFEE;
  std::size_t max_prefixes = 0;
  bool mutate = false;
  std::string save_dir = ".";
  std::string replay_bundle;
  std::string replay_triple;
  std::string trace_out;
  std::string metrics_out;
};

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [options]\n"
               "  --tm all|nvhalt|nvhalt-cl|nvhalt-sp|trinity|spht   (repeatable)\n"
               "  --txs N           transactions per worker thread (default 12)\n"
               "  --list-threads N  delete-heavy list-churn workers driving tx.free\n"
               "                    through intents + epoch limbo (default 2; 0 disables)\n"
               "  --checkpoint-every N  run tm.checkpoint() every N committed transfers on\n"
               "                    worker 0 (default 0 = checkpointing off)\n"
               "  --seeds N         adversarial subset images per fence boundary (default 2)\n"
               "  --budget-ms N     per-TM time budget; 0 = unlimited\n"
               "                    (default $NVHALT_CRASH_BUDGET or 20000)\n"
               "  --max-prefixes N  stride-sample at most N fence boundaries (default all)\n"
               "  --workload-seed N deterministic workload seed\n"
               "  --save-dir DIR    where failing trace bundles are written (default .)\n"
               "  --mutate          run NV-HALT with broken recovery; exit 0 iff caught\n"
               "  --replay FILE TRIPLE   recheck one hash:prefix:seed triple of a saved bundle\n"
               "  --trace-out FILE  dump a raw telemetry trace per TM (FILE gets a .<tm> suffix;\n"
               "                    needs an NVHALT_TELEMETRY>=1 build to be non-empty)\n"
               "  --metrics-out FILE  dump a metrics JSON snapshot per TM (.<tm> suffix,\n"
               "                    plus Prometheus text at FILE.<tm>.prom)\n",
               argv0);
}

bool parse_triple(const std::string& s, CrashTriple* out) {
  const std::size_t c1 = s.find(':');
  const std::size_t c2 = c1 == std::string::npos ? std::string::npos : s.find(':', c1 + 1);
  if (c2 == std::string::npos) return false;
  try {
    out->trace_hash = std::stoull(s.substr(0, c1), nullptr, 16);
    out->prefix = std::stoull(s.substr(c1 + 1, c2 - c1 - 1), nullptr, 10);
    out->subset_seed = std::stoull(s.substr(c2 + 1), nullptr, 10);
  } catch (...) {
    return false;
  }
  return true;
}

bool parse_args(int argc, char** argv, SweepArgs* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tm") {
      const char* v = next();
      if (v == nullptr) return false;
      if (std::strcmp(v, "all") == 0) {
        a->kinds = {TmKind::kNvHalt, TmKind::kNvHaltCl, TmKind::kNvHaltSp, TmKind::kTrinity,
                    TmKind::kSpht};
      } else {
        a->kinds.push_back(tm_kind_from_string(v));
      }
    } else if (arg == "--txs") {
      const char* v = next();
      if (v == nullptr) return false;
      a->txs_per_thread = std::atoi(v);
    } else if (arg == "--list-threads") {
      const char* v = next();
      if (v == nullptr) return false;
      a->list_threads = std::atoi(v);
    } else if (arg == "--checkpoint-every") {
      const char* v = next();
      if (v == nullptr) return false;
      a->checkpoint_every = std::atoi(v);
    } else if (arg == "--seeds") {
      const char* v = next();
      if (v == nullptr) return false;
      a->subset_seeds = std::strtoull(v, nullptr, 10);
    } else if (arg == "--budget-ms") {
      const char* v = next();
      if (v == nullptr) return false;
      a->budget_ms = std::strtoull(v, nullptr, 10);
    } else if (arg == "--max-prefixes") {
      const char* v = next();
      if (v == nullptr) return false;
      a->max_prefixes = std::strtoull(v, nullptr, 10);
    } else if (arg == "--workload-seed") {
      const char* v = next();
      if (v == nullptr) return false;
      a->workload_seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--save-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      a->save_dir = v;
    } else if (arg == "--mutate") {
      a->mutate = true;
    } else if (arg == "--trace-out") {
      const char* v = next();
      if (v == nullptr) return false;
      a->trace_out = v;
    } else if (arg == "--metrics-out") {
      const char* v = next();
      if (v == nullptr) return false;
      a->metrics_out = v;
    } else if (arg == "--replay") {
      const char* f = next();
      const char* t = next();
      if (f == nullptr || t == nullptr) return false;
      a->replay_bundle = f;
      a->replay_triple = t;
    } else {
      usage(argv[0]);
      return false;
    }
  }
  if (a->kinds.empty()) a->kinds = {TmKind::kNvHalt};
  return true;
}

CrashTraceBundle run_workload(const SweepArgs& a, TmKind kind) {
  CrashHarnessOptions opt;
  opt.kind = kind;
  opt.txs_per_thread = a.txs_per_thread;
  opt.list_threads = a.list_threads;
  opt.checkpoint_every = a.checkpoint_every;
  opt.workload_seed = a.workload_seed;
  if (!a.trace_out.empty())
    opt.trace_out = a.trace_out + "." + tm_kind_name(kind);
  if (!a.metrics_out.empty())
    opt.metrics_out = a.metrics_out + "." + tm_kind_name(kind);
  std::printf("[%s] running %d-thread workload (%d txs/thread, seed %llu)...\n",
              tm_kind_name(kind),
              opt.transfer_threads + opt.counter_threads + opt.map_threads + opt.list_threads,
              opt.txs_per_thread, static_cast<unsigned long long>(opt.workload_seed));
  return test::run_crash_workload(opt);
}

CrashEnumOptions enum_options(const SweepArgs& a) {
  CrashEnumOptions eopt;
  eopt.subset_seeds_per_prefix = a.subset_seeds;
  eopt.time_budget_ms = a.budget_ms;
  eopt.max_prefixes = a.max_prefixes;
  return eopt;
}

int report_failure(const SweepArgs& a, TmKind kind, const CrashTraceBundle& tr,
                   const CrashFailure& f) {
  const std::string bundle = a.save_dir + "/crash_failure_" + std::string(tm_kind_name(kind)) +
                             ".bundle";
  test::save_bundle(bundle, tr);
  std::printf("[%s] VIOLATION at triple %s\n", tm_kind_name(kind), f.triple.to_string().c_str());
  std::printf("[%s]   %s\n", tm_kind_name(kind), f.why.c_str());
  std::printf("[%s]   bundle saved to %s — reproduce with:\n", tm_kind_name(kind), bundle.c_str());
  std::printf("[%s]   crash_sweep --replay %s %s\n", tm_kind_name(kind), bundle.c_str(),
              f.triple.to_string().c_str());
  return 1;
}

int run_sweep(const SweepArgs& a) {
  for (const TmKind kind : a.kinds) {
    const CrashTraceBundle tr = run_workload(a, kind);
    CrashEnumerator en(tr.events, enum_options(a));
    CrashImageVerifier verifier(tr);
    const auto failure = en.run(verifier.checker());
    if (failure.has_value()) return report_failure(a, kind, tr, *failure);
    const auto& st = en.stats();
    std::printf("[%s] OK: %zu events, %zu/%zu fence boundaries, %zu images checked%s\n",
                tm_kind_name(kind), tr.events.size(), st.prefixes_checked, en.boundaries().size(),
                st.images_checked, st.budget_exhausted ? " (budget exhausted)" : "");
  }
  return 0;
}

int run_mutate(const SweepArgs& a) {
  const CrashTraceBundle tr = run_workload(a, TmKind::kNvHalt);
  CrashEnumerator en(tr.events, enum_options(a));
  CrashImageVerifier broken(tr, /*recovery_skip_nth_revert=*/0);
  const auto failure = en.run(broken.checker());
  if (!failure.has_value()) {
    std::printf("[mutate] FAILED: broken recovery (skipped first undo revert) was NOT caught\n");
    return 1;
  }
  std::printf("[mutate] OK: broken recovery caught at triple %s\n",
              failure->triple.to_string().c_str());
  std::printf("[mutate]   %s\n", failure->why.c_str());
  return 0;
}

int run_replay(const SweepArgs& a) {
  CrashTriple triple;
  if (!parse_triple(a.replay_triple, &triple)) {
    std::fprintf(stderr, "bad triple '%s' (expected hash:prefix:seed)\n", a.replay_triple.c_str());
    return 2;
  }
  const CrashTraceBundle tr = test::load_bundle(a.replay_bundle);
  std::printf("[replay] bundle %s: %s, %zu events, trace hash %s\n", a.replay_bundle.c_str(),
              tm_kind_name(tr.opt.kind), tr.events.size(),
              CrashTriple{tr.trace_hash, 0, 0}.to_string().c_str());
  CrashEnumerator en(tr.events, CrashEnumOptions{});
  CrashImageVerifier verifier(tr);
  const auto failure = en.replay(triple, verifier.checker());
  if (failure.has_value()) {
    std::printf("[replay] VIOLATION reproduced at %s\n", failure->triple.to_string().c_str());
    std::printf("[replay]   %s\n", failure->why.c_str());
    return 1;
  }
  std::printf("[replay] image at %s recovers consistently\n", triple.to_string().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SweepArgs args;
  if (!parse_args(argc, argv, &args)) return 2;
  try {
    if (!args.replay_bundle.empty()) return run_replay(args);
    if (args.mutate) return run_mutate(args);
    return run_sweep(args);
  } catch (const nvhalt::TmLogicError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
