// The single implementation of the transaction retry loop shared by all
// five TMs (NV-HALT, NV-HALT-CL, NV-HALT-SP, Trinity, SPHT).
//
// Brown's HTM-template line of work and Brown & Ravi's concurrency-cost
// analysis both show that fallback-path policy — how many hardware attempts,
// how to back off — is where hybrid TMs win or lose. Before this layer
// existed each TM hand-rolled its own copy of the loop and they had drifted
// (different backoff bounds, a fallback result mistaken for a commit). Now
// the loop lives here once, and each TM supplies only its attempt
// primitives through a small Env adapter plus a PathPolicy it builds once
// from its config at construction.
//
// Loop shape (paper Fig. 1/5/7 attempt ordering, O(1)-abortability):
//   1. at most htm_attempts hardware attempts (the paper's fixed C), with
//      optional backoff between them (SPHT's historical behaviour);
//   2. then software attempts until commit / voluntary abort / the
//      max_sw_retries bound, with bounded randomized exponential backoff
//      between attempts.
#pragma once

#include "core/tm_stats.hpp"
#include "telemetry/telemetry.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace nvhalt::runtime {

/// A TM instance's retry policy, fixed at construction (TmRuntime).
struct PathPolicy {
  /// C in "C-abortable": hardware attempts before falling back; 0 means
  /// software-only (Trinity, or NV-HALT with the fast path disabled).
  int htm_attempts = 0;
  /// Back off between failed hardware attempts (SPHT does; NV-HALT's fixed
  /// attempt burst does not).
  bool backoff_between_hw = false;
  /// Bound on software-path retries; < 0 retries until commit (progressive).
  int max_sw_retries = -1;
};

/// Outcome of one hardware or software attempt.
enum class AttemptStatus { kCommitted, kAborted, kUserAborted };

/// Bounded randomized exponential backoff, one definition for every TM
/// (the seed TMs disagreed by an off-by-one in the draw bound). The spin
/// count for attempt k is drawn uniformly from [0, 1 << min(k, 10)); from
/// the third attempt on the thread also yields, because the host may expose
/// a single CPU.
void backoff(Xoshiro256& rng, int attempt);

/// Runs one transaction through the unified retry loop. `State` is a
/// TxThreadState (runtime/per_thread.hpp); the loop uses its stats and rng.
/// `Env` supplies the TM-specific primitives:
///   AttemptStatus attempt_hw();     // one hardware attempt; on abort the
///                                   // Env must have called
///                                   // State::record_hw_abort(tid, cause)
///   AttemptStatus attempt_sw();     // one software attempt
///   void before_hw_attempt();       // e.g. SPHT waits for the fallback lock
///   void crash_point();             // crash-injection hook (may throw)
///
/// Telemetry: lifecycle events (tx begin, hw attempt, fallback, sw attempt,
/// commits/aborts) are emitted at NVHALT_TELEMETRY >= 1, and per-path
/// commit latency is recorded into tx_latency_hw/sw at the same level; at
/// level 0 all of it compiles out (no timestamps are ever taken).
/// Returns true on commit, false on voluntary abort or retry exhaustion.
template <typename State, typename Env>
bool run_retry_loop(const PathPolicy& pol, int tid, State& ts, Env&& env) {
  namespace tel = nvhalt::telemetry;
  env.crash_point();
  tel::trace1(tel::EventKind::kTxBegin, tid);
  [[maybe_unused]] std::uint64_t t0 = 0;
  if constexpr (tel::kLevel >= 1) t0 = tel::now_ticks();

  for (int i = 0; i < pol.htm_attempts; ++i) {
    env.before_hw_attempt();
    tel::trace1(tel::EventKind::kHwAttempt, tid, static_cast<std::uint64_t>(i));
    switch (env.attempt_hw()) {
      case AttemptStatus::kCommitted:
        tel::trace1(tel::EventKind::kHwCommit, tid);
        if constexpr (tel::kLevel >= 1) ts.stats.tx_latency_hw.record(tel::now_ticks() - t0);
        return true;
      case AttemptStatus::kUserAborted:
        tel::trace1(tel::EventKind::kUserAbort, tid);
        return false;
      case AttemptStatus::kAborted:
        break;
    }
    if (pol.backoff_between_hw) backoff(ts.rng, i + 1);
  }
  if (pol.htm_attempts > 0) {
    ts.stats.fallbacks++;
    tel::trace1(tel::EventKind::kFallback, tid, static_cast<std::uint64_t>(pol.htm_attempts));
  }

  // Software path until commit or voluntary abort (progressive), bounded by
  // max_sw_retries when configured.
  int retries = 0;
  for (;;) {
    tel::trace1(tel::EventKind::kSwAttempt, tid, static_cast<std::uint64_t>(retries));
    switch (env.attempt_sw()) {
      case AttemptStatus::kCommitted:
        tel::trace1(tel::EventKind::kSwCommit, tid, static_cast<std::uint64_t>(retries));
        if constexpr (tel::kLevel >= 1) ts.stats.tx_latency_sw.record(tel::now_ticks() - t0);
        return true;
      case AttemptStatus::kUserAborted:
        tel::trace1(tel::EventKind::kUserAbort, tid);
        return false;
      case AttemptStatus::kAborted:
        tel::trace1(tel::EventKind::kSwAbort, tid);
        break;
    }
    ++retries;
    if (pol.max_sw_retries >= 0 && retries > pol.max_sw_retries) return false;
    backoff(ts.rng, retries);
    env.crash_point();
  }
}

}  // namespace nvhalt::runtime
