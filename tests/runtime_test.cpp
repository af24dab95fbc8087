// Unit tests for the shared TM runtime layer: the unified retry loop driven
// through a scripted Env, and PerThread stats aggregation.
#include <gtest/gtest.h>

#include <vector>

#include "runtime/per_thread.hpp"
#include "runtime/retry_policy.hpp"
#include "util/rng.hpp"

namespace nvhalt::runtime {
namespace {

// ------------------------------------------------------------- retry loop

/// Scripted Env: plays back fixed sequences of hardware and software
/// attempt outcomes and records what the loop asked of it.
struct ScriptedEnv {
  std::vector<AttemptStatus> hw;
  std::vector<AttemptStatus> sw;
  int hw_calls = 0;
  int sw_calls = 0;
  int waits = 0;

  AttemptStatus attempt_hw() { return hw.at(static_cast<std::size_t>(hw_calls++)); }
  AttemptStatus attempt_sw() { return sw.at(static_cast<std::size_t>(sw_calls++)); }
  void before_hw_attempt() { ++waits; }
  void crash_point() {}
};

struct LoopFixture {
  TxThreadState ts;
  bool run(const PathPolicy& p, ScriptedEnv& env) {
    return run_retry_loop(p, /*tid=*/0, ts, env);
  }
};

TEST(RunRetryLoop, HardwareCommitShortCircuits) {
  LoopFixture f;
  PathPolicy p;
  p.htm_attempts = 4;
  ScriptedEnv env;
  env.hw = {AttemptStatus::kAborted, AttemptStatus::kCommitted};
  EXPECT_TRUE(f.run(p, env));
  EXPECT_EQ(env.hw_calls, 2);
  EXPECT_EQ(env.sw_calls, 0);
  EXPECT_EQ(env.waits, 2);  // before_hw_attempt precedes every attempt
  EXPECT_EQ(f.ts.stats.fallbacks, 0u);
}

TEST(RunRetryLoop, ExhaustedBudgetFallsBackAndCountsOnce) {
  LoopFixture f;
  PathPolicy p;
  p.htm_attempts = 3;
  ScriptedEnv env;
  env.hw = {AttemptStatus::kAborted, AttemptStatus::kAborted, AttemptStatus::kAborted};
  env.sw = {AttemptStatus::kAborted, AttemptStatus::kCommitted};
  EXPECT_TRUE(f.run(p, env));
  EXPECT_EQ(env.hw_calls, 3);
  EXPECT_EQ(env.sw_calls, 2);
  EXPECT_EQ(f.ts.stats.fallbacks, 1u);
}

TEST(RunRetryLoop, SoftwareOnlyPolicyNeverCountsFallback) {
  LoopFixture f;
  PathPolicy p;  // htm_attempts = 0: Trinity-style pure software
  ScriptedEnv env;
  env.sw = {AttemptStatus::kCommitted};
  EXPECT_TRUE(f.run(p, env));
  EXPECT_EQ(env.hw_calls, 0);
  EXPECT_EQ(env.waits, 0);
  EXPECT_EQ(f.ts.stats.fallbacks, 0u);
}

TEST(RunRetryLoop, UserAbortReturnsFalseFromEitherPath) {
  {
    LoopFixture f;
    PathPolicy p;
    p.htm_attempts = 2;
    ScriptedEnv env;
    env.hw = {AttemptStatus::kUserAborted};
    EXPECT_FALSE(f.run(p, env));
    EXPECT_EQ(env.sw_calls, 0);
  }
  {
    LoopFixture f;
    PathPolicy p;
    ScriptedEnv env;
    // A software conflict abort retries; only the voluntary abort gives up.
    env.sw = {AttemptStatus::kAborted, AttemptStatus::kUserAborted};
    EXPECT_FALSE(f.run(p, env));
    EXPECT_EQ(env.sw_calls, 2);
  }
}

TEST(RunRetryLoop, MaxSwRetriesBoundsTheSoftwarePath) {
  LoopFixture f;
  PathPolicy p;
  p.max_sw_retries = 2;
  ScriptedEnv env;
  env.sw = std::vector<AttemptStatus>(8, AttemptStatus::kAborted);
  EXPECT_FALSE(f.run(p, env));
  // Initial attempt + max_sw_retries retries.
  EXPECT_EQ(env.sw_calls, 3);
}

// --------------------------------------------------------------- per-thread

TEST(PerThread, AggregateAndResetCoverAllSlots) {
  struct Ctx : TxThreadState {};
  PerThread<Ctx> slots(4);
  for (int t = 0; t < slots.size(); ++t) {
    slots[t].stats.commits = static_cast<std::uint64_t>(t + 1);
    slots[t].stats.hw_aborts = 2;
  }
  const TmStats agg = aggregate_thread_stats(slots);
  EXPECT_EQ(agg.commits, 1u + 2u + 3u + 4u);
  EXPECT_EQ(agg.hw_aborts, 8u);

  reset_thread_stats(slots);
  EXPECT_EQ(aggregate_thread_stats(slots).commits, 0u);
  EXPECT_EQ(aggregate_thread_stats(slots).hw_aborts, 0u);
}

}  // namespace
}  // namespace nvhalt::runtime
