// Tests for the NV-HALT TM core: both paths, both variants, both lock
// modes, persistence behaviour, retry policy, and the O(1)-abortable
// progress structure.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>

#include "core/nvhalt_tm.hpp"
#include "test_helpers.hpp"

namespace nvhalt {
namespace {

using test::run_threads;
using test::small_config;

class NvHaltVariantTest : public ::testing::TestWithParam<TmKind> {
 protected:
  void SetUp() override { runner_ = std::make_unique<TmRunner>(small_config(GetParam())); }
  TransactionalMemory& tm() { return runner_->tm(); }
  std::unique_ptr<TmRunner> runner_;
};

INSTANTIATE_TEST_SUITE_P(AllNvHalt, NvHaltVariantTest,
                         ::testing::Values(TmKind::kNvHalt, TmKind::kNvHaltCl,
                                           TmKind::kNvHaltSp),
                         test::kind_param_name);

TEST_P(NvHaltVariantTest, ReadWriteRoundTrip) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 2);
  EXPECT_TRUE(tm().run(0, [&](Tx& tx) {
    tx.write(a, 7);
    tx.write(a + 1, 8);
  }));
  tm().run(0, [&](Tx& tx) {
    EXPECT_EQ(tx.read(a), 7u);
    EXPECT_EQ(tx.read(a + 1), 8u);
  });
}

TEST_P(NvHaltVariantTest, ReadOwnWritesWithinTxn) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  tm().run(0, [&](Tx& tx) {
    tx.write(a, 1);
    EXPECT_EQ(tx.read(a), 1u);
    tx.write(a, 2);
    EXPECT_EQ(tx.read(a), 2u);
  });
  tm().run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 2u); });
}

TEST_P(NvHaltVariantTest, VoluntaryAbortDiscardsEverything) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  EXPECT_FALSE(tm().run(0, [&](Tx& tx) {
    tx.write(a, 99);
    tx.abort();
  }));
  tm().run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 0u); });
  EXPECT_EQ(tm().stats().user_aborts, 1u);
}

TEST_P(NvHaltVariantTest, CommittedWriteIsDurableRecord) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  tm().run(0, [&](Tx& tx) { tx.write(a, 41); });
  tm().run(0, [&](Tx& tx) { tx.write(a, 42); });
  // Trinity record: durable image holds the new value; old holds the
  // previous committed value; pver names the writing thread.
  const PRecord r = tm().pool().read_durable_record(a);
  EXPECT_EQ(r.cur, 42u);
  EXPECT_EQ(r.old, 41u);
  EXPECT_EQ(pver_tid(r.pver), 0);
  // The durable persistent version number has moved past the record's.
  EXPECT_GT(tm().pool().load_pver(0), pver_seq(r.pver));
}

TEST_P(NvHaltVariantTest, HwPathUsedWhenAvailable) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  for (int i = 0; i < 20; ++i) tm().run(0, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  const TmStats s = tm().stats();
  EXPECT_EQ(s.commits, 20u);
  EXPECT_GT(s.hw_commits, 0u);  // uncontended transactions stay in hardware
}

TEST_P(NvHaltVariantTest, OnHwPathReportedCorrectly) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  bool saw_hw = false;
  tm().run(0, [&](Tx& tx) {
    saw_hw = tx.on_hw_path();
    tx.write(a, 1);
  });
  EXPECT_TRUE(saw_hw);
}

TEST_P(NvHaltVariantTest, LocksReleasedAfterHwCommit) {
  auto& nv = dynamic_cast<NvHaltTm&>(tm());
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  tm().run(0, [&](Tx& tx) { tx.write(a, 5); });
  const std::uint64_t w = nv.locks().ref(a).s->load();
  EXPECT_FALSE(lockword::is_locked(w));
  // The lock cycled through exactly one acquire + release.
  EXPECT_EQ(lockword::version(w), 2u);
}

TEST_P(NvHaltVariantTest, SwPathWorksWhenHwDisabled) {
  RunnerConfig cfg = small_config(GetParam());
  cfg.nvhalt.htm_attempts = 0;  // pure software mode
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t a = tm.allocator().raw_alloc(0, 1);
  for (int i = 0; i < 10; ++i) tm.run(0, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 10u); });
  const TmStats s = tm.stats();
  EXPECT_EQ(s.hw_commits, 0u);
  EXPECT_EQ(s.sw_commits, 11u);
}

TEST_P(NvHaltVariantTest, SpuriousAbortsFallBackAndStillCommit) {
  RunnerConfig cfg = small_config(GetParam());
  cfg.htm.spurious_abort_prob = 1.0;  // every HW access aborts
  cfg.nvhalt.htm_attempts = 3;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t a = tm.allocator().raw_alloc(0, 1);
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 9); }));
  const TmStats s = tm.stats();
  EXPECT_EQ(s.sw_commits, 1u);   // fell back
  EXPECT_EQ(s.hw_aborts, 3u);    // exactly C attempts (O(1)-abortable)
  EXPECT_EQ(s.fallbacks, 1u);
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 9u); });
}

TEST_P(NvHaltVariantTest, ConcurrentCountersLoseNoUpdates) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 300;
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  run_threads(kThreads, [&](int tid) {
    for (int i = 0; i < kIncrements; ++i)
      tm().run(tid, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  });
  tm().run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), kThreads * kIncrements); });
}

TEST_P(NvHaltVariantTest, DisjointCountersProceedConcurrently) {
  constexpr int kThreads = 4;
  constexpr int kIncrements = 300;
  std::vector<gaddr_t> slots;
  for (int t = 0; t < kThreads; ++t) slots.push_back(tm().allocator().raw_alloc(0, 1));
  run_threads(kThreads, [&](int tid) {
    for (int i = 0; i < kIncrements; ++i)
      tm().run(tid, [&](Tx& tx) { tx.write(slots[tid], tx.read(slots[tid]) + 1); });
  });
  for (int t = 0; t < kThreads; ++t)
    tm().run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(slots[t]), kIncrements); });
}

TEST_P(NvHaltVariantTest, AllocFreeTiedToTxnOutcome) {
  gaddr_t got = kNullAddr;
  EXPECT_FALSE(tm().run(0, [&](Tx& tx) {
    got = tx.alloc(4);
    tx.write(got, 1);
    tx.abort();
  }));
  // The aborted allocation is recycled for the next transaction.
  gaddr_t again = kNullAddr;
  tm().run(0, [&](Tx& tx) { again = tx.alloc(4); });
  EXPECT_EQ(again, got);
}

TEST_P(NvHaltVariantTest, StatsResetWorks) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  tm().run(0, [&](Tx& tx) { tx.write(a, 1); });
  EXPECT_GT(tm().stats().commits, 0u);
  tm().reset_stats();
  EXPECT_EQ(tm().stats().commits, 0u);
}

TEST_P(NvHaltVariantTest, ReadOnlyTxnsCountedAndCheap) {
  const gaddr_t a = tm().allocator().raw_alloc(0, 1);
  tm().run(0, [&](Tx& tx) { tx.write(a, 3); });
  const std::uint64_t fences_before = tm().pool().fence_count();
  for (int i = 0; i < 5; ++i) tm().run(0, [&](Tx& tx) { (void)tx.read(a); });
  // Read-only transactions persist nothing: no fences at all.
  EXPECT_EQ(tm().pool().fence_count(), fences_before);
  EXPECT_EQ(tm().stats().read_only_commits, 5u);
}

// ---- Variant-specific behaviours --------------------------------------

TEST(NvHaltSp, HwAcquireBumpsHVer) {
  TmRunner runner(small_config(TmKind::kNvHaltSp));
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  const std::uint64_t h0 = nv.locks().ref(a).h->load();
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 1); });  // HW path
  EXPECT_EQ(runner.tm().stats().hw_commits, 1u);
  EXPECT_EQ(nv.locks().ref(a).h->load(), h0 + 1);
}

TEST(NvHaltSp, SwCommitDoesNotTouchHVer) {
  RunnerConfig cfg = small_config(TmKind::kNvHaltSp);
  cfg.nvhalt.htm_attempts = 0;
  TmRunner runner(cfg);
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 1); });
  EXPECT_EQ(nv.locks().ref(a).h->load(), 0u);
  // But the global software clock advanced.
  EXPECT_GE(nv.gclock(), 1u);
}

TEST(NvHaltWeak, GClockUntouched) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.nvhalt.htm_attempts = 0;
  TmRunner runner(cfg);
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 1); });
  EXPECT_EQ(nv.gclock(), 0u);
}

TEST(NvHaltCl, NameReflectsColocatedLocks) {
  TmRunner runner(small_config(TmKind::kNvHaltCl));
  EXPECT_STREQ(runner.tm().name(), "NV-HALT-CL");
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  EXPECT_EQ(nv.locks().mode(), LockMode::kColocated);
}

TEST(NvHaltTmKind, RejectsANonNvHaltKind) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  for (const TmKind k : {TmKind::kTrinity, TmKind::kSpht})
    EXPECT_THROW(NvHaltTm(k, NvHaltConfig{}, runner.pool(), runner.htm(), runner.alloc()),
                 TmLogicError);
}

TEST(NvHaltConfig, NoPersistHwSkipsLockAcquisitionAndFences) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.nvhalt.persist_hw_txns = false;  // ablation NO-PERSISTENT-HTXN
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  const std::uint64_t fences_before = tm.pool().fence_count();
  tm.run(0, [&](Tx& tx) { tx.write(a, 5); });
  EXPECT_EQ(tm.stats().hw_commits, 1u);
  EXPECT_EQ(tm.pool().fence_count(), fences_before);  // nothing persisted
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 5u); });
}

TEST(NvHaltRetryPolicy, CapacityAbortsSpendTheFixedBudget) {
  // A transaction whose footprint exceeds the simulated L1 write capacity
  // aborts with kCapacity on every hardware attempt; the paper's fixed
  // policy still makes all C attempts before the software path commits.
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.htm.l1_ways = 2;
  cfg.htm.l1_sets = 1;  // at most 2 written lines fit
  cfg.nvhalt.htm_attempts = 10;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t arr = runner.alloc().raw_alloc_large(64);
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) {
    for (gaddr_t i = 0; i < 64; i += 8) tx.write(arr + i, 1);  // 8 lines
  }));
  const TmStats s = tm.stats();
  EXPECT_EQ(s.sw_commits, 1u);
  EXPECT_EQ(s.hw_aborts, 10u);
}

TEST(NvHaltEadr, WorksWithoutAnyFencesEndToEnd) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.pmem.eadr = true;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  for (int i = 0; i < 50; ++i) tm.run(0, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  EXPECT_EQ(runner.pool().fence_count(), 0u);
  EXPECT_EQ(runner.pool().flush_count(), 0u);
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 50u); });
}

TEST(NvHaltProgress, BoundedSwRetriesReturnFalseUnderPermanentConflict) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.nvhalt.htm_attempts = 0;
  cfg.nvhalt.max_sw_retries = 3;
  TmRunner runner(cfg);
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  // Jam the lock as if another thread held it forever.
  auto lk = nv.locks().ref(a);
  lk.s->store(lockword::make(1, true, 7));
  EXPECT_FALSE(runner.tm().run(0, [&](Tx& tx) { tx.write(a, 1); }));
  EXPECT_GE(runner.tm().stats().sw_aborts, 4u);  // initial + 3 retries
}

TEST(NvHaltCapacity, OversizedTransactionsCompleteOnSoftwarePath) {
  // A transaction whose write set exceeds the simulated L1 cannot commit in
  // hardware, ever; the O(1)-abortable structure guarantees it completes on
  // the software path (which has no capacity limit).
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.htm.l1_ways = 2;
  cfg.htm.l1_sets = 2;  // at most 4 written lines fit in "hardware"
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t arr = runner.alloc().raw_alloc_large(1024);
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) {
    for (gaddr_t i = 0; i < 1024; ++i) tx.write(arr + i, i + 1);
  }));
  EXPECT_EQ(tm.stats().sw_commits, 1u);
  EXPECT_EQ(tm.stats().hw_commits, 0u);
  tm.run(0, [&](Tx& tx) {
    for (gaddr_t i = 0; i < 1024; i += 97) EXPECT_EQ(tx.read(arr + i), i + 1);
  });
  // And the whole write set is durable.
  EXPECT_EQ(runner.pool().read_durable_record(arr + 1023).cur, 1024u);
}

TEST(NvHaltCapacity, LargeReadOnlyTransactionsAlsoFallBack) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.htm.max_read_lines = 8;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t arr = runner.alloc().raw_alloc_large(512);
  tm.run(0, [&](Tx& tx) {
    for (gaddr_t i = 0; i < 512; i += 64) tx.write(arr + i, 1);
  });
  tm.reset_stats();
  word_t sum = 0;
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) {
    sum = 0;
    for (gaddr_t i = 0; i < 512; ++i) sum += tx.read(arr + i);
  }));
  EXPECT_EQ(sum, 8u);
  EXPECT_EQ(tm.stats().sw_commits, 1u);
  EXPECT_EQ(tm.stats().read_only_commits, 1u);
}

TEST(NvHaltTm, RunIsReenterableAcrossManyThreadsAndSlots) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = runner.tm();
  const gaddr_t arr = runner.alloc().raw_alloc_large(256);
  run_threads(4, [&](int tid) {
    Xoshiro256 rng(static_cast<std::uint64_t>(tid) + 1);
    for (int i = 0; i < 200; ++i) {
      const gaddr_t x = arr + rng.next_bounded(256);
      const gaddr_t y = arr + rng.next_bounded(256);
      tm.run(tid, [&](Tx& tx) {
        // Move one unit from x to y; total stays zero.
        tx.write(x, tx.read(x) - 1);
        tx.write(y, tx.read(y) + 1);
      });
    }
  });
  std::int64_t total = 0;
  tm.run(0, [&](Tx& tx) {
    total = 0;  // body may be re-executed on abort
    for (gaddr_t i = 0; i < 256; ++i) total += static_cast<std::int64_t>(tx.read(arr + i));
  });
  EXPECT_EQ(total, 0);
}

TEST(NvHaltTm, SingleAttemptHooksRejectOutOfRangeTids) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  for (int tid : {-1, kMaxThreads}) {
    EXPECT_THROW(nv.attempt_hw_once(tid, [](Tx&) {}), TmLogicError);
    EXPECT_THROW(nv.attempt_sw_once(tid, [](Tx&) {}), TmLogicError);
    EXPECT_THROW(nv.attempt_ro_sw_once(tid, [](Tx&) {}), TmLogicError);
  }
  EXPECT_TRUE(nv.attempt_sw_once(kMaxThreads - 1, [](Tx&) {}));
  EXPECT_EQ(nv.attempt_ro_sw_once(kMaxThreads - 1, [](Tx&) {}),
            NvHaltTm::RoAttemptOutcome::kCommitted);
}

}  // namespace
}  // namespace nvhalt
