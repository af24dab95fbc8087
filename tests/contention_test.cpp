// Tests for the lock-contention observatory (locks/contention.hpp): cell
// accounting, score-ranked top-K and reset, the LockSpace stripe mapping
// contract (same address -> same stripe; tallies survive lock reset), and
// the TM-level surface every engine exposes through Tm::contention().
#include <gtest/gtest.h>

#include "locks/lock_table.hpp"
#include "telemetry/metrics_registry.hpp"
#include "test_helpers.hpp"

namespace nvhalt {
namespace {

TEST(ContentionTableTest, CountersAggregateIntoTotals) {
  ContentionTable ct(8);
  ct.on_stall(1, 10);
  ct.on_stall(1, 5);
  ct.on_cas_fail(2);
  ct.on_abort(3);
  ct.on_abort(3);

  const ContentionTotals t = ct.totals();
  EXPECT_EQ(t.stalls, 2u);
  EXPECT_EQ(t.stall_ticks, 15u);
  EXPECT_EQ(t.cas_failures, 1u);
  EXPECT_EQ(t.aborts, 2u);
}

TEST(ContentionTableTest, StripeIndexWrapsModuloTableSize) {
  ContentionTable ct(4);
  ct.on_abort(7);  // 7 % 4 == 3
  const auto top = ct.top_k(4);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].stripe, 3u);
  EXPECT_EQ(top[0].aborts, 1u);
}

TEST(ContentionTableTest, TopKRanksByScoreAndOmitsIdleStripes) {
  ContentionTable ct(16);
  // stripe 0: 1 stall            -> score 1
  // stripe 1: 2 cas failures     -> score 4
  // stripe 2: 1 abort + 1 stall  -> score 5
  ct.on_stall(0, 100);
  ct.on_cas_fail(1);
  ct.on_cas_fail(1);
  ct.on_abort(2);
  ct.on_stall(2, 1);

  const auto top = ct.top_k(2);
  ASSERT_EQ(top.size(), 2u) << "k must truncate";
  EXPECT_EQ(top[0].stripe, 2u);
  EXPECT_EQ(top[0].score(), 5u);
  EXPECT_EQ(top[1].stripe, 1u);
  EXPECT_EQ(top[1].score(), 4u);

  const auto all = ct.top_k(16);
  EXPECT_EQ(all.size(), 3u) << "idle stripes must be omitted";
}

TEST(ContentionTableTest, ResetClears) {
  ContentionTable ct(2);
  for (int i = 0; i < 8; ++i) ct.on_abort(0);
  ct.on_stall(1, 7);
  ContentionTotals t = ct.totals();
  EXPECT_EQ(t.aborts, 8u);
  EXPECT_EQ(t.stall_ticks, 7u);

  ct.reset();
  t = ct.totals();
  EXPECT_EQ(t.stalls + t.stall_ticks + t.cas_failures + t.aborts, 0u);
}

TEST(ContentionTableTest, ConcurrentBumpsAreLossless) {
  ContentionTable ct(64);
  constexpr int kThreads = 4;
  constexpr int kIters = 1000;
  test::run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kIters; ++i) {
      ct.on_cas_fail(static_cast<std::size_t>(i));
      ct.on_abort(static_cast<std::size_t>(t));
    }
  });
  const ContentionTotals t = ct.totals();
  EXPECT_EQ(t.cas_failures, static_cast<std::uint64_t>(kThreads) * kIters);
  EXPECT_EQ(t.aborts, static_cast<std::uint64_t>(kThreads) * kIters);
}

TEST(LockSpaceContentionTest, StripeMappingIsStableAndLockResetPreservesTallies) {
  LockSpace ls(LockMode::kTable, /*table_entries=*/1 << 8, /*capacity_words=*/1 << 12);
  const gaddr_t a = 1234;
  const std::size_t s1 = ls.contention_stripe(a);
  const std::size_t s2 = ls.contention_stripe(a);
  EXPECT_EQ(s1, s2);
  EXPECT_LT(s1, ls.contention().stripes());
  // Same cache line -> same lock entry -> same stripe.
  EXPECT_EQ(ls.contention_stripe(a), ls.contention_stripe(a ^ 1));
  // The stripe of an address's own lock resolves back to the same cell.
  EXPECT_EQ(ls.contention_stripe_of_lock(ls.ref(a).s), s1);

  ls.contention().on_abort(s1);
  ls.reset();  // recovery clears lock words, not diagnostics
  EXPECT_EQ(ls.contention().totals().aborts, 1u);
  ls.contention().reset();
  EXPECT_EQ(ls.contention().totals().aborts, 0u);
}

TEST(LockSpaceContentionTest, ColocatedModeMapsIntoTable) {
  LockSpace ls(LockMode::kColocated, 0, /*capacity_words=*/1 << 12);
  const std::size_t s = ls.contention_stripe(99);
  EXPECT_LT(s, ls.contention().stripes());
  EXPECT_EQ(ls.contention_stripe(99), s);
}

// ---- TM surface -----------------------------------------------------------

class ContentionSurface : public ::testing::TestWithParam<TmKind> {};

INSTANTIATE_TEST_SUITE_P(AllTms, ContentionSurface, ::testing::ValuesIn(test::all_kinds()),
                         test::kind_param_name);

TEST_P(ContentionSurface, EveryTmExposesAnObservatory) {
  TmRunner runner(test::small_config(GetParam()));
  auto& tm = runner.tm();
  const ContentionTable* ct = tm.contention();
  ASSERT_NE(ct, nullptr);
  EXPECT_GE(ct->stripes(), 1u);

  // A contended hammer over one word: four threads, one address. The
  // tallies are failure-path-only, so no specific count is guaranteed, but
  // the table must stay coherent and reset_stats must clear it.
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  test::run_threads(4, [&](int t) {
    for (int i = 0; i < 50; ++i)
      runner.tm().run(t, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  });
  word_t v = 0;
  tm.run(0, [&](Tx& tx) { v = tx.read(a); });
  EXPECT_EQ(v, 200u);

  const ContentionTotals before = ct->totals();
  (void)before;
  tm.reset_stats();
  const ContentionTotals after = ct->totals();
  EXPECT_EQ(after.stalls + after.stall_ticks + after.cas_failures + after.aborts, 0u);
}

TEST(ContentionMetricsTest, SnapshotCarriesContentionAndPrometheusRendersIt) {
  TmRunner runner(test::small_config(TmKind::kNvHalt));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  test::run_threads(4, [&](int t) {
    for (int i = 0; i < 25; ++i)
      runner.tm().run(t, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  });

  telemetry::MetricsRegistry reg;
  reg.add_tm(tm);
  const telemetry::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.tms.size(), 1u);
  EXPECT_TRUE(snap.tms[0].has_contention);
  EXPECT_GE(snap.tms[0].contention_stripes, 1u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"contention\""), std::string::npos);
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE nvhalt_lock_aborts_total counter"), std::string::npos);
  EXPECT_NE(prom.find("nvhalt_lock_stalls_total{"), std::string::npos);
}

}  // namespace
}  // namespace nvhalt
