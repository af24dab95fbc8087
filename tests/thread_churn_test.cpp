// Thread-churn stress: many generations of short-lived OS threads transact
// against every TM under the same dense tids 0..7. Each generation is
// joined before the next starts, and the join/start edge is all that
// orders one OS thread's use of a tid before the next's. Exercises
// per-tid context reuse across unrelated OS threads, the zero-sum
// integrity of concurrent transfers across generations, and stats
// aggregation.
#include <gtest/gtest.h>

#include <atomic>

#include "test_helpers.hpp"

namespace nvhalt {
namespace {

class ThreadChurnTest : public testing::TestWithParam<TmKind> {};

constexpr int kAccounts = 64;
constexpr word_t kInitialBalance = 1000;

// Concurrency per generation stays within the smallest tid range in the
// suite (SPHT runs with max_threads = 16 in small_config).
constexpr int kConcurrent = 8;
constexpr int kGenerations = 18;  // 144 OS threads share tids 0..7
constexpr int kItersPerThread = 40;

gaddr_t setup_accounts(TransactionalMemory& tm) {
  gaddr_t arr = kNullAddr;
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) {
    arr = tx.alloc(kAccounts);
    for (int i = 0; i < kAccounts; ++i)
      tx.write(arr + static_cast<gaddr_t>(i), kInitialBalance);
  }));
  return arr;
}

word_t sum_accounts(TransactionalMemory& tm, gaddr_t arr) {
  word_t sum = 0;
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) {
    sum = 0;
    for (int i = 0; i < kAccounts; ++i) sum += tx.read(arr + static_cast<gaddr_t>(i));
  }));
  return sum;
}

TEST_P(ThreadChurnTest, SlotReuseAcrossManyGenerationsKeepsZeroSum) {
  TmRunner runner(test::small_config(GetParam()));
  TransactionalMemory& tm = runner.tm();
  const gaddr_t arr = setup_accounts(tm);

  tm.reset_stats();
  std::atomic<std::uint64_t> committed{0};

  for (int gen = 0; gen < kGenerations; ++gen) {
    test::run_threads(kConcurrent, [&](int tid) {
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        const gaddr_t from = arr + static_cast<gaddr_t>((tid * 7 + iter) % kAccounts);
        const gaddr_t to = arr + static_cast<gaddr_t>((tid * 7 + iter + 1) % kAccounts);
        const bool ok = tm.run(tid, [&](Tx& tx) {
          const word_t a = tx.read(from);
          const word_t b = tx.read(to);
          tx.write(from, a - 1);
          tx.write(to, b + 1);
        });
        EXPECT_TRUE(ok);
        if (ok) committed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Transfers are zero-sum across all generations.
  EXPECT_EQ(sum_accounts(tm, arr),
            static_cast<word_t>(kAccounts) * kInitialBalance);

  // Stats survived the churn: one commit per successful run (the final
  // sum_accounts transaction adds one more).
  EXPECT_EQ(tm.stats().commits, committed.load() + 1);
}

TEST_P(ThreadChurnTest, ResetStatsClearsAcrossReusedSlots) {
  TmRunner runner(test::small_config(GetParam()));
  TransactionalMemory& tm = runner.tm();
  const gaddr_t arr = setup_accounts(tm);

  test::run_threads(4, [&](int tid) {
    for (int i = 0; i < 10; ++i) {
      EXPECT_TRUE(tm.run(tid, [&](Tx& tx) {
        const gaddr_t a = arr + static_cast<gaddr_t>(tid);
        tx.write(a, tx.read(a) + 1);
      }));
    }
  });
  EXPECT_GE(tm.stats().commits, 40u);

  tm.reset_stats();
  EXPECT_EQ(tm.stats().commits, 0u);

  // A new generation of OS threads on the reused tids accumulates from zero.
  test::run_threads(2, [&](int tid) {
    EXPECT_TRUE(tm.run(tid, [&](Tx& tx) {
      const gaddr_t a = arr + static_cast<gaddr_t>(tid);
      tx.write(a, tx.read(a) + 1);
    }));
  });
  EXPECT_EQ(tm.stats().commits, 2u);
}

TEST_P(ThreadChurnTest, DenseTidBeyondRegistryCapacityThrows) {
  TmRunner runner(test::small_config(GetParam()));
  TransactionalMemory& tm = runner.tm();
  const int max = test::tid_limit(GetParam());

  // A fresh OS thread names itself by tid alone: the tid range is the
  // TM's whole thread capacity, with no registration step in front of it.
  test::run_threads(1, [&](int) {
    EXPECT_THROW(tm.run(max, [](Tx&) {}), TmLogicError);
    EXPECT_THROW(tm.run(-1, [](Tx&) {}), TmLogicError);
    EXPECT_TRUE(tm.run(max - 1, [](Tx&) {}));
  });
}

INSTANTIATE_TEST_SUITE_P(AllTms, ThreadChurnTest, testing::ValuesIn(test::all_kinds()),
                         test::kind_param_name);

}  // namespace
}  // namespace nvhalt
