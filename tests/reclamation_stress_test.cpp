// Sanitizer stress for epoch-based reclamation (alloc/ebr.hpp): thread
// churn x delete-heavy churn. Every round spawns fresh OS threads that
// reuse dense tids 0..7 while hammering a sorted list with 50/50
// insert/remove over a small hot key range, so nodes cycle continuously
// through free -> limbo -> reclaim -> realloc.
// Concurrent readers walk the chains the writers are freeing: a block
// recycled before its epoch is safe is a use-after-free under ASan and a
// data race under TSan (the tsan-concurrency preset includes this suite).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "structures/tm_list.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace nvhalt {
namespace {

class ReclamationStressTest : public testing::TestWithParam<TmKind> {};

// SPHT is excluded: its structures never free (log-structured heap), so
// there is no reclamation to stress.
INSTANTIATE_TEST_SUITE_P(FreeingTms, ReclamationStressTest,
                         testing::Values(TmKind::kNvHalt, TmKind::kNvHaltCl,
                                         TmKind::kNvHaltSp, TmKind::kTrinity),
                         test::kind_param_name);

constexpr word_t kKeyBase = 100;
constexpr int kKeys = 32;
constexpr int kWriters = 6;
constexpr int kReaders = 2;
constexpr int kRounds = 5;
constexpr int kItersPerThread = 60;

TEST_P(ReclamationStressTest, ThreadChurnDeleteHeavyNeverRecyclesUnderReaders) {
  TmRunner runner(test::small_config(GetParam()));
  TransactionalMemory& tm = runner.tm();
  TmList list(tm);
  for (int i = 0; i < kKeys; i += 2) {
    const word_t k = kKeyBase + static_cast<word_t>(i);
    ASSERT_TRUE(list.insert(0, k, k));
  }

  for (int round = 0; round < kRounds; ++round) {
    // Fresh OS threads every round on the same tids: each inherits its
    // tid's reservation and limbo list from an unrelated, joined thread,
    // and the reservation scan must stay correct across that handover.
    test::run_threads(kWriters + kReaders, [&](int t) {
      Xoshiro256 rng(static_cast<std::uint64_t>(round) * 131 +
                     static_cast<std::uint64_t>(t) + 1);
      for (int iter = 0; iter < kItersPerThread; ++iter) {
        const word_t key = kKeyBase + static_cast<word_t>(rng.next_bounded(kKeys));
        if (t < kWriters) {
          if (rng.next_bounded(2) == 0) {
            list.insert(t, key, key);
          } else {
            list.remove(t, key);  // the committed free retires into limbo
          }
        } else {
          word_t v = 0;
          if (list.contains(t, key, &v)) {
            EXPECT_EQ(v, key);
          }
        }
      }
    });
  }

  // Quiescent ledger: every retired block is either reclaimed or still in
  // limbo, and the surviving list is intact (value == key everywhere).
  const AllocStats st = runner.alloc().stats();
  EXPECT_GT(st.frees, 0u);
  EXPECT_GT(st.retired, 0u);
  EXPECT_EQ(st.retired, st.reclaimed + st.limbo);
  for (int i = 0; i < kKeys; ++i) {
    const word_t k = kKeyBase + static_cast<word_t>(i);
    word_t v = 0;
    if (list.contains(0, k, &v)) {
      EXPECT_EQ(v, k);
    }
  }
}

}  // namespace
}  // namespace nvhalt
