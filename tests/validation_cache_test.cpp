// Tests for the software-path snapshot-extension read-validation cache
// (docs/PROTOCOLS.md): common-case reads skip full read-set revalidation
// while the global commit sequence is unchanged, and a writer commit
// between two reads dooms the reader *before* it can observe an
// inconsistent snapshot — under both the cache (default) and the paper's
// literal validate_every_read mode.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>

#include "core/nvhalt_tm.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace nvhalt {
namespace {

using test::run_threads;
using test::small_config;

RunnerConfig sw_cfg(bool every_read = false) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.nvhalt.htm_attempts = 0;  // keep every transaction on the software path
  cfg.nvhalt.validate_every_read = every_read;
  return cfg;
}

TEST(ValidationCache, CommitSeqBumpsOnWriterCommitsOnly) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);

  EXPECT_EQ(nv.commit_seq(), 0u);
  ASSERT_TRUE(nv.attempt_sw_once(0, [&](Tx& tx) { tx.write(a, 1); }));
  EXPECT_EQ(nv.commit_seq(), 1u);  // software lock release bumps

  word_t v = 0;
  ASSERT_TRUE(nv.attempt_sw_once(0, [&](Tx& tx) { v = tx.read(a); }));
  EXPECT_EQ(v, 1u);
  EXPECT_EQ(nv.commit_seq(), 1u);  // read-only commit does not bump

  ASSERT_TRUE(nv.attempt_hw_once(0, [&](Tx& tx) { tx.write(a, 2); }));
  EXPECT_EQ(nv.commit_seq(), 2u);  // hardware lock publication bumps

  ASSERT_TRUE(nv.attempt_hw_once(0, [&](Tx& tx) { (void)tx.read(a); }));
  EXPECT_EQ(nv.commit_seq(), 2u);  // read-only hardware commit does not
}

TEST(ValidationCache, RecoveryResetsCommitSeq) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(nv.attempt_sw_once(0, [&](Tx& tx) { tx.write(a, 7); }));
  ASSERT_GT(nv.commit_seq(), 0u);

  runner.pool().crash(CrashPolicy{0.0, 3});
  nv.recover_data();
  EXPECT_EQ(nv.commit_seq(), 0u);  // volatile metadata, like locks/gclock
  word_t v = 0;
  ASSERT_TRUE(nv.attempt_sw_once(0, [&](Tx& tx) { v = tx.read(a); }));
  EXPECT_EQ(v, 7u);
}

// The adversarial interleaving of the ISSUE: a writer commits between two
// of a reader's reads. The commit_seq snapshot can no longer extend, the
// forced revalidation sees the moved lock version, and the reader aborts
// without the body ever holding an inconsistent {x, y} pair.
void writer_between_reads(bool every_read, bool hw_writer) {
  TmRunner runner(sw_cfg(every_read));
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t x = runner.alloc().raw_alloc(0, 1);
  const gaddr_t y = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(nv.attempt_sw_once(0, [&](Tx& tx) {
    tx.write(x, 5);
    tx.write(y, 5);
  }));

  bool inconsistent_observed = false;
  int entries = 0;
  const bool committed = nv.attempt_sw_once(0, [&](Tx& tx) {
    const word_t vx = tx.read(x);
    if (entries++ == 0) {
      const auto move_unit = [&](Tx& wtx) {
        wtx.write(x, wtx.read(x) - 1);
        wtx.write(y, wtx.read(y) + 1);
      };
      EXPECT_TRUE(hw_writer ? nv.attempt_hw_once(1, move_unit)
                            : nv.attempt_sw_once(1, move_unit));
    }
    const word_t vy = tx.read(y);  // must throw TxConflictAbort
    if (vx + vy != 10) inconsistent_observed = true;
  });
  EXPECT_FALSE(committed);
  EXPECT_FALSE(inconsistent_observed);
}

TEST(ValidationCache, SwWriterBetweenReadsDoomsReader) {
  writer_between_reads(/*every_read=*/false, /*hw_writer=*/false);
}

TEST(ValidationCache, HwWriterBetweenReadsDoomsReader) {
  writer_between_reads(/*every_read=*/false, /*hw_writer=*/true);
}

TEST(ValidationCache, EveryReadModeAlsoDoomsReader) {
  writer_between_reads(/*every_read=*/true, /*hw_writer=*/false);
  writer_between_reads(/*every_read=*/true, /*hw_writer=*/true);
}

// A writer on disjoint addresses moves commit_seq — forcing one full
// revalidation — but must not doom the reader (no false aborts from the
// cache machinery itself).
TEST(ValidationCache, DisjointWriterForcesRevalidationNotAbort) {
  TmRunner runner(sw_cfg());
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t x = runner.alloc().raw_alloc(0, 1);
  const gaddr_t y = runner.alloc().raw_alloc(0, 1);
  // z must be lock-disjoint from x/y, and table-mode locks are hashed per
  // cache line — put it a full line away so it resolves to its own lock.
  const gaddr_t z = runner.alloc().raw_alloc(0, 2 * kWordsPerLine) + kWordsPerLine;
  ASSERT_TRUE(nv.attempt_sw_once(0, [&](Tx& tx) {
    tx.write(x, 5);
    tx.write(y, 5);
  }));

  int entries = 0;
  word_t vx = 0, vy = 0;
  const bool committed = nv.attempt_sw_once(0, [&](Tx& tx) {
    vx = tx.read(x);
    if (entries++ == 0) {
      EXPECT_TRUE(nv.attempt_sw_once(1, [&](Tx& wtx) { wtx.write(z, 99); }));
    }
    vy = tx.read(y);
  });
  EXPECT_TRUE(committed);
  EXPECT_EQ(vx + vy, 10u);
}

// Concurrent zero-sum stress pinned to the software path, in both
// validation modes: transfers keep the array sum at zero; audits (and
// doomed audit attempts) must never observe a nonzero sum.
class ValidationModeStress : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(Modes, ValidationModeStress, ::testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "EveryRead" : "CachedValidation";
                         });

TEST_P(ValidationModeStress, SwPathZeroSumInvariantHolds) {
  TmRunner runner(sw_cfg(GetParam()));
  auto& tm = runner.tm();
  constexpr std::size_t kSlots = 24;
  constexpr int kThreads = 4;
  const gaddr_t arr = runner.alloc().raw_alloc_large(kSlots);

  std::atomic<std::uint64_t> violations{0};
  run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(static_cast<std::uint64_t>(tid) * 31 + 7);
    for (int i = 0; i < 300; ++i) {
      if (rng.next_bool(0.5)) {
        const gaddr_t a = arr + rng.next_bounded(kSlots);
        const gaddr_t b = arr + rng.next_bounded(kSlots);
        tm.run(tid, [&](Tx& tx) {
          tx.write(a, tx.read(a) - 1);
          tx.write(b, tx.read(b) + 1);
        });
      } else {
        tm.run(tid, [&](Tx& tx) {
          std::int64_t sum = 0;
          for (std::size_t s = 0; s < kSlots; ++s)
            sum += static_cast<std::int64_t>(tx.read(arr + s));
          if (sum != 0) violations.fetch_add(1);
        });
      }
    }
  });
  EXPECT_EQ(violations.load(), 0u);
}

}  // namespace
}  // namespace nvhalt
