// Tests for the read-only fast path (core/ro_path.cpp; DESIGN.md Sec. 11,
// docs/PROTOCOLS.md "Read-only fast path"): structural silence of RO
// commits (no lock traffic, no commit_seq bump, no journal records),
// counterexample interleavings where a stale snapshot read must be caught
// by validation, demotion of writing bodies and of transactions whose
// snapshots keep failing, hint-only routing, and RO readers racing
// committing writers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "core/nvhalt_tm.hpp"
#include "pmem/crash_enum.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace nvhalt {
namespace {

using test::run_threads;
using test::small_config;
using Outcome = NvHaltTm::RoAttemptOutcome;

constexpr auto kRoValidation = static_cast<std::size_t>(telemetry::RoAbortCause::kRoValidation);
constexpr auto kRoDemotion = static_cast<std::size_t>(telemetry::RoAbortCause::kRoDemotion);

NvHaltTm& nv(TmRunner& r) { return dynamic_cast<NvHaltTm&>(r.tm()); }

/// Two addresses a full cache line apart, so table-mode lock hashing (one
/// lock per line) gives each its own lock word.
struct TwoLines {
  gaddr_t x, y;
  explicit TwoLines(TmRunner& r) {
    x = r.alloc().raw_alloc(0, 2 * kWordsPerLine);
    y = x + kWordsPerLine;
  }
};

// ------------------------------------------------ structural silence

/// An RO commit must leave no trace: no lock word moves (acquire/release
/// would bump the version), no commit_seq bump, no flush/fence, and — with
/// a journal installed — not a single persistence event.
TEST(RoPathTest, SwCommitIsStructurallySilent) {
  PersistJournal journal;
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  auto& tm = nv(runner);
  TwoLines a(runner);
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
    tx.write(a.x, 3);
    tx.write(a.y, 4);
  }));

  const std::uint64_t lock_x = tm.locks().ref(a.x).s->load();
  const std::uint64_t lock_y = tm.locks().ref(a.y).s->load();
  const std::uint64_t seq = tm.commit_seq();
  const std::uint64_t fences = runner.pool().fence_count();
  const std::uint64_t flushes = runner.pool().flush_count();
  const std::size_t journaled = journal.size();
  const std::uint64_t ro_before = tm.stats().ro_commits;

  for (int i = 0; i < 10; ++i) {
    word_t vx = 0, vy = 0;
    ASSERT_EQ(tm.attempt_ro_sw_once(0,
                                    [&](Tx& tx) {
                                      vx = tx.read(a.x);
                                      vy = tx.read(a.y);
                                    }),
              Outcome::kCommitted);
    EXPECT_EQ(vx, 3u);
    EXPECT_EQ(vy, 4u);
  }

  EXPECT_EQ(tm.locks().ref(a.x).s->load(), lock_x) << "RO commit touched a lock word";
  EXPECT_EQ(tm.locks().ref(a.y).s->load(), lock_y);
  EXPECT_EQ(tm.commit_seq(), seq) << "RO commit bumped commit_seq";
  EXPECT_EQ(runner.pool().fence_count(), fences) << "RO commit fenced";
  EXPECT_EQ(runner.pool().flush_count(), flushes) << "RO commit flushed";
  EXPECT_EQ(journal.size(), journaled) << "RO commit emitted journal records";
  EXPECT_EQ(tm.stats().ro_commits, ro_before + 10);
}

// --------------------------------------------- stale-snapshot counterexamples

/// The adversarial interleaving for the snapshot engine, mirroring
/// validation_cache_test: a writer commits between the reader's two reads
/// (distinct lock lines, so the second read cannot piggyback on the first
/// line's pre-image). The moved commit_seq forces a full revalidation at
/// the second first-access, which sees x's advanced lock version and
/// aborts before the body can hold the inconsistent {x, y} pair.
void ro_sw_writer_between_reads(bool hw_writer) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  TwoLines a(runner);
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
    tx.write(a.x, 5);
    tx.write(a.y, 5);
  }));

  bool inconsistent_observed = false;
  int entries = 0;
  const Outcome r = tm.attempt_ro_sw_once(0, [&](Tx& tx) {
    const word_t vx = tx.read(a.x);
    if (entries++ == 0) {
      const auto move_unit = [&](Tx& wtx) {
        wtx.write(a.x, wtx.read(a.x) - 1);
        wtx.write(a.y, wtx.read(a.y) + 1);
      };
      EXPECT_TRUE(hw_writer ? tm.attempt_hw_once(1, move_unit) : tm.attempt_sw_once(1, move_unit));
    }
    const word_t vy = tx.read(a.y);  // must throw TxConflictAbort
    if (vx + vy != 10) inconsistent_observed = true;
  });
  EXPECT_EQ(r, Outcome::kAborted);
  EXPECT_FALSE(inconsistent_observed);
  EXPECT_GE(tm.stats().ro_by_cause[kRoValidation], 1u);
}

TEST(RoPathTest, SwEngineCatchesSwWriterBetweenReads) {
  ro_sw_writer_between_reads(/*hw_writer=*/false);
}
TEST(RoPathTest, SwEngineCatchesHwWriterBetweenReads) {
  ro_sw_writer_between_reads(/*hw_writer=*/true);
}

/// A writer on a disjoint line moves commit_seq — forcing one snapshot
/// extension — but must not doom the reader (no false aborts from the
/// extension machinery itself).
TEST(RoPathTest, DisjointWriterForcesExtensionNotAbort) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  TwoLines a(runner);
  const gaddr_t z = runner.alloc().raw_alloc(0, 2 * kWordsPerLine) + kWordsPerLine;
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
    tx.write(a.x, 5);
    tx.write(a.y, 5);
  }));

  int entries = 0;
  word_t vx = 0, vy = 0;
  const Outcome r = tm.attempt_ro_sw_once(0, [&](Tx& tx) {
    vx = tx.read(a.x);
    if (entries++ == 0) {
      EXPECT_TRUE(tm.attempt_sw_once(1, [&](Tx& wtx) { wtx.write(z, 99); }));
    }
    vy = tx.read(a.y);
  });
  EXPECT_EQ(r, Outcome::kCommitted);
  EXPECT_EQ(vx + vy, 10u);
}

// ------------------------------------------------------------- demotion

TEST(RoPathTest, WritingBodyDemotes) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);

  EXPECT_EQ(tm.attempt_ro_sw_once(0, [&](Tx& tx) { tx.write(a, 1); }), Outcome::kDemoted);
  EXPECT_EQ(tm.attempt_ro_sw_once(0, [&](Tx& tx) { (void)tx.alloc(4); }), Outcome::kDemoted);
  EXPECT_EQ(tm.stats().ro_by_cause[kRoDemotion], 2u);
  EXPECT_EQ(tm.stats().ro_aborts, 2u);
  EXPECT_EQ(tm.stats().ro_commits, 0u);
}

/// A hinted transaction whose snapshots keep failing validation demotes
/// straight into the general loop after its four snapshot attempts, with
/// no hardware attempt in between: on a software-only NV-HALT
/// (htm_attempts = 0) no path begins a hardware transaction. Each of the
/// first four body entries lets a software writer move x and y between the
/// two reads (the ro_sw_writer_between_reads interleaving); the fifth
/// entry is the general loop's software attempt, which commits.
TEST(RoPathTest, FailedSnapshotsDemoteStraightToTheGeneralLoop) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.nvhalt.htm_attempts = 0;
  TmRunner runner(cfg);
  auto& tm = nv(runner);
  TwoLines a(runner);
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
    tx.write(a.x, 5);
    tx.write(a.y, 5);
  }));
  tm.reset_stats();
  const std::uint64_t htm_begins = tm.htm().aggregate_stats().begins;

  int entries = 0;
  bool last_on_hw = true;
  word_t vx = 0, vy = 0;
  ASSERT_TRUE(tm.run(0, TxMode::kReadOnly, [&](Tx& tx) {
    vx = tx.read(a.x);
    if (entries++ < 4) {
      EXPECT_TRUE(tm.attempt_sw_once(1, [&](Tx& wtx) {
        wtx.write(a.x, wtx.read(a.x) - 1);
        wtx.write(a.y, wtx.read(a.y) + 1);
      }));
    }
    vy = tx.read(a.y);
    last_on_hw = tx.on_hw_path();
  }));
  EXPECT_EQ(entries, 5);
  EXPECT_EQ(vx + vy, 10u);
  EXPECT_FALSE(last_on_hw) << "the fifth entry ran in a hardware transaction";

  const TmStats s = tm.stats();
  EXPECT_EQ(s.ro_aborts, 4u);
  EXPECT_EQ(s.ro_by_cause[kRoValidation], 4u);
  EXPECT_EQ(s.ro_commits, 0u);
  EXPECT_EQ(s.sw_commits, 5u) << "four writers and the demoted reader";
  EXPECT_EQ(s.hw_commits, 0u);
  EXPECT_EQ(tm.htm().aggregate_stats().begins, htm_begins)
      << "a software-only NV-HALT began a hardware transaction";
}

/// A transaction *hinted* read-only whose body writes anyway must still
/// commit correctly — it is demoted to the general loop, the write lands,
/// and the demotion is visible in its abort cause.
TEST(RoPathTest, HintedWriterStillCommitsViaGeneralLoop) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);

  ASSERT_TRUE(tm.run(0, TxMode::kReadOnly, [&](Tx& tx) { tx.write(a, 77); }));
  word_t v = 0;
  ASSERT_EQ(tm.attempt_ro_sw_once(0, [&](Tx& tx) { v = tx.read(a); }), Outcome::kCommitted);
  EXPECT_EQ(v, 77u);

  const TmStats s = tm.stats();
  EXPECT_EQ(s.ro_commits, 1u);  // only the audit above
  EXPECT_GE(s.ro_by_cause[kRoDemotion], 1u);
  EXPECT_EQ(s.ro_by_cause[kRoDemotion] + s.ro_by_cause[kRoValidation], s.ro_aborts)
      << "sum-equals-total invariant";
}

// -------------------------------------------------- routing and gating

TEST(RoPathTest, HintedReadOnlyRoutesToFastPath) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 9); }));

  const std::uint64_t before = tm.stats().ro_commits;
  word_t v = 0;
  ASSERT_TRUE(tm.run(0, TxMode::kReadOnly, [&](Tx& tx) { v = tx.read(a); }));
  EXPECT_EQ(v, 9u);
  EXPECT_EQ(tm.stats().ro_commits, before + 1);
}

/// Only the caller's TxMode::kReadOnly hint routes to the RO engine: a
/// long run of unhinted read-only commits does not, and an explicit
/// kUpdate transaction never starts in the snapshot engine.
TEST(RoPathTest, OnlyTheReadOnlyHintRoutes) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 1); }));

  word_t v = 0;
  for (int i = 0; i < 32; ++i) ASSERT_TRUE(tm.run(0, [&](Tx& tx) { v = tx.read(a); }));
  const std::uint64_t ro_commits = tm.stats().ro_commits;
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) { v = tx.read(a); }));
  EXPECT_EQ(tm.stats().ro_commits, ro_commits) << "an unhinted transaction was routed";

  int body_runs = 0;
  ASSERT_TRUE(tm.run(0, TxMode::kUpdate, [&](Tx& tx) {
    ++body_runs;
    tx.write(a, tx.read(a) + 1);
  }));
  EXPECT_EQ(body_runs, 1) << "the update ran in the snapshot engine first";
  EXPECT_EQ(tm.stats().ro_aborts, 0u);

  ASSERT_TRUE(tm.run(0, TxMode::kReadOnly, [&](Tx& tx) { v = tx.read(a); }));
  EXPECT_EQ(tm.stats().ro_commits, ro_commits + 1);
  EXPECT_EQ(v, 2u);
}

/// The ablation configurations must not route: validate_every_read exists
/// to measure the general software path, and the RO protocol leans on the
/// production locking discipline.
TEST(RoPathTest, AblationConfigsDisableRouting) {
  for (const bool every_read : {true, false}) {
    RunnerConfig cfg = small_config(TmKind::kNvHalt);
    cfg.nvhalt.validate_every_read = every_read;
    TmRunner runner(cfg);
    auto& tm = nv(runner);
    const gaddr_t a = runner.alloc().raw_alloc(0, 1);
    ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 1); }));
    word_t v = 0;
    ASSERT_TRUE(tm.run(0, TxMode::kReadOnly, [&](Tx& tx) { v = tx.read(a); }));
    EXPECT_EQ(v, 1u);
    EXPECT_EQ(tm.stats().ro_commits, every_read ? 0u : 1u);
  }
}

// -------------------------------------------- footprint / index migration

/// More unique lines than ThreadCtx::kRoLinearScanMax: the unique-line set
/// must migrate into the hash index mid-transaction with no lost entries
/// (re-reads of early lines still memo-hit and validate).
TEST(RoPathTest, LargeFootprintMigratesToIndex) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  constexpr std::size_t kLines = 48;  // > kRoLinearScanMax == 32
  const gaddr_t base = runner.alloc().raw_alloc_large(kLines * kWordsPerLine);
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
    for (std::size_t i = 0; i < kLines; ++i)
      tx.write(base + i * kWordsPerLine, static_cast<word_t>(i + 1));
  }));

  std::uint64_t sum = 0;
  ASSERT_EQ(tm.attempt_ro_sw_once(0,
                                  [&](Tx& tx) {
                                    sum = 0;
                                    for (std::size_t i = 0; i < kLines; ++i)
                                      sum += tx.read(base + i * kWordsPerLine);
                                    // Second sweep: every line is now a
                                    // memo/index hit.
                                    for (std::size_t i = 0; i < kLines; ++i)
                                      sum += tx.read(base + i * kWordsPerLine);
                                  }),
            Outcome::kCommitted);
  EXPECT_EQ(sum, kLines * (kLines + 1));  // 2 * sum(1..kLines)
}

// ------------------------------------------------- empty durable prefix

/// The crash-enumeration view of the structural-silence invariant: an
/// RO-only phase appends nothing to the persistence journal, so every
/// crash image enumerable from that phase is exactly the pre-phase image.
TEST(RoPathTest, RoOnlyPhaseLeavesEmptyDurablePrefix) {
  PersistJournal journal;
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  auto& tm = nv(runner);
  constexpr std::size_t kSlots = 16;
  const gaddr_t arr = runner.alloc().raw_alloc_large(kSlots);
  for (std::size_t i = 0; i < kSlots; ++i)
    ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(arr + i, i); }));

  journal.clear();
  std::uint64_t sum = 0;
  for (int round = 0; round < 32; ++round) {
    ASSERT_TRUE(tm.run(0, TxMode::kReadOnly, [&](Tx& tx) {
      sum = 0;
      for (std::size_t i = 0; i < kSlots; ++i) sum += tx.read(arr + i);
    }));
    EXPECT_EQ(sum, kSlots * (kSlots - 1) / 2);
  }
  EXPECT_GE(tm.stats().ro_commits, 32u);
  EXPECT_EQ(journal.size(), 0u) << "RO-only phase journaled persistence events";

  // Enumerating the (empty) phase trace yields a single boundary whose
  // image contains no durable stores — the crash outcome is the pre-phase
  // state no matter where in the RO phase the crash lands.
  CrashEnumerator en(journal.events(), CrashEnumOptions{});
  const auto failure = en.run([](const CrashImage& image, std::size_t, std::uint64_t,
                                 std::string* why) {
    if (!image.words.empty()) {
      if (why) *why = "RO-only trace materialized durable stores";
      return false;
    }
    return true;
  });
  EXPECT_FALSE(failure.has_value());
}

// ------------------------------------------ epoch-based node reclamation

/// Regression for epoch-based reclamation (DESIGN.md Sec. 12): a live RO
/// snapshot pins the reclamation epoch, so a node freed under it must not
/// be physically recycled until the snapshot ends. Pre-EBR the committed
/// free went straight back to the writer's free list and the very next
/// same-class allocation handed the still-readable block out again — a
/// use-after-free against the lock-free snapshot. With the limbo list the
/// re-allocation comes from fresh space while the reader is pinned, and
/// the block returns to circulation only after the reader passes a
/// quiescent point (its next transaction, or deregistration).
TEST(RoPathTest, PinnedRoSnapshotBlocksNodeRecycling) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = nv(runner);
  constexpr std::size_t kNode = 4;

  gaddr_t victim = 0;
  ASSERT_TRUE(tm.run(1, [&](Tx& tx) {
    victim = tx.alloc(kNode);
    tx.write(victim, 0xA11Eu);
  }));

  gaddr_t replacement = 0;
  int entries = 0;
  const Outcome r = tm.attempt_ro_sw_once(0, [&](Tx& tx) {
    const word_t v = tx.read(victim);
    if (entries++ == 0) {
      EXPECT_EQ(v, 0xA11Eu);
      // A writer frees the node while the snapshot is live. The free and
      // the follow-up allocation carry no data writes, so neither moves a
      // lock word and the snapshot stays valid throughout.
      ASSERT_TRUE(tm.attempt_sw_once(1, [&](Tx& wtx) { wtx.free(victim, kNode); }));
      ASSERT_TRUE(tm.attempt_sw_once(1, [&](Tx& wtx) { replacement = wtx.alloc(kNode); }));
      EXPECT_NE(replacement, victim) << "freed node recycled under a pinned RO snapshot";
      EXPECT_GE(runner.alloc().stats().limbo, 1u);
      // The snapshot began before the free committed: the node's contents
      // must still be readable.
      EXPECT_EQ(tx.read(victim), 0xA11Eu);
    }
  });
  EXPECT_EQ(r, Outcome::kCommitted);
  const AllocStats mid = runner.alloc().stats();
  EXPECT_GE(mid.retired, 1u);
  EXPECT_GE(mid.limbo, 1u);

  // QSBR liveness: the reader's reservation persists past the snapshot
  // and catches up at its next attempt boundary (alloc/ebr.hpp). One
  // empty transaction on the reader thread is that quiescent point.
  ASSERT_TRUE(tm.attempt_sw_once(0, [&](Tx&) {}));

  // Reader quiesced: the next committed mutator reclaims the limbo prefix...
  ASSERT_TRUE(tm.attempt_sw_once(1, [&](Tx& wtx) {
    const gaddr_t scratch = wtx.alloc(kNode);
    wtx.free(scratch, kNode);
  }));
  EXPECT_GT(runner.alloc().stats().reclaimed, mid.reclaimed);

  // ...and the victim is back in circulation.
  gaddr_t reused = 0;
  ASSERT_TRUE(tm.attempt_sw_once(1, [&](Tx& wtx) { reused = wtx.alloc(kNode); }));
  EXPECT_EQ(reused, victim) << "reclaimed node never returned to the free lists";
}

// ---------------------------------------------------- concurrent stress

/// RO readers race committing writers across both paths. Named to match
/// the tsan-concurrency preset filter (CMakePresets.json). Writers do
/// zero-sum transfers; hinted RO audits must never observe a nonzero sum,
/// whether they commit on the fast path or after demotion.
class RoPathStress : public ::testing::TestWithParam<bool> {};

INSTANTIATE_TEST_SUITE_P(WriterPaths, RoPathStress, ::testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return info.param ? "SwPinnedWriters" : "HybridWriters";
                         });

TEST_P(RoPathStress, RoReadersNeverObserveTornSums) {
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  if (GetParam()) cfg.nvhalt.htm_attempts = 0;  // all writers on the sw path
  TmRunner runner(cfg);
  auto& tm = nv(runner);
  constexpr std::size_t kSlots = 24;
  constexpr int kThreads = 4;
  const gaddr_t arr = runner.alloc().raw_alloc_large(kSlots);

  std::atomic<std::uint64_t> violations{0};
  run_threads(kThreads, [&](int tid) {
    Xoshiro256 rng(static_cast<std::uint64_t>(tid) * 131 + 17);
    for (int i = 0; i < 300; ++i) {
      if (rng.next_bool(0.4)) {
        const gaddr_t a = arr + rng.next_bounded(kSlots);
        const gaddr_t b = arr + rng.next_bounded(kSlots);
        tm.run(tid, [&](Tx& tx) {
          tx.write(a, tx.read(a) - 1);
          tx.write(b, tx.read(b) + 1);
        });
      } else {
        tm.run(tid, TxMode::kReadOnly, [&](Tx& tx) {
          std::int64_t sum = 0;
          for (std::size_t s = 0; s < kSlots; ++s)
            sum += static_cast<std::int64_t>(tx.read(arr + s));
          if (sum != 0) violations.fetch_add(1);
        });
      }
    }
  });
  EXPECT_EQ(violations.load(), 0u);

  const TmStats s = tm.stats();
  EXPECT_GT(s.ro_commits, 0u) << "stress never exercised the fast path";
  EXPECT_EQ(s.commits, s.hw_commits + s.sw_commits + s.ro_commits)
      << "every commit attributed to exactly one path";
  EXPECT_EQ(s.ro_by_cause[kRoDemotion] + s.ro_by_cause[kRoValidation], s.ro_aborts);
}

}  // namespace
}  // namespace nvhalt
