// Record-level recovery unit tests: persistent states are constructed by
// hand (as a crash could leave them) and recovery's revert/keep decisions
// are checked word by word — pinning Sec. 3.5's rule: revert exactly the
// records whose {tid, seq} is at/above the owning thread's durable pVerNum —
// and the pass's bound: it reads the carved heap to its last word.
#include <gtest/gtest.h>

#include <tuple>

#include "baselines/spht/spht_tm.hpp"
#include "baselines/trinity/trinity_tm.hpp"
#include "core/nvhalt_tm.hpp"
#include "core/undo_records.hpp"
#include "pmem/checkpoint.hpp"
#include "pmem/crash_sim.hpp"
#include "pmem/pmem_inspector.hpp"
#include "test_helpers.hpp"

namespace nvhalt {
namespace {

using test::small_config;

class RecoveryUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    runner_ = std::make_unique<TmRunner>(small_config(TmKind::kNvHalt));
    pool_ = &runner_->pool();
    // Recovery reads only the carved heap, so the hand-built records at
    // words 100-200 live in a carved block: on a fresh pool this one
    // starts at the heap's first word and spans a whole segment.
    ASSERT_EQ(runner_->alloc().raw_alloc_large(256), kWordsPerLine);
  }

  /// Writes a committed-looking record set for `tid` at seq and makes it
  /// durable; optionally also advances + persists the thread's pVerNum.
  void persist_txn(int tid, std::initializer_list<std::pair<gaddr_t, word_t>> writes,
                   std::uint64_t seq, bool bump_pver) {
    for (const auto& [a, v] : writes) {
      pool_->record_write(tid, a, pool_->read_record(a).cur, v, pack_pver(tid, seq));
      pool_->flush_record(tid, a);
    }
    pool_->fence(tid);
    if (bump_pver) {
      pool_->store_pver(tid, seq + 1);
      pool_->flush_pver(tid);
      pool_->fence(tid);
    }
  }

  std::unique_ptr<TmRunner> runner_;
  PmemPool* pool_ = nullptr;
};

TEST_F(RecoveryUnitTest, InFlightTxnFullyReverted) {
  // Data durable, pVerNum not: the transaction never durably committed.
  persist_txn(3, {{100, 11}, {101, 12}, {102, 13}}, /*seq=*/0, /*bump_pver=*/false);
  pool_->crash(CrashPolicy{0.0, 1});
  runner_->tm().recover_data();
  EXPECT_EQ(pool_->load(100), 0u);
  EXPECT_EQ(pool_->load(101), 0u);
  EXPECT_EQ(pool_->load(102), 0u);
  // The reversion itself is durable (a crash during recovery re-reverts).
  EXPECT_EQ(pool_->read_durable_record(100).cur, 0u);
}

TEST_F(RecoveryUnitTest, DurablyCommittedTxnKept) {
  persist_txn(3, {{100, 11}, {101, 12}}, /*seq=*/0, /*bump_pver=*/true);
  pool_->crash(CrashPolicy{0.0, 1});
  runner_->tm().recover_data();
  EXPECT_EQ(pool_->load(100), 11u);
  EXPECT_EQ(pool_->load(101), 12u);
}

TEST_F(RecoveryUnitTest, PerThreadDecisionsAreIndependent) {
  persist_txn(1, {{100, 11}}, /*seq=*/0, /*bump_pver=*/true);   // committed
  persist_txn(2, {{200, 22}}, /*seq=*/0, /*bump_pver=*/false);  // in flight
  pool_->crash(CrashPolicy{0.0, 2});
  runner_->tm().recover_data();
  EXPECT_EQ(pool_->load(100), 11u);  // thread 1's write survives
  EXPECT_EQ(pool_->load(200), 0u);   // thread 2's write reverted
}

TEST_F(RecoveryUnitTest, OlderCommitsSurviveNewerInFlightOfSameThread) {
  persist_txn(5, {{100, 7}}, /*seq=*/0, /*bump_pver=*/true);    // pver now 1
  persist_txn(5, {{100, 9}}, /*seq=*/1, /*bump_pver=*/false);   // in flight
  pool_->crash(CrashPolicy{0.0, 3});
  runner_->tm().recover_data();
  // The in-flight overwrite reverts to the *previous committed* value.
  EXPECT_EQ(pool_->load(100), 7u);
}

TEST_F(RecoveryUnitTest, RevertUsesRecordOldNotZero) {
  persist_txn(4, {{150, 40}}, /*seq=*/0, /*bump_pver=*/true);
  persist_txn(4, {{150, 41}}, /*seq=*/1, /*bump_pver=*/true);
  persist_txn(4, {{150, 42}}, /*seq=*/2, /*bump_pver=*/false);  // in flight
  pool_->crash(CrashPolicy{0.0, 4});
  runner_->tm().recover_data();
  EXPECT_EQ(pool_->load(150), 41u);
}

TEST_F(RecoveryUnitTest, VolatileMetadataResetBySpRecovery) {
  RunnerConfig cfg = small_config(TmKind::kNvHaltSp);
  cfg.nvhalt.htm_attempts = 0;  // software commits advance the clock
  TmRunner runner(cfg);
  auto& nv = dynamic_cast<NvHaltTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  for (int i = 0; i < 3; ++i) runner.tm().run(0, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  EXPECT_GT(nv.gclock(), 0u);
  // Jam a lock as a crash would leave it.
  nv.locks().ref(a).s->store(lockword::make(9, true, 3));
  runner.pool().crash(CrashPolicy{0.0, 5});
  runner.tm().recover_data();
  EXPECT_EQ(nv.gclock(), 0u);
  EXPECT_FALSE(lockword::is_locked(nv.locks().ref(a).s->load()));
  // And the TM is immediately usable.
  EXPECT_TRUE(runner.tm().run(0, [&](Tx& tx) { tx.write(a, 1); }));
}

TEST_F(RecoveryUnitTest, InspectorShowsNoInFlightRecordsAfterRecovery) {
  persist_txn(1, {{100, 1}, {101, 2}}, 0, /*bump_pver=*/true);
  persist_txn(2, {{200, 3}}, 0, /*bump_pver=*/false);  // in flight
  pool_->crash(CrashPolicy{0.3, 9});
  PmemInspector inspector(*pool_);
  // Before recovery the in-flight record may be visible...
  const PmemReport before = inspector.scan();
  runner_->tm().recover_data();
  // ...after recovery, never: recovery reverts exactly those records.
  const PmemReport after = inspector.scan();
  EXPECT_EQ(after.in_flight_records, 0u);
  EXPECT_GE(before.in_flight_records, after.in_flight_records);
}

// Thread 0's first transaction stamps pack_pver(0, 0) == 0. Its record is
// durable and its marker is not, so recovery reverts it; the inspector
// judges it by the same predicate, so it counts it as touched and in
// flight.
TEST_F(RecoveryUnitTest, InspectorCountsTheRecordsRecoveryReverts) {
  pool_->record_write(0, 100, 0, 11, pack_pver(0, 0));
  pool_->flush_record(0, 100);
  pool_->fence(0);
  pool_->crash(CrashPolicy{0.0, 10});
  const PmemReport before = PmemInspector(*pool_).scan();
  UndoRecords undo(*pool_, runner_->alloc(), /*checkpoint=*/false);
  const UndoRecoveryReport rep = undo.recover(/*rtid=*/0, /*workers=*/1);
  EXPECT_EQ(rep.reverts, 1u);
  EXPECT_EQ(before.in_flight_records, rep.reverts);
  EXPECT_EQ(before.touched_records, 1u);
  EXPECT_EQ(pool_->read_durable_record(100).cur, 0u);
}

TEST_F(RecoveryUnitTest, InspectorSummarizesAllocatorMetadata) {
  PmemInspector inspector(*pool_);
  // The metadata header is durable from the allocator's construction.
  AllocDurableSummary s = inspector.scan_alloc(runner_->alloc());
  ASSERT_TRUE(s.metadata_present);
  EXPECT_EQ(s.segment_count, runner_->alloc().segment_count());

  gaddr_t a = kNullAddr, b = kNullAddr;
  ASSERT_TRUE(runner_->tm().run(0, [&](Tx& tx) {
    a = tx.alloc(4);
    b = tx.alloc(4);
    tx.write(a, 1);
    tx.write(b, 2);
  }));
  s = inspector.scan_alloc(runner_->alloc());
  EXPECT_GE(s.watermark, 1u);
  EXPECT_GE(s.used_slots, 2u);
  EXPECT_NE(PmemInspector::alloc_to_string(s).find("watermark="), std::string::npos);

  ASSERT_TRUE(runner_->tm().run(0, [&](Tx& tx) { tx.free(b, 4); }));
  const AllocDurableSummary after = inspector.scan_alloc(runner_->alloc());
  EXPECT_EQ(after.used_slots + 1, s.used_slots);
}

TEST_F(RecoveryUnitTest, UntouchedWordsRemainZero) {
  persist_txn(1, {{100, 11}}, 0, true);
  pool_->crash(CrashPolicy{0.0, 6});
  runner_->tm().recover_data();
  for (gaddr_t a = 101; a < 140; ++a) EXPECT_EQ(pool_->load(a), 0u);
}

UndoRecords& undo_of(TransactionalMemory& tm) {
  if (auto* n = dynamic_cast<NvHaltTm*>(&tm)) return n->undo_records();
  return dynamic_cast<TrinityTm&>(tm).undo_records();
}

// The pass ends at the allocator's carved end and not a word earlier. The
// pool's one block is two whole segments, so its last word is the word
// just before the carved end: a committed write there must survive, and a
// hand-built in-flight record at its first word must be reverted. With
// checkpointing on, a checkpoint leaves the last word's line clean, so it
// comes back through the clean-line rebuild rather than the predicate.
class CarvedEndRecoveryTest : public ::testing::TestWithParam<std::tuple<TmKind, bool>> {};

INSTANTIATE_TEST_SUITE_P(
    UndoRecordTms, CarvedEndRecoveryTest,
    ::testing::Combine(::testing::Values(TmKind::kNvHalt, TmKind::kTrinity), ::testing::Bool()),
    [](const auto& info) {
      std::string n = test::kind_param_name({std::get<0>(info.param), info.index});
      return n + (std::get<1>(info.param) ? "_ckpt" : "_plain");
    });

TEST_P(CarvedEndRecoveryTest, PassEndsAtTheCarvedEnd) {
  const auto [kind, checkpoint] = GetParam();
  RunnerConfig cfg = small_config(kind);
  cfg.pmem.capacity_words = std::size_t{1} << 20;
  cfg.nvhalt.checkpoint = cfg.trinity.checkpoint = checkpoint;
  TmRunner runner(cfg);
  PmemPool& pool = runner.pool();
  UndoRecords& undo = undo_of(runner.tm());

  const gaddr_t first = runner.alloc().raw_alloc_large(2 * kSegmentWords);
  const gaddr_t last = first + 2 * kSegmentWords - 1;
  ASSERT_EQ(runner.alloc().carved_end(), last + 1);
  ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) {
    tx.write(first, 7);
    tx.write(last, 0x1A57);
  }));
  if (checkpoint) {
    ASSERT_TRUE(runner.tm().checkpoint(0));
  }

  // In flight on tid 3, whose durable marker never moved: the record is
  // durable, its commit is not. With checkpointing on, its line's dirty bit
  // is fenced first, as the write barrier does.
  constexpr int kTid = 3;
  if (CheckpointManager* ckpt = undo.checkpoint_manager()) {
    const auto phase = ckpt->persist_phase();
    if (ckpt->mark(kTid, first)) {
      ckpt->stage_marks(kTid);
      pool.fence(kTid);
      ckpt->commit_marks(kTid);
    }
  }
  pool.record_write(kTid, first, 7, 99, pack_pver(kTid, 0));
  pool.flush_record(kTid, first);
  pool.fence(kTid);

  pool.crash(CrashPolicy{});
  const UndoRecoveryReport rep = undo.recover(/*rtid=*/0, /*workers=*/1);
  EXPECT_EQ(pool.load(last), 0x1A57u) << "the carved heap's last word was not recovered";
  EXPECT_EQ(pool.load(first), 7u);
  EXPECT_EQ(pool.read_durable_record(first).cur, 7u);
  EXPECT_EQ(rep.reverts, 1u);
  EXPECT_EQ(rep.bounded, checkpoint);
  if (!checkpoint) {
    // The carved lines: the heap's first line up to the block's end.
    EXPECT_EQ(rep.lines_scanned, (last + 1) / 2);
    EXPECT_LT(rep.lines_scanned, pool.record_lines() / 16);
  }
}

TEST(SphtRecoveryUnit, LogRecordsBeyondDurableMarkerAreDiscarded) {
  TmRunner runner(small_config(TmKind::kSpht));
  auto& spht = dynamic_cast<SphtTm&>(runner.tm());
  gaddr_t a = kNullAddr;
  runner.tm().run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 1);
  });
  const std::uint64_t marker = spht.durable_marker();
  ASSERT_GT(marker, 0u);

  // A second commit, then a checkpoint: it replays both records into the
  // NVM heap image, so the heap holds the second value.
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 2); });
  ASSERT_TRUE(spht.checkpoint(0));
  EXPECT_EQ(runner.pool().read_record(a).cur, 2u);

  // After a crash, recovery replays only up to the durable marker; since
  // both transactions completed their ordering protocol, both are covered.
  runner.pool().crash(CrashPolicy{0.0, 7});
  runner.tm().recover_data();
  EXPECT_EQ(runner.pool().load(a), 2u);
}

}  // namespace
}  // namespace nvhalt
