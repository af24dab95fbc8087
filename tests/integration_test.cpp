// Cross-module integration tests: multiple structures sharing one TM,
// cross-structure transactions, mixed-path execution with spurious aborts,
// full crash/recover/attach cycles, and the TmRunner facade.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>

#include "api/root_registry.hpp"
#include "pmem/crash_sim.hpp"
#include "structures/tm_abtree.hpp"
#include "structures/tm_hashmap.hpp"
#include "structures/tm_list.hpp"
#include "test_helpers.hpp"

namespace nvhalt {
namespace {

using test::all_kinds;
using test::run_threads;
using test::small_config;
using test::tid_limit;

class IntegrationTest : public ::testing::TestWithParam<TmKind> {};

INSTANTIATE_TEST_SUITE_P(AllTms, IntegrationTest, ::testing::ValuesIn(all_kinds()),
                         test::kind_param_name);

TEST_P(IntegrationTest, FactoryProducesWorkingSystem) {
  TmRunner runner(small_config(GetParam()));
  EXPECT_STREQ(runner.tm().name(), tm_kind_name(GetParam()));
  gaddr_t a = kNullAddr;
  EXPECT_TRUE(runner.tm().run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 1);
  }));
  EXPECT_NE(a, kNullAddr);
}

TEST_P(IntegrationTest, KindParsingRoundTrips) {
  EXPECT_EQ(tm_kind_from_string(tm_kind_name(GetParam())), GetParam());
}

TEST_P(IntegrationTest, CrossStructureTransactionIsAtomic) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  TmHashMap map(tm, 1 << 6, /*root_slot=*/0);
  TmAbTree tree(tm, /*root_slot=*/2);

  // Move entries from the map to the tree atomically: at all times every
  // key lives in exactly one of the two structures.
  for (word_t k = 1; k <= 50; ++k) map.insert(0, k, k);
  run_threads(3, [&](int tid) {
    if (tid == 0) {
      // Mover: transfers each key map -> tree in one transaction.
      for (word_t k = 1; k <= 50; ++k) {
        tm.run(tid, [&](Tx& tx) {
          word_t v = 0;
          if (map.contains_in(tx, k, &v)) {
            map.remove_in(tx, k);
            tree.insert_in(tx, k, v);
          }
        });
      }
    } else {
      // Auditors: each key is in exactly one structure.
      for (int i = 0; i < 200; ++i) {
        const word_t k = 1 + static_cast<word_t>(i % 50);
        tm.run(tid, [&](Tx& tx) {
          const bool in_map = map.contains_in(tx, k);
          const bool in_tree = tree.contains_in(tx, k);
          EXPECT_NE(in_map, in_tree) << "key " << k << " in both or neither";
        });
      }
    }
  });
  EXPECT_EQ(map.size_slow(), 0u);
  EXPECT_EQ(tree.size_slow(), 50u);
}

TEST_P(IntegrationTest, MixedPathsUnderSpuriousAbortsStayCorrect) {
  RunnerConfig cfg = small_config(GetParam());
  cfg.htm.spurious_abort_prob = 0.02;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  TmAbTree tree(tm);
  std::map<word_t, word_t> ref;
  Xoshiro256 rng(23);
  for (int i = 0; i < 1500; ++i) {
    const word_t k = 1 + rng.next_bounded(300);
    if (rng.next_bool(0.6)) {
      EXPECT_EQ(tree.insert(0, k, k), ref.emplace(k, k).second);
    } else {
      EXPECT_EQ(tree.remove(0, k), ref.erase(k) > 0);
    }
  }
  EXPECT_EQ(tree.size_slow(), ref.size());
  std::string why;
  EXPECT_TRUE(tree.validate_slow(&why)) << why;
}

TEST_P(IntegrationTest, FullCrashRecoverAttachCycleAcrossStructures) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  {
    TmHashMap map(tm, 1 << 6, 0);
    TmAbTree tree(tm, 2);
    TmList list(tm, 4);
    for (word_t k = 1; k <= 100; ++k) {
      map.insert(0, k, k + 1);
      tree.insert(0, k, k + 2);
      if (k <= 20) list.insert(0, k, k + 3);
    }
  }
  runner.pool().crash(CrashPolicy{0.2, 11});
  tm.recover_data();

  TmHashMap map = TmHashMap::attach(tm, 0);
  TmAbTree tree = TmAbTree::attach(tm, 2);
  TmList list = TmList::attach(tm, 4);
  std::vector<LiveBlock> live;
  for (const auto& b : map.collect_live_blocks()) live.push_back(b);
  for (const auto& b : tree.collect_live_blocks()) live.push_back(b);
  for (const auto& b : list.collect_live_blocks()) live.push_back(b);
  tm.rebuild_allocator(live);

  for (word_t k = 1; k <= 100; ++k) {
    word_t v = 0;
    ASSERT_TRUE(map.contains(0, k, &v)) << k;
    EXPECT_EQ(v, k + 1);
    ASSERT_TRUE(tree.contains(0, k, &v)) << k;
    EXPECT_EQ(v, k + 2);
    if (k <= 20) {
      ASSERT_TRUE(list.contains(0, k, &v)) << k;
      EXPECT_EQ(v, k + 3);
    }
  }
  // All structures still work post-recovery (allocator rebuilt correctly).
  for (word_t k = 200; k <= 260; ++k) {
    EXPECT_TRUE(map.insert(0, k, k));
    EXPECT_TRUE(tree.insert(0, k, k));
  }
  std::string why;
  EXPECT_TRUE(tree.validate_slow(&why)) << why;
}

TEST_P(IntegrationTest, PersistenceCostScalesWithWriteSetNotReadSet) {
  if (GetParam() == TmKind::kSpht) GTEST_SKIP() << "SPHT persists via logs, not records";
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  const gaddr_t arr = runner.alloc().raw_alloc_large(64);
  tm.run(0, [&](Tx& tx) {
    for (gaddr_t i = 0; i < 64; ++i) tx.write(arr + i, 1);
  });

  const std::uint64_t flushes_before = runner.pool().flush_count();
  // 20 read-only transactions over the whole array: no flushes.
  for (int i = 0; i < 20; ++i)
    tm.run(0, [&](Tx& tx) {
      for (gaddr_t s = 0; s < 64; ++s) (void)tx.read(arr + s);
    });
  EXPECT_EQ(runner.pool().flush_count(), flushes_before);

  // One single-word writer: exactly one record flush + one pver flush.
  tm.run(0, [&](Tx& tx) { tx.write(arr, 2); });
  EXPECT_EQ(runner.pool().flush_count(), flushes_before + 2);
}

TEST_P(IntegrationTest, StatsAreInternallyConsistent) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  run_threads(2, [&](int tid) {
    for (int i = 0; i < 100; ++i) tm.run(tid, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  });
  const TmStats s = tm.stats();
  EXPECT_EQ(s.commits, 200u);
  EXPECT_EQ(s.commits, s.hw_commits + s.sw_commits + s.ro_commits);
}

TEST(Integration, FileBackedPoolSurvivesRunnerRestart) {
  const std::string path = testing::TempDir() + "nvhalt_restart_test.pool";
  std::remove(path.c_str());
  RunnerConfig cfg = small_config(TmKind::kNvHalt);
  cfg.pmem.backing_path = path;

  {
    TmRunner runner(cfg);
    ASSERT_FALSE(runner.pool().attached_existing());
    TmAbTree tree(runner.tm(), 2);
    for (word_t k = 1; k <= 300; ++k) ASSERT_TRUE(tree.insert(0, k, k * 5));
    runner.pool().sync_to_disk();
  }  // full teardown: new runner, new HTM, new allocator — only the file remains

  {
    TmRunner runner(cfg);
    ASSERT_TRUE(runner.pool().attached_existing());
    runner.tm().recover_data();
    TmAbTree tree = TmAbTree::attach(runner.tm(), 2);
    runner.tm().rebuild_allocator(tree.collect_live_blocks());
    std::string why;
    EXPECT_TRUE(tree.validate_slow(&why)) << why;
    EXPECT_EQ(tree.size_slow(), 300u);
    for (word_t k = 1; k <= 300; ++k) {
      word_t v = 0;
      ASSERT_TRUE(tree.contains(0, k, &v)) << k;
      EXPECT_EQ(v, k * 5);
    }
    EXPECT_TRUE(tree.insert(0, 1000, 1));
  }
  std::remove(path.c_str());
}

TEST(Integration, RootRegistryNamesSurviveCrash) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = runner.tm();
  RootRegistry reg(runner.pool());
  EXPECT_EQ(reg.size(), 0);
  EXPECT_FALSE(reg.get("accounts").has_value());

  const gaddr_t a = runner.alloc().raw_alloc(0, 8);
  reg.set(0, "accounts", a);
  reg.set(0, "epoch", 41);
  reg.set(0, "epoch", 42);  // update in place
  EXPECT_EQ(reg.size(), 2);
  EXPECT_EQ(reg.get("accounts").value(), a);
  EXPECT_EQ(reg.get("epoch").value(), 42u);

  runner.pool().crash(CrashPolicy{0.0, 3});
  tm.recover_data();
  RootRegistry after(runner.pool());
  EXPECT_EQ(after.get("accounts").value(), a);
  EXPECT_EQ(after.get("epoch").value(), 42u);
  EXPECT_FALSE(after.get("missing").has_value());

  EXPECT_TRUE(after.erase(0, "epoch"));
  EXPECT_FALSE(after.erase(0, "epoch"));
  EXPECT_EQ(after.size(), 1);
}

TEST(Integration, RootRegistryFullThrows) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  RootRegistry reg(runner.pool());
  for (int i = 0; i < RootRegistry::kCapacity; ++i)
    reg.set(0, "name" + std::to_string(i), static_cast<std::uint64_t>(i));
  EXPECT_THROW(reg.set(0, "one-too-many", 1), TmLogicError);
  // Erasing frees a slot for reuse.
  EXPECT_TRUE(reg.erase(0, "name0"));
  EXPECT_NO_THROW(reg.set(0, "one-too-many", 1));
}

TEST(Integration, InvalidConfigurationsAreRejected) {
  {
    RunnerConfig cfg = small_config(TmKind::kNvHalt);
    cfg.nvhalt.lock_table_entries = 100;  // not a power of two
    EXPECT_THROW(TmRunner{cfg}, TmLogicError);
  }
  {
    RunnerConfig cfg = small_config(TmKind::kNvHalt);
    cfg.htm.stripe_count = 1000;  // not a power of two
    EXPECT_THROW(TmRunner{cfg}, TmLogicError);
  }
  {
    RunnerConfig cfg = small_config(TmKind::kNvHalt);
    cfg.pmem.capacity_words = 1;  // below the minimum
    EXPECT_THROW(TmRunner{cfg}, TmLogicError);
  }
  EXPECT_THROW(tm_kind_from_string("NoSuchTm"), TmLogicError);
}

TEST_P(IntegrationTest, OutOfRangeThreadIdIsRejected) {
  TmRunner runner(small_config(GetParam()));
  TransactionalMemory& tm = runner.tm();
  const int max = tid_limit(GetParam());
  EXPECT_THROW(tm.run(max, [](Tx&) {}), TmLogicError);
  EXPECT_THROW(tm.run(max, TxMode::kReadOnly, [](Tx&) {}), TmLogicError);
  EXPECT_THROW(tm.run(kMaxThreads + 1, [](Tx&) {}), TmLogicError);
  EXPECT_THROW(tm.run(-1, [](Tx&) {}), TmLogicError);
  // The highest in-range tid commits.
  EXPECT_TRUE(tm.run(max - 1, [](Tx&) {}));
}

TEST_P(IntegrationTest, OutOfRangeCheckpointTidIsRejected) {
  RunnerConfig cfg = small_config(GetParam());
  cfg.nvhalt.checkpoint = cfg.trinity.checkpoint = true;
  TmRunner runner(cfg);
  TransactionalMemory& tm = runner.tm();
  const int max = tid_limit(GetParam());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 1); }));

  EXPECT_THROW(tm.checkpoint(-1), TmLogicError);
  EXPECT_THROW(tm.checkpoint(max), TmLogicError);

  // The TM is still usable, and the highest in-range tid checkpoints.
  EXPECT_TRUE(tm.run(1, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); }));
  EXPECT_TRUE(tm.checkpoint(max - 1));
  word_t v = 0;
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) { v = tx.read(a); }));
  EXPECT_EQ(v, 2u);
}

TEST(Integration, StructureAttachWithoutCreateThrows) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  EXPECT_THROW(TmHashMap::attach(runner.tm(), 10), TmLogicError);
  EXPECT_THROW(TmAbTree::attach(runner.tm(), 10), TmLogicError);
  EXPECT_THROW(TmList::attach(runner.tm(), 10), TmLogicError);
}

TEST(Integration, TwoIndependentRunnersDoNotInterfere) {
  TmRunner r1(small_config(TmKind::kNvHalt));
  TmRunner r2(small_config(TmKind::kTrinity));
  const gaddr_t a1 = r1.alloc().raw_alloc(0, 1);
  const gaddr_t a2 = r2.alloc().raw_alloc(0, 1);
  r1.tm().run(0, [&](Tx& tx) { tx.write(a1, 5); });
  r2.tm().run(0, [&](Tx& tx) { tx.write(a2, 6); });
  r1.tm().run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a1), 5u); });
  r2.tm().run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a2), 6u); });
}

}  // namespace
}  // namespace nvhalt
