// Durable-linearizability crash tests.
//
// Harness: worker threads run transactions; at a random instant the crash
// coordinator trips and every thread unwinds at its next crash point
// (possibly mid-commit, mid-flush). The pool then simulates the power
// failure with an adversarial spontaneous-write-back policy, recovery
// runs, and the tests check:
//   (a) every transaction acknowledged before the crash is reflected,
//   (b) multi-word transactions are reflected atomically,
//   (c) the recovered state is a prefix-consistent set of commits,
//   (d) structure invariants hold after recovery,
//   (e) recovery resumes each thread's pVerNum from its durable marker, so
//       a later recovery keeps words that earlier epochs committed.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <tuple>

#include "crash_harness.hpp"
#include "pmem/crash_enum.hpp"
#include "pmem/crash_sim.hpp"
#include "pmem/pmem_inspector.hpp"
#include "structures/tm_abtree.hpp"
#include "structures/tm_hashmap.hpp"
#include "structures/tm_queue.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace nvhalt {
namespace {

using test::all_kinds;
using test::small_config;

class CrashRecoveryTest : public ::testing::TestWithParam<TmKind> {};

INSTANTIATE_TEST_SUITE_P(AllTms, CrashRecoveryTest, ::testing::ValuesIn(all_kinds()),
                         test::kind_param_name);

struct CrashCycleResult {
  std::vector<word_t> acked;      // last acknowledged value per thread
  std::vector<word_t> attempted;  // last attempted value per thread
};

/// Runs `nthreads` workers, each monotonically bumping its own pair of
/// slots (slot_a[i] = slot_b[i] = i) from just above `start[i]`, the pair's
/// current value, crashes mid-flight, recovers, and returns what was
/// acknowledged (`start[i]` when nothing was).
CrashCycleResult run_crash_cycle(TmRunner& runner, std::vector<gaddr_t>& slots_a,
                                 std::vector<gaddr_t>& slots_b, int nthreads, int crash_after_us,
                                 std::uint64_t crash_seed, double writeback_prob,
                                 const std::vector<word_t>& start) {
  auto& tm = runner.tm();
  CrashCoordinator coord;
  runner.pool().set_crash_coordinator(&coord);

  CrashCycleResult result;
  result.acked = start;
  result.attempted = start;

  std::vector<std::thread> workers;
  for (int t = 0; t < nthreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (word_t i = start[static_cast<std::size_t>(t)] + 1;; ++i) {
          result.attempted[static_cast<std::size_t>(t)] = i;
          const bool ok = tm.run(t, [&](Tx& tx) {
            tx.write(slots_a[static_cast<std::size_t>(t)], i);
            tx.write(slots_b[static_cast<std::size_t>(t)], i);
          });
          if (ok) result.acked[static_cast<std::size_t>(t)] = i;
        }
      } catch (const SimulatedPowerFailure&) {
        // Power failed while this thread was running; it dies here.
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(crash_after_us));
  coord.trip();
  for (auto& w : workers) w.join();

  runner.pool().set_crash_coordinator(nullptr);
  runner.pool().crash(CrashPolicy{writeback_prob, crash_seed});
  tm.recover_data();
  std::vector<LiveBlock> live;
  for (const gaddr_t a : slots_a) live.push_back({a, 1});
  for (const gaddr_t a : slots_b) live.push_back({a, 1});
  tm.rebuild_allocator(live);
  return result;
}

TEST_P(CrashRecoveryTest, AckedTransactionsSurviveAtomically) {
  constexpr int kThreads = 4;
  for (const auto& [seed, writeback] :
       std::vector<std::pair<std::uint64_t, double>>{{1, 0.0}, {2, 0.5}, {3, 1.0}}) {
    TmRunner runner(small_config(GetParam()));
    auto& tm = runner.tm();
    std::vector<gaddr_t> slots_a, slots_b;
    for (int t = 0; t < kThreads; ++t) {
      slots_a.push_back(runner.alloc().raw_alloc(0, 1));
      slots_b.push_back(runner.alloc().raw_alloc(0, 1));
    }
    const auto result = run_crash_cycle(runner, slots_a, slots_b, kThreads, 3000, seed,
                                        writeback, std::vector<word_t>(kThreads, 0));

    for (int t = 0; t < kThreads; ++t) {
      word_t va = 0, vb = 0;
      tm.run(0, [&](Tx& tx) {
        va = tx.read(slots_a[static_cast<std::size_t>(t)]);
        vb = tx.read(slots_b[static_cast<std::size_t>(t)]);
      });
      // (b) atomicity: the pair is never torn.
      EXPECT_EQ(va, vb) << "thread " << t << " seed " << seed;
      // (a) durability: everything acknowledged survived...
      EXPECT_GE(va, result.acked[static_cast<std::size_t>(t)]) << "thread " << t;
      // (c) ...and nothing from the future appeared.
      EXPECT_LE(va, result.attempted[static_cast<std::size_t>(t)]) << "thread " << t;
    }
  }
}

TEST_P(CrashRecoveryTest, RepeatedCrashCyclesStayConsistent) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  constexpr int kThreads = 3;
  std::vector<gaddr_t> slots_a, slots_b;
  for (int t = 0; t < kThreads; ++t) {
    slots_a.push_back(runner.alloc().raw_alloc(0, 1));
    slots_b.push_back(runner.alloc().raw_alloc(0, 1));
  }
  // What the previous recovery kept. Each cycle resumes every worker from
  // it, so values grow across cycles and a recovery that brings back an
  // earlier cycle's state reads below the floor; restarting every cycle at
  // 1 hid that, since an earlier cycle's larger value passed every check.
  std::vector<word_t> floor(kThreads, 0);
  for (int cycle = 0; cycle < 4; ++cycle) {
    const auto result = run_crash_cycle(runner, slots_a, slots_b, kThreads,
                                        1000 + cycle * 700, 100 + cycle, 0.3, floor);
    for (int t = 0; t < kThreads; ++t) {
      const std::size_t i = static_cast<std::size_t>(t);
      word_t va = 0, vb = 0;
      tm.run(0, [&](Tx& tx) {
        va = tx.read(slots_a[i]);
        vb = tx.read(slots_b[i]);
      });
      EXPECT_EQ(va, vb) << "cycle " << cycle << " thread " << t;
      EXPECT_GE(va, floor[i]) << "cycle " << cycle << " thread " << t
                              << " lost what the previous recovery made durable";
      EXPECT_GE(va, result.acked[i]) << "cycle " << cycle << " thread " << t;
      EXPECT_LE(va, result.attempted[i]) << "cycle " << cycle << " thread " << t;
      floor[i] = va;
    }
  }
}

TEST_P(CrashRecoveryTest, HashMapAckedInsertsSurvive) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  TmHashMap map(tm, 1 << 8);

  constexpr int kThreads = 3;
  CrashCoordinator coord;
  runner.pool().set_crash_coordinator(&coord);
  std::vector<std::vector<word_t>> acked(kThreads);
  std::vector<std::vector<word_t>> attempted(kThreads);
  std::atomic<std::size_t> progress{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      try {
        for (word_t i = 1;; ++i) {
          const word_t key = static_cast<word_t>(t) * 100000 + i;
          attempted[static_cast<std::size_t>(t)].push_back(key);
          if (map.insert(t, key, key * 3)) {
            acked[static_cast<std::size_t>(t)].push_back(key);
            progress.fetch_add(1, std::memory_order_release);
          }
        }
      } catch (const SimulatedPowerFailure&) {
      }
    });
  }
  // Wait for real progress before pulling the plug: a fixed sleep trips the
  // crash before the first ack when CI runners are oversubscribed, failing
  // the total_acked > 0 assertion below for want of a workload.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (progress.load(std::memory_order_acquire) < 8 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::microseconds(4000));
  coord.trip();
  for (auto& w : workers) w.join();

  runner.pool().set_crash_coordinator(nullptr);
  runner.pool().crash(CrashPolicy{0.4, 77});
  tm.recover_data();
  TmHashMap recovered = TmHashMap::attach(tm);
  tm.rebuild_allocator(recovered.collect_live_blocks());

  std::size_t total_acked = 0;
  for (int t = 0; t < kThreads; ++t) {
    total_acked += acked[static_cast<std::size_t>(t)].size();
    for (const word_t key : acked[static_cast<std::size_t>(t)]) {
      word_t v = 0;
      EXPECT_TRUE(recovered.contains(0, key, &v)) << "lost acked key " << key;
      EXPECT_EQ(v, key * 3);
    }
    // Present keys are a subset of attempted keys (no phantom data), with
    // correct values.
    for (const word_t key : attempted[static_cast<std::size_t>(t)]) {
      word_t v = 0;
      if (recovered.contains(0, key, &v)) {
        EXPECT_EQ(v, key * 3);
      }
    }
  }
  // The workload made progress before the crash.
  EXPECT_GT(total_acked, 0u);

  // And the recovered map remains fully operational.
  EXPECT_TRUE(recovered.insert(0, 999999, 1));
  EXPECT_TRUE(recovered.contains(0, 999999));
}

TEST_P(CrashRecoveryTest, AbTreeInvariantsHoldAfterCrash) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  TmAbTree tree(tm);
  // Prefill outside the crash window so rebalances happen during it.
  for (word_t k = 2; k <= 600; k += 2) ASSERT_TRUE(tree.insert(0, k, k));

  constexpr int kThreads = 3;
  CrashCoordinator coord;
  runner.pool().set_crash_coordinator(&coord);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      Xoshiro256 rng(static_cast<std::uint64_t>(t) * 101 + 7);
      try {
        for (;;) {
          const word_t k = 1 + rng.next_bounded(600);
          if (rng.next_bool(0.5)) {
            tree.insert(t, k, k);
          } else {
            tree.remove(t, k);
          }
        }
      } catch (const SimulatedPowerFailure&) {
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::microseconds(5000));
  coord.trip();
  for (auto& w : workers) w.join();

  runner.pool().set_crash_coordinator(nullptr);
  runner.pool().crash(CrashPolicy{0.5, 31});
  tm.recover_data();
  TmAbTree recovered = TmAbTree::attach(tm);
  tm.rebuild_allocator(recovered.collect_live_blocks());

  // The crash may have landed mid-rebalance; recovery must leave a valid
  // (a,b)-tree with sorted unique keys and correct values.
  std::string why;
  EXPECT_TRUE(recovered.validate_slow(&why)) << why;
  for (const word_t k : recovered.keys_slow()) {
    word_t v = 0;
    ASSERT_TRUE(recovered.contains(0, k, &v));
    EXPECT_EQ(v, k);
  }
  // Still operational.
  EXPECT_TRUE(recovered.insert(0, 100001, 5));
  EXPECT_TRUE(recovered.remove(0, 100001));
}

TEST_P(CrashRecoveryTest, EadrCrashKeepsEverythingCommitted) {
  // On an eADR platform nothing explicit is flushed, yet every committed
  // transaction must survive a crash — and in-flight ones must still be
  // reverted (their persistent version number never advanced).
  RunnerConfig cfg = small_config(GetParam());
  cfg.pmem.eadr = true;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  constexpr int kThreads = 3;
  std::vector<gaddr_t> slots_a, slots_b;
  for (int t = 0; t < kThreads; ++t) {
    slots_a.push_back(runner.alloc().raw_alloc(0, 1));
    slots_b.push_back(runner.alloc().raw_alloc(0, 1));
  }
  const auto result = run_crash_cycle(runner, slots_a, slots_b, kThreads, 3000, 5, 0.0,
                                      std::vector<word_t>(kThreads, 0));
  EXPECT_EQ(runner.pool().fence_count(), 0u);  // eADR: zero fences issued
  for (int t = 0; t < kThreads; ++t) {
    word_t va = 0, vb = 0;
    tm.run(0, [&](Tx& tx) {
      va = tx.read(slots_a[static_cast<std::size_t>(t)]);
      vb = tx.read(slots_b[static_cast<std::size_t>(t)]);
    });
    EXPECT_EQ(va, vb);
    EXPECT_GE(va, result.acked[static_cast<std::size_t>(t)]);
    EXPECT_LE(va, result.attempted[static_cast<std::size_t>(t)]);
  }
}

TEST(CrashRecoveryEdge, QueueSurvivesCrashIntact) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = runner.tm();
  TmQueue q(tm, 64);
  for (word_t v = 1; v <= 20; ++v) ASSERT_TRUE(q.enqueue(0, v));
  word_t out = 0;
  for (word_t v = 1; v <= 5; ++v) ASSERT_TRUE(q.dequeue(0, &out));
  runner.pool().crash(CrashPolicy{0.3, 21});
  tm.recover_data();
  TmQueue recovered = TmQueue::attach(tm);
  tm.rebuild_allocator(recovered.collect_live_blocks());
  EXPECT_EQ(recovered.size_slow(), 15u);
  for (word_t v = 6; v <= 20; ++v) {
    ASSERT_TRUE(recovered.dequeue(0, &out));
    EXPECT_EQ(out, v);  // FIFO order preserved across the crash
  }
}

TEST(CrashRecoveryEdge, CrashBeforeAnyTransactionRecoversToInitialState) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  runner.pool().crash(CrashPolicy{0.0, 5});
  tm.recover_data();
  tm.rebuild_allocator({});
  word_t v = 1;
  tm.run(0, [&](Tx& tx) { v = tx.read(a); });
  EXPECT_EQ(v, 0u);
}

TEST(CrashRecoveryEdge, RecoveryIsIdempotent) {
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  tm.run(0, [&](Tx& tx) { tx.write(a, 9); });
  runner.pool().crash(CrashPolicy{0.0, 5});
  tm.recover_data();
  tm.recover_data();  // a crash during recovery re-runs it
  tm.rebuild_allocator({});
  word_t v = 0;
  tm.run(0, [&](Tx& tx) { v = tx.read(a); });
  EXPECT_EQ(v, 9u);
}

// A power failure can strike recovery itself. Recovery persists only
// idempotent repairs (reverts, allocator intent normalisation, the
// checkpoint reset), so cutting it at its n-th crash point, losing power
// with adversarial write-back and recovering again must end where one
// clean recovery ends: the same volatile image and record values, and
// with checkpointing off the same pool image byte for byte (a checkpoint
// generation advances once per recovery that reaches it). Covers the
// undo-record engine NV-HALT and Trinity share.
class CrashInsideRecoveryTest
    : public ::testing::TestWithParam<std::tuple<TmKind, bool, int>> {};

/// The volatile image and every record's durable cur, word by word.
std::vector<word_t> recovered_words(const PmemPool& pool) {
  std::vector<word_t> v;
  v.reserve(2 * pool.capacity_words());
  for (gaddr_t a = 1; a < pool.capacity_words(); ++a) {
    v.push_back(pool.load(a));
    v.push_back(pool.read_durable_record(a).cur);
  }
  return v;
}

TEST_P(CrashInsideRecoveryTest, EveryCutRecoversLikeOneCleanRecovery) {
  const auto [kind, checkpoint, workers] = GetParam();
  constexpr std::uint64_t kSeed = 11;
  RunnerConfig cfg = test::crash_config(kind, checkpoint);
  cfg.pmem.track_store_order = true;  // the adversary cuts inside a line's store order
  cfg.nvhalt.recovery_threads = cfg.trinity.recovery_threads = workers;

  // The seeded single-thread history, journaled. The crash image cuts it
  // after the last commit's write-set fence: that commit's records are
  // durable and its pVerNum marker is not, so recovery has reverts to do.
  PersistJournal journal;
  {
    RunnerConfig hcfg = cfg;
    hcfg.pmem.journal = &journal;
    TmRunner runner(hcfg);
    TmAbTree tree(runner.tm());
    Xoshiro256 rng(kSeed);
    for (word_t i = 0; i < 300; ++i) {
      const word_t key = rng.next_bounded(200) + 1;
      if (i % 3 == 2)
        tree.remove(0, key);
      else
        tree.insert(0, key, i);
      if (checkpoint && i % 97 == 96) runner.tm().checkpoint(0);
    }
  }
  const std::vector<PersistEvent> events = journal.events();
  std::vector<std::size_t> fences;
  for (std::size_t j = 0; j < events.size(); ++j)
    if (events[j].kind == PersistEventKind::kFence) fences.push_back(j);
  ASSERT_GE(fences.size(), 2u);
  const CrashImage img = materialize_crash_image(events, fences[fences.size() - 2] + 1, 0);

  TmRunner runner(cfg);
  auto& pool = runner.pool();
  auto& tm = runner.tm();
  pool.install_crash_image(img.words);
  ASSERT_GT(PmemInspector(pool).scan().in_flight_records, 0u)
      << "the history left no in-flight record to revert";
  tm.recover_data();
  const std::vector<word_t> want = recovered_words(pool);
  const std::uint64_t want_hash = pool.image_hash();

  CrashCoordinator cc;
  for (std::uint64_t n = 1;; ++n) {
    ASSERT_LT(n, 100000u) << "recovery never completed untripped";
    const std::uint64_t crash_seed = kSeed + n;
    const std::string where = std::string(tm_kind_name(kind)) + " checkpoint=" +
                              (checkpoint ? "on" : "off") + " workers=" +
                              std::to_string(workers) + " n=" + std::to_string(n) +
                              " seed=" + std::to_string(crash_seed);
    pool.install_crash_image(img.words);
    cc.reset();
    cc.trip_after(n);
    pool.set_crash_coordinator(&cc);
    bool tripped = false;
    try {
      tm.recover_data();
    } catch (const SimulatedPowerFailure&) {
      tripped = true;
    }
    pool.set_crash_coordinator(nullptr);
    if (tripped) {
      pool.crash(CrashPolicy{0.5, crash_seed});
      tm.recover_data();
    }
    const std::vector<word_t> got = recovered_words(pool);
    const auto diff = std::mismatch(got.begin(), got.end(), want.begin());
    ASSERT_TRUE(diff.first == got.end())
        << where << ": word " << 1 + (diff.first - got.begin()) / 2
        << ((diff.first - got.begin()) % 2 == 0 ? " (volatile)" : " (record cur)") << " reads "
        << *diff.first << ", a clean recovery " << *diff.second;
    if (!checkpoint) {
      ASSERT_EQ(pool.image_hash(), want_hash) << where;
    }
    if (!tripped) break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    UndoRecordTms, CrashInsideRecoveryTest,
    ::testing::Combine(::testing::Values(TmKind::kNvHalt, TmKind::kTrinity), ::testing::Bool(),
                       ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<std::tuple<TmKind, bool, int>>& info) {
      std::string n = tm_kind_name(std::get<0>(info.param));
      for (auto& c : n)
        if (c == '-') c = '_';
      return n + (std::get<1>(info.param) ? "_Checkpoint" : "_NoCheckpoint") + "_Workers" +
             std::to_string(std::get<2>(info.param));
    });

TEST(CrashRecoveryEdge, UnackedButDurablyCompleteTxnMayLegallySurvive) {
  // A transaction that finished persisting but crashed before returning is
  // allowed (not required) to survive; what recovery must never produce is
  // a torn version of it. Covered by AckedTransactionsSurviveAtomically's
  // va == vb assertion; this test pins the single-threaded flavour.
  TmRunner runner(small_config(TmKind::kNvHalt));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  const gaddr_t b = runner.alloc().raw_alloc(0, 1);
  tm.run(0, [&](Tx& tx) {
    tx.write(a, 4);
    tx.write(b, 4);
  });
  runner.pool().crash(CrashPolicy{1.0, 9});
  tm.recover_data();
  tm.rebuild_allocator({});
  word_t va = 0, vb = 0;
  tm.run(0, [&](Tx& tx) {
    va = tx.read(a);
    vb = tx.read(b);
  });
  EXPECT_EQ(va, vb);
  EXPECT_EQ(va, 4u);  // it was fully fenced before the crash
}

// Recovery must resume each thread's pVerNum from its durable marker. A
// counter restarted below the marker stamps new records lower than records
// an earlier epoch left, and the next recovery then reverts committed words
// that were not written since. Only the TMs with per-thread markers (the
// undo-record engine) apply.
class PverRecoveryTest : public ::testing::TestWithParam<TmKind> {
 protected:
  static constexpr int kThreads = 3;

  static void crash_and_recover(TmRunner& runner) {
    runner.pool().crash(CrashPolicy{0.0, 7});
    runner.tm().recover_data();
    runner.tm().rebuild_allocator({});
  }
  static void commit(TransactionalMemory& tm, int tid, gaddr_t a, word_t v) {
    ASSERT_TRUE(tm.run(tid, [&](Tx& tx) { tx.write(a, v); }));
  }
};

INSTANTIATE_TEST_SUITE_P(UndoRecordTms, PverRecoveryTest,
                         ::testing::Values(TmKind::kNvHalt, TmKind::kNvHaltCl, TmKind::kNvHaltSp,
                                           TmKind::kTrinity),
                         test::kind_param_name);

TEST_P(PverRecoveryTest, EachCommitAfterRecoveryAdvancesTheMarkerByOne) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  auto& pool = runner.pool();
  std::vector<gaddr_t> slot;
  for (int t = 0; t < kThreads; ++t) slot.push_back(runner.alloc().raw_alloc(0, 1));
  // Thread t commits 4 + t updates, so each thread's marker differs.
  for (int t = 0; t < kThreads; ++t)
    for (word_t i = 1; i <= static_cast<word_t>(4 + t); ++i)
      commit(tm, t, slot[static_cast<std::size_t>(t)], i);
  crash_and_recover(runner);

  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t marker = pool.load_pver(t);
    EXPECT_EQ(marker, static_cast<std::uint64_t>(4 + t)) << "thread " << t;
    for (std::uint64_t j = 1; j <= 3; ++j) {
      commit(tm, t, slot[static_cast<std::size_t>(t)], 100 + j);
      EXPECT_EQ(pool.load_pver(t), marker + j) << "thread " << t << " commit " << j;
    }
  }
}

TEST_P(PverRecoveryTest, WordCommittedOnlyInTheFirstCycleSurvivesLaterRecoveries) {
  TmRunner runner(small_config(GetParam()));
  auto& tm = runner.tm();
  std::vector<gaddr_t> once, churn;
  for (int t = 0; t < kThreads; ++t) {
    once.push_back(runner.alloc().raw_alloc(0, 1));
    churn.push_back(runner.alloc().raw_alloc(0, 1));
  }
  // Cycle 1: eight churn commits, then the only write `once` ever gets, so
  // its record carries pVerNum 8. Later cycles commit three churn updates
  // each: a counter restarted at 0 would leave the marker at 3, below that
  // record, and the second recovery would revert it.
  for (int t = 0; t < kThreads; ++t) {
    const std::size_t i = static_cast<std::size_t>(t);
    for (word_t v = 1; v <= 8; ++v) commit(tm, t, churn[i], v);
    commit(tm, t, once[i], 1000 + i);
  }
  for (int cycle = 1; cycle <= 3; ++cycle) {
    if (cycle > 1) {
      for (int t = 0; t < kThreads; ++t)
        for (word_t v = 1; v <= 3; ++v)
          commit(tm, t, churn[static_cast<std::size_t>(t)], 100 * cycle + v);
    }
    crash_and_recover(runner);
    for (int t = 0; t < kThreads; ++t) {
      const std::size_t i = static_cast<std::size_t>(t);
      word_t v = 0, c = 0;
      tm.run(0, [&](Tx& tx) {
        v = tx.read(once[i]);
        c = tx.read(churn[i]);
      });
      EXPECT_EQ(v, 1000 + i) << "recovery " << cycle << " thread " << t;
      EXPECT_EQ(c, cycle == 1 ? 8 : 100u * cycle + 3) << "recovery " << cycle << " thread " << t;
    }
  }
}

}  // namespace
}  // namespace nvhalt
