// Tests for the two baseline TMs: Trinity (TL2 + Trinity persistence) and
// SPHT (global-lock HyTM with per-thread persistent redo logs).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "baselines/spht/spht_log.hpp"
#include "baselines/spht/spht_tm.hpp"
#include "baselines/trinity/trinity_tm.hpp"
#include "pmem/crash_enum.hpp"
#include "test_helpers.hpp"

namespace nvhalt {

// Holds one SPHT thread's hardware commit between taking its timestamp and
// logging its record, a window no public call can pause in.
struct SphtTmTestPeer {
  /// Takes `tid`'s commit timestamp for a record of `nwrites` writes and
  /// publishes it as not yet persisted, as a hardware commit does before
  /// persist_committed logs it. Returns 0 where the commit would abort.
  static std::uint64_t take_commit_ts(SphtTm& tm, int tid, std::size_t nwrites) {
    const std::uint64_t ts = tm.take_commit_ts(tid, nwrites);
    if (ts != 0) tm.ts_pub_[tid].value.store(ts << 1);  // persisted bit clear
    return ts;
  }
  static bool lock_held_by(const SphtTm& tm, int tid) {
    return tm.global_lock_.value.load() == static_cast<std::uint64_t>(tid) + 1;
  }
  static std::size_t log_words(const SphtTm& tm, int tid) { return tm.log_.used_words(tid); }
  static void persist_committed(SphtTm& tm, int tid, std::uint64_t ts,
                                std::span<const std::pair<gaddr_t, word_t>> redo) {
    tm.persist_committed(tid, ts, redo);
  }
};

namespace {

using test::run_threads;
using test::small_config;

// ---- Trinity ------------------------------------------------------------

TEST(Trinity, ReadWriteRoundTrip) {
  TmRunner runner(small_config(TmKind::kTrinity));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  tm.run(0, [&](Tx& tx) { tx.write(a, 11); });
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 11u); });
  EXPECT_STREQ(tm.name(), "Trinity");
}

TEST(Trinity, GlobalClockAdvancesPerWriter) {
  TmRunner runner(small_config(TmKind::kTrinity));
  auto& tri = dynamic_cast<TrinityTm&>(runner.tm());
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  const std::uint64_t v0 = tri.gv();
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 1); });
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 2); });
  EXPECT_EQ(tri.gv(), v0 + 2);
  // Read-only transactions do not advance the clock.
  runner.tm().run(0, [&](Tx& tx) { (void)tx.read(a); });
  EXPECT_EQ(tri.gv(), v0 + 2);
}

TEST(Trinity, CommittedWritesAreDurable) {
  TmRunner runner(small_config(TmKind::kTrinity));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  tm.run(1, [&](Tx& tx) { tx.write(a, 77); });
  const PRecord r = tm.pool().read_durable_record(a);
  EXPECT_EQ(r.cur, 77u);
  EXPECT_EQ(pver_tid(r.pver), 1);
  EXPECT_GT(tm.pool().load_pver(1), pver_seq(r.pver));
}

TEST(Trinity, ConcurrentCountersLoseNoUpdates) {
  TmRunner runner(small_config(TmKind::kTrinity));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  constexpr int kThreads = 4, kIncrements = 300;
  run_threads(kThreads, [&](int tid) {
    for (int i = 0; i < kIncrements; ++i)
      tm.run(tid, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  });
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), kThreads * kIncrements); });
}

TEST(Trinity, SnapshotsAreConsistentUnderConcurrency) {
  TmRunner runner(small_config(TmKind::kTrinity));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  const gaddr_t b = runner.alloc().raw_alloc(0, 1);
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 500; ++i)
      tm.run(0, [&](Tx& tx) {
        tx.write(a, i);
        tx.write(b, i);
      });
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      tm.run(1, [&](Tx& tx) {
        const word_t x = tx.read(a);
        const word_t y = tx.read(b);
        if (x != y) violation.store(true);
      });
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(violation.load());
}

TEST(Trinity, VoluntaryAbort) {
  TmRunner runner(small_config(TmKind::kTrinity));
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  EXPECT_FALSE(tm.run(0, [&](Tx& tx) {
    tx.write(a, 1);
    tx.abort();
  }));
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 0u); });
}

// ---- SPHT log --------------------------------------------------------------

TEST(SphtLog, AppendCollectRoundTrip) {
  PmemConfig pc;
  pc.capacity_words = 1 << 12;
  pc.raw_words = 1 << 12;
  PmemPool pool(pc);
  SphtLog log(pool, /*nthreads=*/2, /*words_per_thread=*/256);

  std::vector<std::pair<gaddr_t, word_t>> w1{{10, 100}, {11, 110}};
  std::vector<std::pair<gaddr_t, word_t>> w2{{20, 200}};
  EXPECT_TRUE(log.append(0, /*ts=*/5, w1));
  EXPECT_TRUE(log.append(1, /*ts=*/7, w2));

  std::vector<SphtLog::TxnRec> recs;
  log.collect(/*max_ts=*/100, recs);
  ASSERT_EQ(recs.size(), 2u);
  // Records from thread 0's log come first in collection order.
  EXPECT_EQ(recs[0].ts, 5u);
  ASSERT_EQ(recs[0].writes.size(), 2u);
  EXPECT_EQ(recs[0].writes[1], (std::pair<gaddr_t, word_t>{11, 110}));
  EXPECT_EQ(recs[1].ts, 7u);
}

TEST(SphtLog, CollectFiltersByMarker) {
  PmemConfig pc;
  pc.capacity_words = 1 << 12;
  pc.raw_words = 1 << 12;
  PmemPool pool(pc);
  SphtLog log(pool, 1, 256);
  std::vector<std::pair<gaddr_t, word_t>> w{{1, 2}};
  log.append(0, 5, w);
  log.append(0, 9, w);
  std::vector<SphtLog::TxnRec> recs;
  log.collect(/*max_ts=*/6, recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].ts, 5u);
}

TEST(SphtLog, AppendFailsWhenFullAndTruncateResets) {
  PmemConfig pc;
  pc.capacity_words = 1 << 12;
  pc.raw_words = 1 << 12;
  PmemPool pool(pc);
  SphtLog log(pool, 1, 32);
  std::vector<std::pair<gaddr_t, word_t>> w{{1, 2}, {3, 4}};  // 6 words/record
  EXPECT_TRUE(log.append(0, 1, w));
  EXPECT_TRUE(log.append(0, 2, w));
  EXPECT_TRUE(log.append(0, 3, w));
  EXPECT_TRUE(log.append(0, 4, w));
  EXPECT_TRUE(log.append(0, 5, w));
  EXPECT_FALSE(log.fits(0, w.size()));
  EXPECT_FALSE(log.append(0, 6, w));  // 36 > 32 words
  log.truncate(0);
  EXPECT_EQ(log.used_words(0), 0u);
  EXPECT_TRUE(log.append(0, 7, w));
}

TEST(SphtLog, RecordsAreDurableOnlyAsWholeUnits) {
  // The head word advances only after the record's lines are fenced: a
  // crash exposes either the whole record or nothing.
  PmemConfig pc;
  pc.capacity_words = 1 << 12;
  pc.raw_words = 1 << 12;
  pc.track_store_order = true;
  PmemPool pool(pc);
  SphtLog log(pool, 1, 256);
  std::vector<std::pair<gaddr_t, word_t>> w{{10, 100}};
  log.append(0, 3, w);
  pool.crash(CrashPolicy{0.0, 4});  // only fenced state survives
  std::vector<SphtLog::TxnRec> recs;
  log.collect(100, recs);
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].ts, 3u);
  EXPECT_EQ(recs[0].writes[0].second, 100u);
}

TEST(SphtLog, AppendJournalsUnderTheAppendingThread) {
  // Crash traces attribute each log record and head store to the thread
  // that appended it, and that thread's fences persist them.
  PersistJournal journal;
  PmemConfig pc;
  pc.capacity_words = 1 << 12;
  pc.raw_words = 1 << 12;
  pc.journal = &journal;
  PmemPool pool(pc);
  SphtLog log(pool, /*nthreads=*/2, /*words_per_thread=*/256);
  journal.clear();
  std::vector<std::pair<gaddr_t, word_t>> w{{10, 100}, {11, 110}, {12, 120}};
  ASSERT_TRUE(log.append(1, /*ts=*/5, w));
  std::size_t stores = 0;
  for (const PersistEvent& ev : journal.events()) {
    EXPECT_EQ(ev.tid, 1) << "event kind " << static_cast<int>(ev.kind);
    stores += ev.kind == PersistEventKind::kStore;
  }
  EXPECT_EQ(stores, 2 + 2 * w.size() + 1);  // [ts][n][addr val]*, then the head
}

// ---- SPHT ----------------------------------------------------------------

TEST(Spht, ReadWriteRoundTrip) {
  TmRunner runner(small_config(TmKind::kSpht));
  auto& tm = runner.tm();
  gaddr_t a = kNullAddr;
  tm.run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 11);
  });
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 11u); });
  EXPECT_STREQ(tm.name(), "SPHT");
}

TEST(Spht, CommitsGoThroughHardwareWhenUncontended) {
  TmRunner runner(small_config(TmKind::kSpht));
  auto& tm = runner.tm();
  gaddr_t a = kNullAddr;
  tm.run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 1);
  });
  for (int i = 0; i < 10; ++i) tm.run(0, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  EXPECT_EQ(tm.stats().hw_commits, 11u);
  EXPECT_EQ(tm.stats().sw_commits, 0u);
}

TEST(Spht, MarkerAdvancesWithWriters) {
  TmRunner runner(small_config(TmKind::kSpht));
  auto& spht = dynamic_cast<SphtTm&>(runner.tm());
  gaddr_t a = kNullAddr;
  runner.tm().run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 1);
  });
  const std::uint64_t m1 = spht.durable_marker();
  EXPECT_GT(m1, 0u);
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 2); });
  EXPECT_GT(spht.durable_marker(), m1);
  // Read-only transactions do not advance the marker.
  runner.tm().run(0, [&](Tx& tx) { (void)tx.read(a); });
  EXPECT_EQ(spht.durable_marker(), spht.persistent_marker());
}

TEST(Spht, ReplayBringsNvmHeapUpToDate) {
  TmRunner runner(small_config(TmKind::kSpht));
  auto& spht = dynamic_cast<SphtTm&>(runner.tm());
  gaddr_t a = kNullAddr;
  runner.tm().run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 5);
  });
  runner.tm().run(0, [&](Tx& tx) { tx.write(a, 6); });
  // Before replay the NVM heap image lags (redo-logging design)...
  EXPECT_EQ(runner.pool().read_record(a).cur, 0u);
  ASSERT_TRUE(spht.checkpoint(0));
  // ...afterwards it holds the last committed value.
  EXPECT_EQ(runner.pool().read_record(a).cur, 6u);
  EXPECT_EQ(runner.pool().read_durable_record(a).cur, 6u);
}

TEST(Spht, ConcurrentCountersLoseNoUpdates) {
  TmRunner runner(small_config(TmKind::kSpht));
  auto& tm = runner.tm();
  gaddr_t a = kNullAddr;
  tm.run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 0);
  });
  constexpr int kThreads = 4, kIncrements = 150;
  run_threads(kThreads, [&](int tid) {
    for (int i = 0; i < kIncrements; ++i)
      tm.run(tid, [&](Tx& tx) { tx.write(a, tx.read(a) + 1); });
  });
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), kThreads * kIncrements); });
}

TEST(Spht, SwFallbackUsedWhenHwExhausted) {
  RunnerConfig cfg = small_config(TmKind::kSpht);
  cfg.htm.spurious_abort_prob = 1.0;  // hardware can never commit
  cfg.spht.htm_attempts = 2;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  gaddr_t a = kNullAddr;
  EXPECT_TRUE(tm.run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 3);
  }));
  const TmStats s = tm.stats();
  EXPECT_EQ(s.sw_commits, 1u);
  EXPECT_EQ(s.hw_aborts, 2u);
  EXPECT_EQ(s.fallbacks, 1u);
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 3u); });
}

TEST(Spht, SwFallbackRollsBackOnUserAbort) {
  RunnerConfig cfg = small_config(TmKind::kSpht);
  cfg.spht.htm_attempts = 0;  // straight to the fallback
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  gaddr_t a = kNullAddr;
  tm.run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 1);
  });
  EXPECT_FALSE(tm.run(0, [&](Tx& tx) {
    tx.write(a, 99);
    tx.abort();
  }));
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 1u); });
}

TEST(Spht, LogFullTriggersInlineReplay) {
  RunnerConfig cfg = small_config(TmKind::kSpht);
  cfg.spht.log_words_per_thread = 64;  // tiny log: fills after a few txns
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  gaddr_t a = kNullAddr;
  tm.run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    tx.write(a, 0);
  });
  for (int i = 1; i <= 50; ++i) tm.run(0, [&](Tx& tx) { tx.write(a, i); });
  tm.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(a), 50u); });
  // The inline replays kept the NVM image close to the volatile one.
  auto& spht = dynamic_cast<SphtTm&>(tm);
  ASSERT_TRUE(spht.checkpoint(0));
  EXPECT_EQ(runner.pool().read_record(a).cur, 50u);
}

// Thread 0's log is full when it commits x = 3 in hardware, and thread 1
// checkpoints. A commit holding a timestamp here would have to replay (wait
// for the global lock) with that timestamp reading not-persisted, while the
// checkpoint holds the lock waiting for exactly that publication. The
// commit must get no timestamp; its retry replays first and then logs.
TEST(Spht, FullLogCommitAndCheckpointBothFinish) {
  RunnerConfig cfg = small_config(TmKind::kSpht);
  cfg.spht.log_words_per_thread = 8;  // two one-write records fill a log
  TmRunner runner(cfg);
  auto& spht = dynamic_cast<SphtTm&>(runner.tm());
  const gaddr_t x = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(spht.run(0, [&](Tx& tx) { tx.write(x, 1); }));
  ASSERT_TRUE(spht.run(0, [&](Tx& tx) { tx.write(x, 2); }));
  ASSERT_EQ(SphtTmTestPeer::log_words(spht, 0), 8u);

  const std::uint64_t ts_x = SphtTmTestPeer::take_commit_ts(spht, 0, 1);
  EXPECT_EQ(ts_x, 0u) << "a hardware commit took a timestamp with no room to log its record";
  std::thread checkpointer([&] { spht.checkpoint(1); });
  if (ts_x != 0)
    while (!SphtTmTestPeer::lock_held_by(spht, 1)) std::this_thread::yield();
  test::finish_within(std::chrono::seconds(10), [&] {
    if (ts_x != 0) {
      const std::vector<std::pair<gaddr_t, word_t>> redo{{x, 3}};
      SphtTmTestPeer::persist_committed(spht, 0, ts_x, redo);
    } else {
      EXPECT_TRUE(spht.run(0, [&](Tx& tx) { tx.write(x, 3); }));
    }
    checkpointer.join();
  });
  EXPECT_GE(spht.checkpoint_generation(), 1u);

  runner.pool().crash(CrashPolicy{0.0, 7});
  spht.recover_data();
  EXPECT_EQ(runner.pool().read_record(x).cur, 3u) << "recovery lost the full-log commit";
}

TEST(Spht, SnapshotsAreConsistentUnderConcurrency) {
  TmRunner runner(small_config(TmKind::kSpht));
  auto& tm = runner.tm();
  gaddr_t a = kNullAddr, b = kNullAddr;
  tm.run(0, [&](Tx& tx) {
    a = tx.alloc(1);
    b = tx.alloc(1);
    tx.write(a, 0);
    tx.write(b, 0);
  });
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread writer([&] {
    for (std::uint64_t i = 1; i <= 300; ++i)
      tm.run(0, [&](Tx& tx) {
        tx.write(a, i);
        tx.write(b, i);
      });
    stop.store(true);
  });
  std::thread reader([&] {
    while (!stop.load()) {
      tm.run(1, [&](Tx& tx) {
        const word_t x = tx.read(a);
        const word_t y = tx.read(b);
        if (x != y) violation.store(true);
      });
    }
  });
  writer.join();
  reader.join();
  EXPECT_FALSE(violation.load());
}

// Three committers on 64-word logs (a few records each) and a thread that
// checkpoints in a loop: full logs, full-log replays and checkpoints
// overlap constantly. Every committer and checkpoint must finish, and a
// crash after the run must keep every increment.
TEST(SphtSmallLogStress, CommittersAndCheckpointsFinishAndLoseNothing) {
  RunnerConfig cfg = small_config(TmKind::kSpht);
  cfg.spht.log_words_per_thread = 64;
  TmRunner runner(cfg);
  auto& spht = dynamic_cast<SphtTm&>(runner.tm());
  constexpr int kCommitters = 3, kTxns = 200;
  const gaddr_t shared = runner.alloc().raw_alloc(0, 1);
  const gaddr_t own = runner.alloc().raw_alloc_large(0, kCommitters * 8);
  std::atomic<int> running{kCommitters};
  test::finish_within(std::chrono::seconds(120), [&] {
    run_threads(kCommitters + 1, [&](int tid) {
      if (tid == kCommitters) {
        while (running.load() > 0) spht.checkpoint(tid);
        return;
      }
      for (int i = 0; i < kTxns; ++i) {
        spht.run(tid, [&](Tx& tx) {
          tx.write(shared, tx.read(shared) + 1);
          // 1-3 writes per record, so logs fill at varying points.
          for (int w = 0; w <= i % 3; ++w) {
            const gaddr_t a = own + static_cast<gaddr_t>(tid * 8 + w);
            tx.write(a, tx.read(a) + 1);
          }
        });
      }
      running.fetch_sub(1);
    });
  });
  spht.run(0, [&](Tx& tx) { EXPECT_EQ(tx.read(shared), word_t{kCommitters * kTxns}); });

  runner.pool().crash(CrashPolicy{0.0, 11});
  spht.recover_data();
  EXPECT_EQ(runner.pool().read_record(shared).cur, word_t{kCommitters * kTxns});
  EXPECT_EQ(runner.pool().read_record(own).cur, word_t{kTxns});
}

}  // namespace
}  // namespace nvhalt
