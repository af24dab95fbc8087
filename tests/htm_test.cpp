// Unit tests for the simulated RTM: single-thread commit/abort mechanics,
// buffered writes, capacity shaping, spurious aborts, eager conflict
// detection between threads, publication atomicity, and non-transactional
// interactions.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "htm/sim_htm.hpp"
#include "htm/htm_tls.hpp"
#include "util/barrier.hpp"

namespace nvhalt::htm {
namespace {

struct Words {
  std::vector<std::atomic<std::uint64_t>> w;
  explicit Words(std::size_t n) : w(n) {
    for (auto& x : w) x.store(0, std::memory_order_relaxed);
  }
  std::atomic<std::uint64_t>* at(std::size_t i) { return &w[i]; }
};

TEST(SimHtm, CommitPublishesBufferedWrites) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 42);
  // Buffered: not visible before commit.
  EXPECT_EQ(mem.at(1)->load(), 0u);
  // But visible to the transaction itself.
  EXPECT_EQ(htm.load(0, loc_pool(1), mem.at(1)), 42u);
  htm.commit(0);
  EXPECT_EQ(mem.at(1)->load(), 42u);
  EXPECT_EQ(htm.aggregate_stats().commits, 1u);
}

TEST(SimHtm, ExplicitAbortDiscardsWrites) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 42);
  EXPECT_THROW(htm.xabort(0, 0x7), HtmAbort);
  EXPECT_EQ(mem.at(1)->load(), 0u);
  EXPECT_FALSE(htm.thread_in_txn(0));
  EXPECT_EQ(htm.aggregate_stats().aborts[static_cast<int>(AbortCause::kExplicit)], 1u);
}

TEST(SimHtm, XabortCarriesCode) {
  SimHtm htm;
  htm.begin(0);
  try {
    htm.xabort(0, 0xAB);
    FAIL() << "xabort did not throw";
  } catch (const HtmAbort& a) {
    EXPECT_EQ(a.cause, AbortCause::kExplicit);
    EXPECT_EQ(a.code, 0xAB);
  }
}

TEST(SimHtm, InTxnTlsFlagTracksTransaction) {
  SimHtm htm;
  EXPECT_FALSE(in_hw_txn());
  htm.begin(0);
  EXPECT_TRUE(in_hw_txn());
  htm.commit(0);
  EXPECT_FALSE(in_hw_txn());
}

TEST(SimHtm, AbortOnFlushModelsClflush) {
  SimHtm htm;
  htm.begin(0);
  EXPECT_THROW(abort_on_flush(), HtmAbort);
  EXPECT_FALSE(htm.thread_in_txn(0));
  EXPECT_EQ(htm.aggregate_stats().aborts[static_cast<int>(AbortCause::kFlush)], 1u);
}

TEST(SimHtm, AbortOnFlushOutsideTxnIsLogicError) {
  EXPECT_THROW(abort_on_flush(), TmLogicError);
}

TEST(SimHtm, NoNestedTransactions) {
  SimHtm htm;
  htm.begin(0);
  EXPECT_THROW(htm.begin(0), TmLogicError);
  htm.cancel(0);
}

TEST(SimHtm, CancelCleansUpWithoutThrowing) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 5);
  htm.cancel(0);
  EXPECT_EQ(mem.at(1)->load(), 0u);
  EXPECT_FALSE(htm.thread_in_txn(0));
  // And the stripe is usable again.
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 6);
  htm.commit(0);
  EXPECT_EQ(mem.at(1)->load(), 6u);
}

TEST(SimHtm, WriteSetCapacityMatchesL1Shape) {
  HtmConfig cfg;
  cfg.l1_ways = 8;
  cfg.l1_sets = 64;
  SimHtm htm(cfg);
  Words mem(16);
  // Writing lines that all map to L1 set 0: line = loc >> 3, set = line & 63.
  // Address a*512 has line a*64 -> set 0. The 9th such line must abort.
  htm.begin(0);
  bool aborted = false;
  try {
    for (std::uint64_t i = 0; i < 16; ++i)
      htm.store(0, loc_pool(i * 512), mem.at(i), i);
  } catch (const HtmAbort& a) {
    aborted = true;
    EXPECT_EQ(a.cause, AbortCause::kCapacity);
  }
  EXPECT_TRUE(aborted);
  EXPECT_EQ(htm.aggregate_stats().aborts[static_cast<int>(AbortCause::kCapacity)], 1u);
}

TEST(SimHtm, SameLineWritesDoNotCountTwice) {
  SimHtm htm;
  Words mem(64);
  htm.begin(0);
  // 64 writes within 8 lines (8 words per line): far below capacity.
  for (std::uint64_t i = 0; i < 64; ++i) htm.store(0, loc_pool(i), mem.at(i), i);
  EXPECT_NO_THROW(htm.commit(0));
}

TEST(SimHtm, ReadSetCapacityBounded) {
  HtmConfig cfg;
  cfg.max_read_lines = 16;
  SimHtm htm(cfg);
  Words mem(1);
  htm.begin(0);
  bool aborted = false;
  try {
    for (std::uint64_t i = 0; i < 1000; ++i) htm.load(0, loc_pool(i * 8), mem.at(0));
  } catch (const HtmAbort& a) {
    aborted = true;
    EXPECT_EQ(a.cause, AbortCause::kCapacity);
  }
  EXPECT_TRUE(aborted);
}

TEST(SimHtm, SpuriousAbortsInjected) {
  HtmConfig cfg;
  cfg.spurious_abort_prob = 0.5;
  cfg.seed = 99;
  SimHtm htm(cfg);
  Words mem(4);
  int aborts = 0;
  for (int i = 0; i < 100; ++i) {
    htm.begin(0);
    try {
      htm.store(0, loc_pool(1), mem.at(1), 1);
      htm.load(0, loc_pool(2), mem.at(2));
      htm.commit(0);
    } catch (const HtmAbort& a) {
      EXPECT_EQ(a.cause, AbortCause::kSpurious);
      ++aborts;
    }
  }
  EXPECT_GT(aborts, 20);
  EXPECT_LT(aborts, 100);
}

TEST(SimHtm, NontxStoreAbortsTransactionalReader) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  EXPECT_EQ(htm.load(0, loc_pool(1), mem.at(1)), 0u);
  // A non-transactional write from another thread invalidates the line.
  std::thread other([&] { htm.nontx_store(1, loc_pool(1), mem.at(1), 7); });
  other.join();
  EXPECT_THROW(htm.load(0, loc_pool(2), mem.at(2)), HtmAbort);
  EXPECT_EQ(mem.at(1)->load(), 7u);
}

TEST(SimHtm, NontxCachedClaimRunMatchesPlainStores) {
  SimHtm htm;
  Words mem(4);
  {
    SimHtm::NontxClaim claim;
    htm.nontx_store_cached(0, loc_pool(1), mem.at(1), 11, claim);
    htm.nontx_store_cached(0, loc_pool(2), mem.at(2), 22, claim);
    htm.nontx_claim_release(claim);
  }
  EXPECT_EQ(mem.at(1)->load(), 11u);
  EXPECT_EQ(mem.at(2)->load(), 22u);
  // The stripe claim is gone: another thread's plain store must complete.
  std::thread other([&] { htm.nontx_store(1, loc_pool(1), mem.at(1), 33); });
  other.join();
  EXPECT_EQ(mem.at(1)->load(), 33u);
}

TEST(SimHtm, NontxCachedClaimReleasedOnExceptionalUnwind) {
  // Regression: the persist loops interleave cached stores with pool calls
  // that throw when the crash coordinator trips mid-run. The claim's
  // destructor must drop the stripe tag on that unwind — a leaked nontx
  // tag has no epoch, so claim_stripe_nontx would otherwise spin on it
  // forever and the next claimant of the stripe would hang.
  SimHtm htm;
  Words mem(4);
  try {
    SimHtm::NontxClaim claim;
    htm.nontx_store_cached(0, loc_pool(1), mem.at(1), 5, claim);
    throw std::runtime_error("simulated crash trip");
  } catch (const std::runtime_error&) {
  }
  // Hangs here if the claim leaked.
  std::thread other([&] { htm.nontx_store(1, loc_pool(1), mem.at(1), 6); });
  other.join();
  EXPECT_EQ(mem.at(1)->load(), 6u);
}

TEST(SimHtm, NontxLoadAbortsTransactionalWriter) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 42);
  std::uint64_t seen = 0xDEAD;
  std::thread other([&] { seen = htm.nontx_load(1, loc_pool(1), mem.at(1)); });
  other.join();
  // The non-transactional read must never observe the buffered value...
  EXPECT_EQ(seen, 0u);
  // ...and the transaction must be doomed.
  EXPECT_THROW(htm.commit(0), HtmAbort);
  EXPECT_EQ(mem.at(1)->load(), 0u);
}

TEST(SimHtm, NontxCasAbortsReadersAndApplies) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  htm.load(0, loc_pool(1), mem.at(1));
  std::thread other([&] {
    std::uint64_t expected = 0;
    EXPECT_TRUE(htm.nontx_cas(1, loc_pool(1), mem.at(1), expected, 9));
  });
  other.join();
  EXPECT_EQ(mem.at(1)->load(), 9u);
  EXPECT_THROW(htm.commit(0), HtmAbort);
}

TEST(SimHtm, TxReadSeesForeignWriterAndSelfAborts) {
  SimHtm htm;
  Words mem(4);
  // Thread 1 holds a transactional write registration on word 1.
  std::atomic<bool> t1_ready{false}, t1_done{false};
  std::thread t1([&] {
    htm.begin(1);
    htm.store(1, loc_pool(1), mem.at(1), 5);
    t1_ready.store(true);
    while (!t1_done.load()) std::this_thread::yield();
    htm.cancel(1);
  });
  while (!t1_ready.load()) std::this_thread::yield();
  htm.begin(0);
  EXPECT_THROW(htm.load(0, loc_pool(1), mem.at(1)), HtmAbort);
  t1_done.store(true);
  t1.join();
}

TEST(SimHtm, TxWriteAbortsConcurrentReader) {
  SimHtm htm;
  Words mem(4);
  std::atomic<bool> r_ready{false}, w_done{false};
  std::atomic<bool> reader_aborted{false};
  std::thread reader([&] {
    htm.begin(1);
    htm.load(1, loc_pool(1), mem.at(1));
    r_ready.store(true);
    while (!w_done.load()) std::this_thread::yield();
    try {
      htm.load(1, loc_pool(2), mem.at(2));
      htm.commit(1);
    } catch (const HtmAbort&) {
      reader_aborted.store(true);
    }
  });
  while (!r_ready.load()) std::this_thread::yield();
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 3);  // requester wins: reader doomed
  htm.commit(0);
  w_done.store(true);
  reader.join();
  EXPECT_TRUE(reader_aborted.load());
  EXPECT_EQ(mem.at(1)->load(), 3u);
}

TEST(SimHtm, ConflictingWritersAtMostOneCommits) {
  SimHtm htm;
  Words mem(4);
  SpinBarrier barrier(2);
  std::atomic<int> commits{0};
  auto worker = [&](int tid) {
    barrier.arrive_and_wait();
    for (int i = 0; i < 200; ++i) {
      htm.begin(tid);
      try {
        const auto v = htm.load(tid, loc_pool(1), mem.at(1));
        htm.store(tid, loc_pool(1), mem.at(1), v + 1);
        htm.commit(tid);
        commits.fetch_add(1);
      } catch (const HtmAbort&) {
      }
    }
  };
  std::thread a(worker, 0), b(worker, 1);
  a.join();
  b.join();
  // Every committed increment must be reflected: lost updates impossible.
  EXPECT_EQ(mem.at(1)->load(), static_cast<std::uint64_t>(commits.load()));
  EXPECT_GT(commits.load(), 0);
}

TEST(SimHtm, PublicationIsAtomicForNontxReaders) {
  // A transaction writes words A and B; a non-transactional reader that
  // observes the new B (written second) must also observe the new A.
  SimHtm htm;
  Words mem(4);
  std::atomic<bool> stop{false};
  std::atomic<bool> violation{false};
  std::thread reader([&] {
    while (!stop.load()) {
      const auto b = htm.nontx_load(1, loc_pool(2), mem.at(2));
      const auto a = htm.nontx_load(1, loc_pool(1), mem.at(1));
      if (a < b) violation.store(true);  // saw B's update without A's
    }
  });
  for (std::uint64_t i = 1; i <= 2000; ++i) {
    htm.begin(0);
    try {
      htm.store(0, loc_pool(1), mem.at(1), i);
      htm.store(0, loc_pool(2), mem.at(2), i);
      htm.commit(0);
    } catch (const HtmAbort&) {
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_FALSE(violation.load());
}

TEST(SimHtm, ColocatedLockSharesLineWithItsWord) {
  // A colocated lock write and its word's write must count as one line for
  // capacity purposes (they share a cache line by construction).
  HtmConfig cfg;
  cfg.l1_ways = 2;
  cfg.l1_sets = 1;  // every line maps to set 0: at most 2 distinct lines
  SimHtm htm(cfg);
  Words mem(4);
  htm.begin(0);
  htm.store(0, loc_pool(100), mem.at(0), 1);
  EXPECT_NO_THROW(htm.store(0, loc_colock(100), mem.at(1), 2));  // same line
  EXPECT_NO_THROW(htm.store(0, loc_pool(108), mem.at(2), 3));    // 2nd line
  EXPECT_THROW(htm.store(0, loc_pool(116), mem.at(3), 4), HtmAbort);  // 3rd
}

TEST(SimHtm, NontxFetchAddIsAtomicAndAbortsReaders) {
  SimHtm htm;
  Words mem(2);
  htm.begin(0);
  htm.load(0, loc_pool(1), mem.at(1));
  std::thread other([&] {
    EXPECT_EQ(htm.nontx_fetch_add(1, loc_pool(1), mem.at(1), 5), 0u);
    EXPECT_EQ(htm.nontx_fetch_add(1, loc_pool(1), mem.at(1), 5), 5u);
  });
  other.join();
  EXPECT_EQ(mem.at(1)->load(), 10u);
  EXPECT_THROW(htm.commit(0), HtmAbort);
}

TEST(SimHtm, NontxCasFailureReturnsCurrentValue) {
  SimHtm htm;
  Words mem(2);
  mem.at(0)->store(7);
  std::uint64_t expected = 3;
  EXPECT_FALSE(htm.nontx_cas(0, loc_pool(0), mem.at(0), expected, 9));
  EXPECT_EQ(expected, 7u);
  EXPECT_EQ(mem.at(0)->load(), 7u);
}

TEST(SimHtm, StaleWriterTagIsStolenByNontxRmw) {
  // A transaction registers a writer tag and aborts; before its (never
  // coming, in this scripted test) retry, a non-transactional RMW on the
  // same stripe must be able to claim the stripe.
  SimHtm htm;
  Words mem(2);
  std::atomic<bool> registered{false}, release{false};
  std::thread t1([&] {
    htm.begin(1);
    htm.store(1, loc_pool(1), mem.at(1), 5);
    registered.store(true);
    while (!release.load()) std::this_thread::yield();
    htm.cancel(1);  // cleanup happens only now; tag was stale meanwhile
  });
  while (!registered.load()) std::this_thread::yield();
  // Doom t1 first (a non-tx store aborts the transactional writer), then
  // the RMW claims the stripe even though t1 has not cleaned up yet.
  std::uint64_t expected = 0;
  EXPECT_TRUE(htm.nontx_cas(0, loc_pool(1), mem.at(1), expected, 42));
  EXPECT_EQ(mem.at(1)->load(), 42u);
  release.store(true);
  t1.join();
  // t1's buffered write must not have leaked.
  EXPECT_EQ(mem.at(1)->load(), 42u);
}

TEST(SimHtm, ReadOnlyTxnsDoNotConflictWithEachOther) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  htm.load(0, loc_pool(1), mem.at(1));
  std::thread other([&] {
    htm.begin(1);
    htm.load(1, loc_pool(1), mem.at(1));
    EXPECT_NO_THROW(htm.commit(1));
  });
  other.join();
  EXPECT_NO_THROW(htm.commit(0));
}

TEST(SimHtm, RepeatedReadsOfSameLocationAreCheap) {
  // The first touch registers the stripe; later touches skip registration.
  // This is a semantics test: the value is still conflict-protected.
  SimHtm htm;
  Words mem(2);
  htm.begin(0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(htm.load(0, loc_pool(1), mem.at(1)), 0u);
  std::thread other([&] { htm.nontx_store(1, loc_pool(1), mem.at(1), 9); });
  other.join();
  // The repeated-read transaction is doomed despite the registration skip.
  EXPECT_THROW(htm.commit(0), HtmAbort);
}

// ---- Per-line memo fast path ---------------------------------------------
// The two-entry line memo skips re-registration on repeated same-line
// accesses; these tests pin down that the skipped bookkeeping never skips
// conflict detection (the five RTM properties hold on the memoized path).

TEST(SimHtm, MemoHitReadStillDetectsNontxInterference) {
  SimHtm htm;
  Words mem(4);
  htm.begin(0);
  // Two same-line loads: the second is a memo hit that skips registration.
  EXPECT_EQ(htm.load(0, loc_pool(1), mem.at(1)), 0u);
  EXPECT_EQ(htm.load(0, loc_pool(1), mem.at(1)), 0u);
  std::thread other([&] { htm.nontx_store(1, loc_pool(1), mem.at(1), 7); });
  other.join();
  // A further memo-hit load must still observe the doom: check_self runs
  // on every access, memoized or not.
  EXPECT_THROW(htm.load(0, loc_pool(1), mem.at(1)), HtmAbort);
  EXPECT_EQ(mem.at(1)->load(), 7u);
}

TEST(SimHtm, MemoHitReadStillDetectsWriterConflict) {
  SimHtm htm;
  Words mem(4);
  std::atomic<bool> r_ready{false}, w_done{false};
  std::atomic<bool> reader_aborted{false};
  std::thread reader([&] {
    htm.begin(1);
    htm.load(1, loc_pool(1), mem.at(1));
    htm.load(1, loc_pool(1), mem.at(1));  // warm the memo
    r_ready.store(true);
    while (!w_done.load()) std::this_thread::yield();
    try {
      htm.load(1, loc_pool(1), mem.at(1));  // memo hit; must still see doom
      htm.commit(1);
    } catch (const HtmAbort&) {
      reader_aborted.store(true);
    }
  });
  while (!r_ready.load()) std::this_thread::yield();
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 3);  // requester wins: reader doomed
  htm.commit(0);
  w_done.store(true);
  reader.join();
  EXPECT_TRUE(reader_aborted.load());
  EXPECT_EQ(mem.at(1)->load(), 3u);
}

TEST(SimHtm, MemoHitWriteStillDetectsInterference) {
  SimHtm htm;
  Words mem(8);
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(1), 1);
  std::uint64_t seen = 0xDEAD;
  std::thread other([&] { seen = htm.nontx_load(1, loc_pool(1), mem.at(1)); });
  other.join();
  EXPECT_EQ(seen, 0u);  // buffered value never leaks
  // Same line, different word: the write memo skips re-registration, but
  // the post-access check must still observe the doom.
  EXPECT_THROW(htm.store(0, loc_pool(2), mem.at(2), 2), HtmAbort);
  EXPECT_EQ(mem.at(1)->load(), 0u);
}

TEST(SimHtm, MemoHitReadsDoNotCountTowardReadCapacity) {
  HtmConfig cfg;
  cfg.max_read_lines = 4;
  SimHtm htm(cfg);
  Words mem(64);
  htm.begin(0);
  // Hammer one line, then fill the remaining capacity with distinct lines.
  for (int rep = 0; rep < 100; ++rep) htm.load(0, loc_pool(0), mem.at(0));
  for (std::uint64_t i = 1; i < 4; ++i) htm.load(0, loc_pool(i * 8), mem.at(i));
  // Re-reading tracked lines is free regardless of interleaving...
  for (int rep = 0; rep < 100; ++rep) htm.load(0, loc_pool(0), mem.at(0));
  // ...but a fifth distinct line still trips the capacity bound.
  EXPECT_THROW(htm.load(0, loc_pool(4 * 8), mem.at(4)), HtmAbort);
  EXPECT_EQ(htm.aggregate_stats().aborts[static_cast<int>(AbortCause::kCapacity)], 1u);
}

TEST(SimHtm, MemoResetAtBeginReregistersLines) {
  SimHtm htm;
  Words mem(4);
  // First transaction warms the memo on word 1's line, then commits.
  htm.begin(0);
  htm.load(0, loc_pool(1), mem.at(1));
  htm.commit(0);
  // The next transaction must re-register the line: a memo leaking across
  // begin() would leave this read untracked and the interference unseen.
  htm.begin(0);
  EXPECT_EQ(htm.load(0, loc_pool(1), mem.at(1)), 0u);
  std::thread other([&] { htm.nontx_store(1, loc_pool(1), mem.at(1), 9); });
  other.join();
  EXPECT_THROW(htm.load(0, loc_pool(1), mem.at(1)), HtmAbort);
}

TEST(SimHtm, WriteAfterReadUpgradesCleanly) {
  SimHtm htm;
  Words mem(2);
  htm.begin(0);
  const auto v = htm.load(0, loc_pool(1), mem.at(1));
  htm.store(0, loc_pool(1), mem.at(1), v + 1);
  EXPECT_EQ(htm.load(0, loc_pool(1), mem.at(1)), 1u);
  htm.commit(0);
  EXPECT_EQ(mem.at(1)->load(), 1u);
}

TEST(SimHtm, BeginAfterCommitReusesContext) {
  SimHtm htm;
  Words mem(2);
  for (int i = 1; i <= 100; ++i) {
    htm.begin(0);
    htm.store(0, loc_pool(1), mem.at(1), static_cast<std::uint64_t>(i));
    htm.commit(0);
  }
  EXPECT_EQ(mem.at(1)->load(), 100u);
  EXPECT_EQ(htm.aggregate_stats().commits, 100u);
}

TEST(SimHtm, ManyThreadsDisjointStripesAllCommit) {
  SimHtm htm;
  Words mem(64);
  SpinBarrier barrier(4);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (int i = 0; i < 200; ++i) {
        htm.begin(t);
        try {
          // Thread-private words: conflicts only via stripe collisions,
          // which the default 2^14-stripe table makes rare.
          const gaddr_t a = static_cast<gaddr_t>(t) * 1024;
          htm.store(t, loc_pool(a), mem.at(static_cast<std::size_t>(t)),
                    static_cast<std::uint64_t>(i));
          htm.commit(t);
        } catch (const HtmAbort&) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(mem.at(t)->load(), 199u);
}

TEST(SimHtm, StatsAggregateAcrossThreads) {
  SimHtm htm;
  Words mem(2);
  for (int t = 0; t < 3; ++t) {
    htm.begin(t);
    htm.store(t, loc_pool(static_cast<gaddr_t>(t)), mem.at(0), 1);
    htm.commit(t);
  }
  const HtmStats s = htm.aggregate_stats();
  EXPECT_EQ(s.begins, 3u);
  EXPECT_EQ(s.commits, 3u);
  htm.reset_stats();
  EXPECT_EQ(htm.aggregate_stats().begins, 0u);
}

TEST(SimHtm, ResetClearsConflictState) {
  SimHtm htm;
  Words mem(2);
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(0), 1);
  htm.cancel(0);
  htm.reset();
  // Fresh transactions work after reset.
  htm.begin(0);
  htm.store(0, loc_pool(1), mem.at(0), 2);
  htm.commit(0);
  EXPECT_EQ(mem.at(0)->load(), 2u);
}

}  // namespace
}  // namespace nvhalt::htm
