// Unit tests for the transaction-aware allocator: size classes, txn
// commit/abort hooks, segment recycling, large blocks, HTM interaction and
// the verify_rebuild cross-check of a live-block set against the
// persistent metadata, and the epoch service that defers reuse of frees.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <vector>

#include "alloc/tx_allocator.hpp"
#include "htm/sim_htm.hpp"

namespace nvhalt {
namespace {

PmemConfig pool_cfg(std::size_t words = std::size_t{1} << 18) {
  PmemConfig cfg;
  cfg.capacity_words = words;
  return cfg;
}

TEST(SizeClasses, RoundsUpToSmallestFit) {
  EXPECT_EQ(size_class_for(1), 0);
  EXPECT_EQ(kSizeClasses[static_cast<std::size_t>(size_class_for(3))], 4u);
  EXPECT_EQ(kSizeClasses[static_cast<std::size_t>(size_class_for(33))], 48u);
  EXPECT_EQ(kSizeClasses[static_cast<std::size_t>(size_class_for(128))], 128u);
  EXPECT_EQ(size_class_for(129), -1);
}

TEST(TxAllocator, RawAllocReturnsDistinctAlignedBlocks) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  std::set<gaddr_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const gaddr_t a = alloc.raw_alloc(0, 3);
    EXPECT_TRUE(seen.insert(a).second);
    EXPECT_NE(a, kNullAddr);
    EXPECT_LT(a + 4, pool.capacity_words());
  }
}

TEST(TxAllocator, FreeThenAllocReuses) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  const gaddr_t a = alloc.raw_alloc(0, 8);
  alloc.raw_free(0, a, 8);
  EXPECT_EQ(alloc.raw_alloc(0, 8), a);
}

TEST(TxAllocator, TxAllocRolledBackOnAbort) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  const gaddr_t a = alloc.tx_alloc(0, 4);
  alloc.on_abort(0);
  // The aborted allocation is back on the free list.
  EXPECT_EQ(alloc.tx_alloc(0, 4), a);
  alloc.on_commit(0);
}

TEST(TxAllocator, TxFreeDeferredUntilCommit) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  const gaddr_t a = alloc.raw_alloc(0, 4);
  alloc.tx_free(0, a, 4);
  // Before commit the block must not be recycled.
  EXPECT_NE(alloc.tx_alloc(0, 4), a);
  alloc.on_commit(0);
  EXPECT_EQ(alloc.raw_alloc(0, 4), a);
}

TEST(TxAllocator, TxFreeForgottenOnAbort) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  const gaddr_t a = alloc.raw_alloc(0, 4);
  alloc.tx_free(0, a, 4);
  alloc.on_abort(0);
  // The free never happened; the block stays live.
  std::set<gaddr_t> next;
  for (int i = 0; i < 100; ++i) next.insert(alloc.raw_alloc(0, 4));
  EXPECT_EQ(next.count(a), 0u);
}

TEST(TxAllocator, OversizeRequestThrows) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  EXPECT_THROW(alloc.raw_alloc(0, 129), TmLogicError);
}

TEST(TxAllocator, ExhaustionThrows) {
  PmemPool pool(pool_cfg(2 * kSegmentWords + 64));
  TxAllocator alloc(pool);
  EXPECT_THROW(
      {
        for (;;) alloc.raw_alloc(0, 128);
      },
      TmLogicError);
}

TEST(TxAllocator, AllocInsideHwTxnAbortsWhenSlowPathNeeded) {
  PmemPool pool(pool_cfg());
  htm::SimHtm sim;
  TxAllocator alloc(pool);
  // Fresh thread heap: the first allocation needs a segment, which must
  // abort a hardware transaction rather than take a global mutex inside it.
  sim.begin(0);
  try {
    alloc.tx_alloc(0, 4);
    FAIL() << "expected HtmAbort";
  } catch (const htm::HtmAbort& a) {
    EXPECT_EQ(a.cause, htm::AbortCause::kExplicit);
    EXPECT_EQ(a.code, kAllocAbortCode);
  }
  sim.cancel(0);
  // Outside the transaction the same request succeeds and warms the heap.
  const gaddr_t a = alloc.tx_alloc(0, 4);
  alloc.on_commit(0);
  EXPECT_NE(a, kNullAddr);
  // With a warm heap, in-txn allocation succeeds.
  sim.begin(0);
  EXPECT_NE(alloc.tx_alloc(0, 4), kNullAddr);
  sim.cancel(0);
  alloc.on_abort(0);
}

TEST(TxAllocator, LargeAllocSpansSegments) {
  PmemPool pool(pool_cfg(std::size_t{1} << 20));
  TxAllocator alloc(pool);
  const std::size_t n = 3 * kSegmentWords + 5;
  const gaddr_t big = alloc.raw_alloc_large(n);
  const gaddr_t next = alloc.raw_alloc(0, 8);
  EXPECT_GE(next, big + n - 5);  // small allocs land beyond the large block
}

TEST(TxAllocator, ConcurrentAllocationsAreDisjoint) {
  PmemPool pool(pool_cfg(std::size_t{1} << 20));
  TxAllocator alloc(pool);
  constexpr int kThreads = 4;
  constexpr int kPerThread = 2000;
  std::vector<std::vector<gaddr_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) got[t].push_back(alloc.raw_alloc(t, 4));
    });
  }
  for (auto& th : threads) th.join();
  std::set<gaddr_t> all;
  for (const auto& v : got)
    for (const gaddr_t a : v) EXPECT_TRUE(all.insert(a).second) << "duplicate " << a;
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
}

TEST(TxAllocator, RebuildHandlesLargeBlocks) {
  PmemPool pool(pool_cfg(std::size_t{1} << 20));
  TxAllocator alloc(pool);
  const std::size_t n = 2 * kSegmentWords;
  const gaddr_t big = alloc.raw_alloc_large(n);
  const gaddr_t small = alloc.raw_alloc(0, 4);
  // A large extent is classified by its durable header, not its size.
  std::vector<LiveBlock> live{{big, static_cast<std::uint32_t>(n)}, {small, 4}};
  EXPECT_EQ(alloc.verify_rebuild(live), 0u);
  const std::vector<LiveBlock> overrun{{big, static_cast<std::uint32_t>(n + 1)}};
  EXPECT_THROW(alloc.verify_rebuild(overrun), TmLogicError);
  for (int i = 0; i < 1000; ++i) {
    const gaddr_t a = alloc.raw_alloc(0, 4);
    EXPECT_TRUE(a + 4 <= big || a >= big + n) << "allocated inside live large block";
    EXPECT_NE(a, small);
  }
}

TEST(TxAllocator, RebuildRejectsMixedClassSegments) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  // A carved class-8 segment, and a class-4 block claimed to live in it.
  const gaddr_t a = alloc.raw_alloc(0, 8);
  std::vector<LiveBlock> live{{a, 8}, {a + 16, 4}};
  EXPECT_THROW(alloc.verify_rebuild(live), TmLogicError);
}

TEST(TxAllocator, RebuildRejectsMisalignedBlock) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  const gaddr_t a = alloc.raw_alloc(0, 8);
  std::vector<LiveBlock> live{{a + 3, 8}};  // not a multiple of class 8
  EXPECT_THROW(alloc.verify_rebuild(live), TmLogicError);
}

TEST(TxAllocator, StatsCountAllocsAndSegments) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  alloc.raw_alloc(0, 4);
  alloc.raw_alloc(0, 4);
  const AllocStats s = alloc.stats();
  EXPECT_EQ(s.allocs, 2u);
  EXPECT_GE(s.segments_acquired, 1u);
}

// The raw entry points index the per-thread heaps and the pool's flush
// queues with their tid, so they take only tids in [0, kMaxThreads).
TEST(TxAllocator, RawEntryPointsRejectOutOfRangeTids) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  const gaddr_t a = alloc.raw_alloc(0, 8);
  for (const int tid : {-1, kMaxThreads}) {
    EXPECT_THROW(alloc.raw_alloc(tid, 8), TmLogicError) << "tid " << tid;
    EXPECT_THROW(alloc.raw_free(tid, a, 8), TmLogicError) << "tid " << tid;
    EXPECT_THROW(alloc.raw_alloc_large(tid, kSegmentWords), TmLogicError) << "tid " << tid;
  }
  EXPECT_TRUE(alloc.slot_bit(a, 8)) << "a rejected raw_free cleared the block's bit";
  const gaddr_t b = alloc.raw_alloc(kMaxThreads - 1, 8);
  EXPECT_NE(b, kNullAddr);
  EXPECT_TRUE(alloc.slot_bit(b, 8));
}

// The carved end follows the durable watermark: heap_begin with nothing
// carved, one segment past each segment carved, unchanged by a crash (the
// watermark is fenced before any slot is handed out), and heap_begin
// again for an image that predates the metadata header.
TEST(TxAllocator, CarvedEndFollowsTheDurableWatermark) {
  PmemPool pool(pool_cfg());
  TxAllocator alloc(pool);
  EXPECT_EQ(alloc.carved_end(), alloc.heap_begin());
  alloc.raw_alloc(0, 8);
  EXPECT_EQ(alloc.carved_end(), alloc.heap_begin() + kSegmentWords);
  const gaddr_t big = alloc.raw_alloc_large(2 * kSegmentWords);
  EXPECT_EQ(alloc.carved_end(), big + 2 * kSegmentWords);
  pool.crash(CrashPolicy{});
  EXPECT_EQ(alloc.carved_end(), big + 2 * kSegmentWords);
  pool.install_crash_image({});
  EXPECT_EQ(alloc.carved_end(), alloc.heap_begin());
}

// ---- EpochService: the reservation scan stops at the highest announced tid

/// Addresses `tid`'s reclaim hands back, in order.
std::vector<gaddr_t> reclaim_all(alloc::EpochService& ebr, int tid) {
  std::vector<gaddr_t> out;
  ebr.reclaim(tid, [&out](gaddr_t a, std::uint32_t) { out.push_back(a); });
  return out;
}

TEST(EpochService, RetiredBlockWaitsForEveryAnnouncedSlot) {
  alloc::EpochService ebr;
  ebr.quiesce(0);
  ebr.quiesce(5);
  const std::uint64_t e = ebr.global_epoch();
  ebr.retire(0, 100, 4);  // stamped e; both reservations equal e, so it advances
  ASSERT_EQ(ebr.global_epoch(), e + 1);
  EXPECT_TRUE(reclaim_all(ebr, 0).empty());

  // Slot 0 passes e; slot 5, the highest announced slot, still holds it.
  ebr.quiesce(0);
  EXPECT_TRUE(reclaim_all(ebr, 0).empty());
  EXPECT_FALSE(ebr.limbo_empty(0));

  ebr.quiesce(5);
  EXPECT_EQ(reclaim_all(ebr, 0), std::vector<gaddr_t>{100});
  EXPECT_TRUE(ebr.limbo_empty(0));
}

TEST(EpochService, SlotThatNeverAnnouncedDoesNotHoldTheEpochBack) {
  alloc::EpochService ebr;
  // Slots 1..4 lie below the scan bound that slot 5 raised, and stay idle.
  ebr.quiesce(0);
  ebr.quiesce(5);
  const std::uint64_t e = ebr.global_epoch();
  ebr.retire(0, 100, 4);
  EXPECT_EQ(ebr.global_epoch(), e + 1);
  ebr.quiesce(0);
  ebr.quiesce(5);
  EXPECT_EQ(reclaim_all(ebr, 0), std::vector<gaddr_t>{100});
}

TEST(EpochService, LedgerBalancesAfterAPartialReclaim) {
  alloc::EpochService ebr;
  ebr.quiesce(0);
  ebr.quiesce(1);
  ebr.retire(0, 100, 4);  // epoch e; the global moves to e + 1
  ebr.quiesce(0);
  ebr.retire(0, 200, 4);  // epoch e + 1; slot 1 still announces e
  ebr.quiesce(1);
  // Both slots announce e + 1: the first block is safe, the second is not.
  EXPECT_EQ(reclaim_all(ebr, 0), std::vector<gaddr_t>{100});
  EXPECT_EQ(ebr.retired_total(), 2u);
  EXPECT_EQ(ebr.reclaimed_total(), 1u);
  EXPECT_EQ(ebr.limbo_depth(), 1u);
  EXPECT_EQ(ebr.retired_total(), ebr.reclaimed_total() + ebr.limbo_depth());
  EXPECT_EQ(ebr.reclaim_latency_ns().count(), 1u);
}

}  // namespace
}  // namespace nvhalt
