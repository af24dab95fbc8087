// Unit tests for the simulated persistent memory pool: flush/fence
// semantics, Trinity record layout, crash adversary (spontaneous
// write-back with same-line store ordering), the crash coordinator, the
// persist path's billing and per-thread counters, and the memory backing of
// the images and lock arrays.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "locks/lock_table.hpp"
#include "pmem/crash_enum.hpp"
#include "pmem/crash_sim.hpp"
#include "pmem/pmem_inspector.hpp"
#include "pmem/pmem_pool.hpp"

namespace nvhalt {
namespace {

PmemConfig small_cfg(bool track_order = true) {
  PmemConfig cfg;
  cfg.capacity_words = 1 << 12;
  cfg.raw_words = 1 << 10;
  cfg.track_store_order = track_order;
  return cfg;
}

TEST(PverPacking, RoundTrips) {
  const std::uint64_t p = pack_pver(17, 123456789);
  EXPECT_EQ(pver_tid(p), 17);
  EXPECT_EQ(pver_seq(p), 123456789u);
}

TEST(PmemPool, VolatileImageStartsZeroAndStores) {
  PmemPool pool(small_cfg());
  EXPECT_EQ(pool.load(5), 0u);
  pool.store(5, 99);
  EXPECT_EQ(pool.load(5), 99u);
}

TEST(PmemPool, RecordWriteStagesTrinityFields) {
  PmemPool pool(small_cfg());
  pool.record_write(/*tid=*/3, /*a=*/7, /*old=*/10, /*new=*/20, pack_pver(3, 5));
  const PRecord r = pool.read_record(7);
  EXPECT_EQ(r.cur, 20u);
  EXPECT_EQ(r.old, 10u);
  EXPECT_EQ(pver_tid(r.pver), 3);
  EXPECT_EQ(pver_seq(r.pver), 5u);
}

TEST(PmemPool, UnfencedRecordIsNotDurable) {
  PmemPool pool(small_cfg());
  pool.record_write(0, 7, 10, 20, 1);
  EXPECT_EQ(pool.read_durable_record(7).cur, 0u);
  pool.flush_record(0, 7);
  // flush alone is asynchronous; durability arrives at the fence.
  EXPECT_EQ(pool.read_durable_record(7).cur, 0u);
  pool.fence(0);
  EXPECT_EQ(pool.read_durable_record(7).cur, 20u);
}

TEST(PmemPool, FenceOnlyCoversOwnThreadsFlushes) {
  PmemPool pool(small_cfg());
  pool.record_write(0, 7, 0, 20, 1);
  pool.record_write(1, 9, 0, 30, pack_pver(1, 1));
  pool.flush_record(0, 7);
  pool.flush_record(1, 9);
  pool.fence(0);
  EXPECT_EQ(pool.read_durable_record(7).cur, 20u);
  EXPECT_EQ(pool.read_durable_record(9).cur, 0u);  // thread 1 has not fenced
  pool.fence(1);
  EXPECT_EQ(pool.read_durable_record(9).cur, 30u);
}

TEST(PmemPool, FenceCoalescesSameLineFlushes) {
  // Records are 32 bytes, lines 64: addresses 2 and 3 share a record line.
  // Flushing both counts two requests but the duplicate is coalesced into
  // flush_dedup_count() at enqueue time (O(1) dedup), so the fence
  // persists (and charges) the line once.
  PmemPool pool(small_cfg());
  pool.record_write(0, 2, 0, 20, 1);
  pool.record_write(0, 3, 0, 30, 1);
  pool.flush_record(0, 2);
  pool.flush_record(0, 3);
  EXPECT_EQ(pool.flush_count(), 2u);
  EXPECT_EQ(pool.flush_dedup_count(), 1u);  // coalesced at enqueue
  pool.fence(0);
  EXPECT_EQ(pool.flush_dedup_count(), 1u);
  EXPECT_EQ(pool.read_durable_record(2).cur, 20u);
  EXPECT_EQ(pool.read_durable_record(3).cur, 30u);

  // Distinct lines are not dedup'd.
  pool.record_write(0, 2, 20, 21, 2);
  pool.record_write(0, 8, 0, 80, 2);
  pool.flush_record(0, 2);
  pool.flush_record(0, 8);
  pool.fence(0);
  EXPECT_EQ(pool.flush_dedup_count(), 1u);
  EXPECT_EQ(pool.read_durable_record(2).cur, 21u);
  EXPECT_EQ(pool.read_durable_record(8).cur, 80u);
}

TEST(PmemPool, PverPersistsPerThread) {
  PmemPool pool(small_cfg());
  EXPECT_EQ(pool.load_pver(4), 0u);
  pool.store_pver(4, 9);
  pool.flush_pver(4);
  pool.fence(4);
  EXPECT_EQ(pool.load_pver(4), 9u);
  EXPECT_EQ(pool.load_pver(5), 0u);
}

TEST(PmemPool, RootSlotsPersistImmediately) {
  PmemPool pool(small_cfg());
  pool.store_root_persist(0, 2, 0xABCD);
  EXPECT_EQ(pool.load_root(2), 0xABCDu);
  // Crash with zero write-back probability: only fenced state survives.
  pool.crash(CrashPolicy{0.0, 1});
  EXPECT_EQ(pool.load_root(2), 0xABCDu);
}

TEST(PmemPool, CrashDropsVolatileAndUnflushedState) {
  PmemPool pool(small_cfg());
  pool.store(5, 99);                      // volatile only
  pool.record_write(0, 7, 0, 20, 1);      // staged, never flushed
  pool.record_write(0, 8, 0, 30, 1);      // staged + flushed + fenced
  pool.flush_record(0, 8);
  pool.fence(0);
  pool.crash(CrashPolicy{0.0, 42});
  EXPECT_EQ(pool.load(5), 0u);                  // DRAM gone
  EXPECT_EQ(pool.read_record(7).cur, 0u);       // cache gone
  EXPECT_EQ(pool.read_record(8).cur, 30u);      // durable survived
  EXPECT_EQ(pool.read_durable_record(8).cur, 30u);
}

TEST(PmemPool, CrashWritebackCanPersistUnflushedData) {
  // Spontaneous write-back may persist dirty lines even without a flush;
  // the adversary picks a per-line store-order cut, so across seeds some
  // crashes expose the unflushed store and some do not.
  int persisted = 0, dropped = 0;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    PmemPool pool(small_cfg());
    pool.record_write(0, 7, 0, 20, 1);  // dirty, unflushed
    pool.crash(CrashPolicy{1.0, seed});
    const std::uint64_t cur = pool.read_record(7).cur;
    EXPECT_TRUE(cur == 0 || cur == 20);
    persisted += cur == 20;
    dropped += cur == 0;
  }
  EXPECT_GT(persisted, 0);
  EXPECT_GT(dropped, 0);
}

TEST(PmemPool, CrashWithoutStoreOrderTrackingPersistsWholeLines) {
  PmemConfig cfg = small_cfg(/*track_order=*/false);
  PmemPool pool(cfg);
  pool.record_write(0, 7, 0, 20, 1);  // dirty, unflushed
  pool.crash(CrashPolicy{1.0, 42});
  // Without store-order tracking the adversary is all-or-nothing per line.
  EXPECT_EQ(pool.read_record(7).cur, 20u);
}

TEST(PmemPool, CrashPrefixRespectsSameLineStoreOrder) {
  // Trinity's write order within a record's line is old, pver, cur. A
  // partial write-back must expose only prefixes of that order: it is
  // impossible to see the new `cur` without the new `old`.
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    PmemPool pool(small_cfg());
    // Establish a baseline committed record (old=0 -> cur=10).
    pool.record_write(0, 7, 0, 10, 1);
    pool.flush_record(0, 7);
    pool.fence(0);
    // In-flight update 10 -> 20, seq 2, never fenced.
    pool.record_write(0, 7, 10, 20, 2);
    pool.crash(CrashPolicy{1.0, seed});
    const PRecord r = pool.read_record(7);
    const bool cur_new = r.cur == 20;
    const bool pver_new = pver_seq(r.pver) == 2;
    const bool old_new = r.old == 10;
    if (cur_new) {
      EXPECT_TRUE(pver_new) << "seed " << seed;
    }
    if (pver_new) {
      EXPECT_TRUE(old_new) << "seed " << seed;
    }
    // And never anything other than the four legal prefixes.
    EXPECT_TRUE(r.cur == 10 || r.cur == 20) << "seed " << seed;
    EXPECT_TRUE(r.old == 0 || r.old == 10) << "seed " << seed;
  }
}

// The staged image keeps only a word's last value, so a crash cannot cut
// between two stores of one word: after x@1, y@2, x@3 on one unfenced line,
// y = 2 may persist only with x = 1, which the pool no longer holds. All
// three stores persist or none does; y = 2 with x = 0 is an image x86
// cannot produce.
TEST(PmemPool, CrashNeverPersistsAStoreWithoutAnEarlierOneOfItsLine) {
  int all = 0, none = 0;
  for (std::uint64_t seed = 0; seed < 2000; ++seed) {
    PmemPool pool(small_cfg());
    const std::size_t x = pool.alloc_raw(2);
    const std::size_t y = x + 1;
    pool.raw_store(0, x, 1);
    pool.raw_store(0, y, 2);
    pool.raw_store(0, x, 3);
    pool.crash(CrashPolicy{1.0, seed});
    const std::uint64_t dx = pool.raw_load_durable(x);
    const std::uint64_t dy = pool.raw_load_durable(y);
    ASSERT_TRUE((dx == 0 && dy == 0) || (dx == 3 && dy == 2))
        << "seed " << seed << ": x=" << dx << " y=" << dy;
    all += dx == 3;
    none += dx == 0;
  }
  EXPECT_GT(all, 0);
  EXPECT_GT(none, 0);
}

TEST(PmemPool, RawRegionAllocAndPersistence) {
  PmemPool pool(small_cfg());
  const std::size_t idx = pool.alloc_raw(4);
  const std::size_t idx2 = pool.alloc_raw(4);
  EXPECT_NE(idx, idx2);
  EXPECT_EQ(idx % kWordsPerLine, 0u);  // line aligned
  pool.raw_store(0, idx, 77);
  EXPECT_EQ(pool.raw_load(idx), 77u);
  EXPECT_EQ(pool.raw_load_durable(idx), 0u);
  pool.flush_raw(0, idx);
  pool.fence(0);
  EXPECT_EQ(pool.raw_load_durable(idx), 77u);
}

TEST(PmemPool, RawRegionExhaustionThrows) {
  PmemConfig cfg = small_cfg();
  cfg.raw_words = 64;
  PmemPool pool(cfg);
  EXPECT_THROW(
      {
        for (int i = 0; i < 100; ++i) pool.alloc_raw(8);
      },
      TmLogicError);
}

TEST(PmemPool, FlushAndFenceCountersAdvance) {
  PmemPool pool(small_cfg());
  const auto f0 = pool.flush_count();
  const auto n0 = pool.fence_count();
  pool.record_write(0, 3, 0, 1, 1);
  pool.flush_record(0, 3);
  pool.fence(0);
  EXPECT_EQ(pool.flush_count(), f0 + 1);
  EXPECT_EQ(pool.fence_count(), n0 + 1);
}

TEST(PmemPool, EmptyQueueFenceIsANoOp) {
  PmemPool pool(small_cfg());
  pool.fence(0);  // nothing flushed since the last fence
  EXPECT_EQ(pool.fence_count(), 0u);
  EXPECT_EQ(pool.fence_flush_hist().count(), 0u);
  // A flush on another thread's queue does not give tid 0 anything to fence.
  pool.record_write(1, 3, 0, 1, pack_pver(1, 1));
  pool.flush_record(1, 3);
  pool.fence(0);
  EXPECT_EQ(pool.fence_count(), 0u);
  EXPECT_EQ(pool.read_durable_record(3).cur, 0u);
}

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kCacheLineBytes == 0;
}

TEST(PmemPool, WordImagesAreLineAligned) {
  // 2^16 words and up is where unaligned heap images started 16 bytes past
  // a line boundary, splitting every simulated line over two real ones.
  for (const std::size_t words : {std::size_t{1} << 12, std::size_t{1} << 16, std::size_t{1} << 18}) {
    PmemConfig cfg = small_cfg(false);
    cfg.capacity_words = words;
    cfg.raw_words = words;
    PmemPool pool(cfg);
    for (const void* base : pool.image_bases()) EXPECT_TRUE(line_aligned(base)) << words;
  }
}

// An anonymous pool's staged images are not copied from its durable ones:
// both start as fresh zero pages. A second pool of the same geometry, built
// where a dirtied one was just freed, must read zero everywhere too.
TEST(PmemPool, FreshAnonymousPoolReadsZeroWithoutTheStagedCopy) {
  const PmemConfig cfg = small_cfg(false);
  {
    PmemPool used(cfg);
    for (gaddr_t a = 1; a < used.capacity_words(); a += 97) {
      used.record_write(0, a, a, a + 1, pack_pver(0, a));
      used.flush_record(0, a);
    }
    used.raw_store(0, used.alloc_raw(1), 5);
    used.store_pver(0, 3);
    used.flush_pver(0);
    used.fence(0);
  }
  PmemPool pool(cfg);
  for (gaddr_t a = 0; a < pool.capacity_words(); ++a) {
    const PRecord staged = pool.read_record(a);
    const PRecord durable = pool.read_durable_record(a);
    ASSERT_EQ(staged.cur | staged.old | staged.pver, 0u) << "staged record " << a;
    ASSERT_EQ(durable.cur | durable.old | durable.pver, 0u) << "durable record " << a;
    ASSERT_EQ(pool.load(a), 0u) << "volatile word " << a;
  }
  for (std::size_t i = 0; i < pool.raw_space_words(); ++i) {
    ASSERT_EQ(pool.raw_load(i), 0u) << "staged raw word " << i;
    ASSERT_EQ(pool.raw_load_durable(i), 0u) << "durable raw word " << i;
  }
}

/// The host's THP mode: the bracketed word of
/// /sys/kernel/mm/transparent_hugepage/enabled, or "" without THP.
std::string thp_mode() {
  std::ifstream f("/sys/kernel/mm/transparent_hugepage/enabled");
  std::string line;
  std::getline(f, line);
  const std::size_t open = line.find('['), close = line.find(']');
  if (open == std::string::npos || close == std::string::npos) return "";
  return line.substr(open + 1, close - open - 1);
}

/// The `THPeligible` value of the /proc/self/smaps entry whose address
/// range holds `p`, or -1 when no entry (or no such line) does.
int thp_eligible(const void* p) {
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  std::ifstream smaps("/proc/self/smaps");
  bool inside = false;
  for (std::string line; std::getline(smaps, line);) {
    unsigned long lo = 0, hi = 0;
    // Entry header: "lo-hi perms offset dev inode [path]".
    if (std::sscanf(line.c_str(), "%lx-%lx ", &lo, &hi) == 2) {
      inside = lo <= addr && addr < hi;
    } else if (inside && line.rfind("THPeligible:", 0) == 0) {
      return std::stoi(line.substr(std::strlen("THPeligible:")));
    }
  }
  return -1;
}

// Every pool image and lock array of at least one huge page asks for
// transparent huge pages (util/mapped_array.hpp): on a `madvise` host only
// the advice makes a mapping eligible.
TEST(PmemMemoryBacking, LargeImagesAndLockArraysAreThpEligible) {
  const std::string mode = thp_mode();
  if (mode.empty() || mode == "never") GTEST_SKIP() << "transparent huge pages are off";
  PmemConfig cfg = small_cfg(false);
  cfg.capacity_words = std::size_t{1} << 22;
  PmemPool pool(cfg);
  const std::size_t persist_bytes = pool.persist_space_words() * sizeof(std::uint64_t);
  const std::array<std::size_t, 3> bytes = {pool.capacity_words() * sizeof(std::uint64_t),
                                            persist_bytes, persist_bytes};
  const auto bases = pool.image_bases();
  int checked = 0;
  for (std::size_t i = 0; i < bases.size(); ++i) {
    if (bytes[i] < kHugePageBytes) continue;
    EXPECT_EQ(thp_eligible(bases[i]), 1) << "pool image " << i << " (" << bytes[i] << " bytes)";
    ++checked;
  }
  EXPECT_EQ(checked, 3);  // volatile, staged and durable: the raw region is inside both

  LockSpace table(LockMode::kTable, std::size_t{1} << 16, 0);  // 4 MiB
  EXPECT_EQ(thp_eligible(table.ref(0).s), 1) << "lock table";
  LockSpace colocated(LockMode::kColocated, 0, std::size_t{1} << 18);  // 4 MiB
  EXPECT_EQ(thp_eligible(colocated.ref(0).s), 1) << "colocated lock array";
}

PmemConfig billed_cfg() {
  PmemConfig cfg = small_cfg(false);
  cfg.nvm_store_latency_ns = 50;
  cfg.flush_latency_ns = 150;
  cfg.fence_latency_ns = 80;
  return cfg;
}

TEST(PmemBilling, FenceBillsStoresUniqueLinesAndOneFence) {
  const PmemConfig cfg = billed_cfg();
  PmemPool pool(cfg);
  const std::size_t raw = pool.alloc_raw(1);
  // Five stores: records 2 and 3 share a line, record 8 has its own.
  pool.record_write(0, 2, 0, 20, 1);
  pool.record_write(0, 3, 0, 30, 1);
  pool.record_write(0, 8, 0, 80, 1);
  pool.store_pver(0, 1);
  pool.raw_store(0, raw, 7);
  EXPECT_EQ(pool.billed_ns(), 0u);  // stores only owe their latency
  // Five flush requests over four unique lines.
  pool.flush_record(0, 2);
  pool.flush_record(0, 3);
  pool.flush_record(0, 8);
  pool.flush_pver(0);
  pool.flush_raw(0, raw);
  pool.fence(0);
  EXPECT_EQ(pool.billed_ns(),
            5 * cfg.nvm_store_latency_ns + 4 * cfg.flush_latency_ns + cfg.fence_latency_ns);
  EXPECT_EQ(pool.fence_count(), 1u);
  EXPECT_EQ(pool.flush_count(), 5u);
  EXPECT_EQ(pool.flush_dedup_count(), 1u);
}

TEST(PmemBilling, DuplicateFlushAddsNoTimeAndAnIdleFenceBillsNothing) {
  const PmemConfig cfg = billed_cfg();
  PmemPool pool(cfg);
  pool.record_write(0, 7, 0, 20, 1);
  pool.flush_record(0, 7);
  pool.flush_record(0, 7);
  pool.fence(0);
  const std::uint64_t one_line =
      cfg.nvm_store_latency_ns + cfg.flush_latency_ns + cfg.fence_latency_ns;
  EXPECT_EQ(pool.billed_ns(), one_line);
  pool.fence(0);  // no debt, nothing queued
  EXPECT_EQ(pool.billed_ns(), one_line);
  EXPECT_EQ(pool.fence_count(), 1u);
  // Store debt alone is paid by the next fence, which writes back nothing
  // and so bills no fence latency and counts no fence.
  pool.store_pver(0, 2);
  pool.fence(0);
  EXPECT_EQ(pool.billed_ns(), one_line + cfg.nvm_store_latency_ns);
  EXPECT_EQ(pool.fence_count(), 1u);
}

TEST(PmemBilling, WithoutFlushesAFenceBillsOnlyStoreDebt) {
  PmemConfig cfg = billed_cfg();
  cfg.eadr = true;  // also Fig. 9's NO-FLUSH-FENCE level
  PmemPool pool(cfg);
  pool.record_write(0, 2, 0, 20, 1);
  pool.record_write(0, 8, 0, 80, 1);
  pool.store_pver(0, 1);
  pool.flush_record(0, 2);
  pool.flush_record(0, 8);
  pool.flush_pver(0);
  pool.fence(0);
  EXPECT_EQ(pool.billed_ns(), 3 * cfg.nvm_store_latency_ns);
  EXPECT_EQ(pool.fence_count(), 0u);
  EXPECT_EQ(pool.flush_count(), 0u);
}

TEST(PmemBilling, EachFenceTakesAtLeastItsBill) {
  PmemConfig cfg = small_cfg(false);
  cfg.nvm_store_latency_ns = 1000;
  cfg.flush_latency_ns = 2000;
  cfg.fence_latency_ns = 3000;
  PmemPool pool(cfg);
  for (std::uint64_t i = 1; i <= 20; ++i) {
    pool.record_write(0, 2, 0, i, i);
    pool.record_write(0, 8, 0, i, i);
    pool.flush_record(0, 2);
    pool.flush_record(0, 8);
    const std::uint64_t billed0 = pool.billed_ns();
    const auto t0 = std::chrono::steady_clock::now();
    pool.fence(0);
    const auto wall = std::chrono::steady_clock::now() - t0;
    const std::uint64_t bill = pool.billed_ns() - billed0;
    EXPECT_EQ(bill, 2 * cfg.nvm_store_latency_ns + 2 * cfg.flush_latency_ns +
                        cfg.fence_latency_ns);
    EXPECT_GE(std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count(),
              static_cast<std::int64_t>(bill))
        << "fence " << i;
  }
}

TEST(PmemConcurrency, PerThreadCountersSumExactly) {
  // Four threads write, flush and fence their own lines at once; the
  // summed counters must come out exact.
  constexpr int kThreads = 4;
  constexpr std::uint64_t kIters = 2000;
  constexpr gaddr_t kLinesPerThread = 32;
  PmemConfig cfg = small_cfg(false);
  cfg.nvm_store_latency_ns = 1;
  cfg.flush_latency_ns = 2;
  cfg.fence_latency_ns = 3;
  PmemPool pool(cfg);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, &ready, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (std::uint64_t i = 1; i <= kIters; ++i) {
        // Both records of one of this thread's lines: one flush dedups.
        const gaddr_t a = 2 * (static_cast<gaddr_t>(t) * kLinesPerThread + i % kLinesPerThread);
        pool.record_write(t, a, 0, i, pack_pver(t, i));
        pool.record_write(t, a + 1, 0, i, pack_pver(t, i));
        pool.flush_record(t, a);
        pool.flush_record(t, a + 1);
        pool.store_pver(t, i);
        pool.flush_pver(t);
        pool.fence(t);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  const std::uint64_t fences = kThreads * kIters;
  EXPECT_EQ(pool.fence_count(), fences);
  EXPECT_EQ(pool.flush_count(), 3 * fences);
  EXPECT_EQ(pool.flush_dedup_count(), fences);
  EXPECT_EQ(pool.billed_ns(), fences * (3 * cfg.nvm_store_latency_ns +
                                        2 * cfg.flush_latency_ns + cfg.fence_latency_ns));
  EXPECT_EQ(pool.fence_flush_hist().count(), fences);
  EXPECT_EQ(pool.fence_flush_hist().sum(), 2 * fences);
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(pool.load_pver(t), kIters);
}

TEST(PmemPool, RevertRecordRestoresOldValue) {
  PersistJournal journal;
  PmemConfig cfg = small_cfg();
  cfg.journal = &journal;
  cfg.nvm_store_latency_ns = 50;
  PmemPool pool(cfg);
  pool.record_write(0, 7, 10, 20, 3);
  pool.fence(0);  // pays the write's store debt
  journal.clear();
  const std::uint64_t billed = pool.billed_ns();

  pool.revert_record(/*tid=*/2, 7);
  const PRecord r = pool.read_record(7);
  EXPECT_EQ(r.cur, 10u);
  EXPECT_EQ(r.old, 10u);

  // The revert is the recovery worker's store: journalled under its tid,
  // and its latency billed at that worker's next fence.
  const std::vector<PersistEvent> events = journal.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, PersistEventKind::kStore);
  EXPECT_EQ(events[0].tid, 2);
  EXPECT_EQ(events[0].value, 10u);
  pool.fence(2);
  EXPECT_EQ(pool.billed_ns(), billed + cfg.nvm_store_latency_ns);
}

TEST(PmemInspector, ReportsInFlightAndDurability) {
  PmemPool pool(small_cfg());
  PmemInspector inspector(pool);

  // Fresh pool: nothing touched.
  PmemReport r = inspector.scan();
  EXPECT_EQ(r.touched_records, 0u);
  EXPECT_EQ(r.in_flight_records, 0u);
  EXPECT_TRUE(r.active_threads.empty());

  // An in-flight write (pver not yet advanced): counted as in-flight and
  // not durable.
  pool.record_write(/*tid=*/2, /*a=*/7, /*old=*/0, /*new=*/9, pack_pver(2, 0));
  r = inspector.scan();
  EXPECT_EQ(r.touched_records, 1u);
  EXPECT_EQ(r.in_flight_records, 1u);
  EXPECT_GE(r.undurable_records, 1u);

  // Complete the protocol: flush record, bump + flush pVerNum.
  pool.flush_record(2, 7);
  pool.fence(2);
  pool.store_pver(2, 1);
  pool.flush_pver(2);
  pool.fence(2);
  r = inspector.scan();
  EXPECT_EQ(r.in_flight_records, 0u);
  ASSERT_EQ(r.active_threads.size(), 1u);
  EXPECT_EQ(r.active_threads[0], 2);
  EXPECT_EQ(r.thread_pvers[0], 1u);
  EXPECT_FALSE(r.to_string().empty());
}

class FileBackedPmemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Process id plus test name: unique across the processes a parallel
    // ctest runs at once (a heap address is not — ASan processes share
    // their layout).
    path_ = testing::TempDir() + "nvhalt_pool_" + std::to_string(::getpid()) + "_" +
            testing::UnitTest::GetInstance()->current_test_info()->name() + ".pm";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  PmemConfig file_cfg() {
    PmemConfig cfg = small_cfg();
    cfg.backing_path = path_;
    return cfg;
  }
  std::string path_;
};

TEST_F(FileBackedPmemTest, DurableStateSurvivesPoolDestruction) {
  {
    PmemPool pool(file_cfg());
    EXPECT_FALSE(pool.attached_existing());
    pool.record_write(0, 7, 0, 77, 0);
    pool.flush_record(0, 7);
    pool.fence(0);
    pool.store_pver(0, 1);
    pool.flush_pver(0);
    pool.fence(0);
    pool.sync_to_disk();
  }  // process "exits"
  {
    PmemPool pool(file_cfg());
    EXPECT_TRUE(pool.attached_existing());
    // Staged view starts from the previous run's durable image.
    EXPECT_EQ(pool.read_record(7).cur, 77u);
    EXPECT_EQ(pool.load_pver(0), 1u);
    // The volatile image starts empty, as after any crash.
    EXPECT_EQ(pool.load(7), 0u);
  }
}

TEST_F(FileBackedPmemTest, UnfencedStateDoesNotSurviveRestart) {
  {
    PmemPool pool(file_cfg());
    pool.record_write(0, 7, 0, 77, 0);  // staged only, never fenced
  }
  {
    PmemPool pool(file_cfg());
    EXPECT_TRUE(pool.attached_existing());
    EXPECT_EQ(pool.read_record(7).cur, 0u);
  }
}

// The file is the durable word space after its 4096-byte header: raw word
// i is payload word i, and record a's cur, old and pver are payload words
// raw_space_words() + 4a + {0, 1, 2}.
TEST_F(FileBackedPmemTest, FileHoldsTheRawWordsThenTheRecordsAfterItsHeader) {
  PmemPool pool(file_cfg());
  const std::size_t raw = pool.alloc_raw(1);
  pool.raw_store(0, raw, 0x1111);
  pool.flush_raw(0, raw);
  pool.record_write(0, 7, 0x70, 0x71, pack_pver(5, 9));
  pool.flush_record(0, 7);
  pool.fence(0);

  constexpr std::size_t kHeaderWords = 4096 / sizeof(std::uint64_t);
  std::vector<std::uint64_t> file(kHeaderWords + pool.persist_space_words());
  std::ifstream f(path_, std::ios::binary | std::ios::ate);
  ASSERT_EQ(static_cast<std::size_t>(f.tellg()), file.size() * sizeof(std::uint64_t));
  f.seekg(0).read(reinterpret_cast<char*>(file.data()), file.size() * sizeof(std::uint64_t));
  ASSERT_TRUE(f.good());
  const std::uint64_t* payload = file.data() + kHeaderWords;
  for (std::size_t i = 0; i < pool.raw_space_words(); ++i)
    ASSERT_EQ(payload[i], pool.raw_load_durable(i)) << "raw word " << i;
  EXPECT_EQ(payload[raw], 0x1111u);
  const std::uint64_t* rec = payload + pool.raw_space_words() + 4 * 7;
  EXPECT_EQ(rec[0], 0x71u);
  EXPECT_EQ(rec[1], 0x70u);
  EXPECT_EQ(rec[2], pack_pver(5, 9));
}

TEST_F(FileBackedPmemTest, MappedImagesAreLineAligned) {
  PmemPool pool(file_cfg());
  for (const void* base : pool.image_bases()) EXPECT_TRUE(line_aligned(base));
}

TEST_F(FileBackedPmemTest, GeometryMismatchIsRejected) {
  { PmemPool pool(file_cfg()); }
  PmemConfig other = file_cfg();
  other.capacity_words *= 2;
  EXPECT_THROW(PmemPool{other}, TmLogicError);
}

// A file whose header fails the magic/version check (here version 1, whose
// allocator intent tags predate the payload binding) is rejected after it
// was mapped; the rejection must unmap it. Three rejected attempts would
// otherwise leave three mappings of the file behind.
TEST_F(FileBackedPmemTest, RejectedAttachLeavesNoMapping) {
  { PmemPool pool(file_cfg()); }
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    const std::uint64_t version = 1;
    f.seekp(sizeof(std::uint64_t));  // header: magic, version, ...
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    ASSERT_TRUE(f.good());
  }
  for (int attempt = 0; attempt < 3; ++attempt) {
    try {
      PmemPool pool(file_cfg());
      FAIL() << "a version-1 pool file attached";
    } catch (const TmLogicError& e) {
      EXPECT_NE(std::string(e.what()).find("bad magic/version"), std::string::npos) << e.what();
    }
  }
  const std::string name = path_.substr(path_.find_last_of('/') + 1);
  std::ifstream maps("/proc/self/maps");
  ASSERT_TRUE(maps.good());
  for (std::string line; std::getline(maps, line);)
    EXPECT_EQ(line.find(name), std::string::npos) << "still mapped: " << line;
}

TEST_F(FileBackedPmemTest, CrashSimulationWorksOnFileBackedPools) {
  PmemPool pool(file_cfg());
  pool.record_write(0, 9, 0, 5, 0);
  pool.flush_record(0, 9);
  pool.fence(0);
  pool.record_write(0, 10, 0, 6, 1);  // unfenced
  pool.crash(CrashPolicy{0.0, 3});
  EXPECT_EQ(pool.read_record(9).cur, 5u);
  EXPECT_EQ(pool.read_record(10).cur, 0u);
}

TEST(CrashCoordinator, TripsAllCrashPoints) {
  CrashCoordinator c;
  EXPECT_NO_THROW(c.crash_point());
  c.trip();
  EXPECT_TRUE(c.tripped());
  EXPECT_THROW(c.crash_point(), SimulatedPowerFailure);
  c.reset();
  EXPECT_NO_THROW(c.crash_point());
}

TEST(CrashCoordinator, PmemOpsPollTheCoordinator) {
  PmemPool pool(small_cfg());
  CrashCoordinator c;
  pool.set_crash_coordinator(&c);
  pool.record_write(0, 3, 0, 1, 1);  // fine while armed but not tripped
  c.trip();
  EXPECT_THROW(pool.record_write(0, 3, 0, 2, 2), SimulatedPowerFailure);
  EXPECT_THROW(pool.fence(0), SimulatedPowerFailure);
  pool.set_crash_coordinator(nullptr);
  EXPECT_NO_THROW(pool.record_write(0, 3, 0, 2, 2));
}

TEST(PmemPool, EadrMakesEveryStagedStoreDurableOnCrash) {
  PmemConfig cfg = small_cfg();
  cfg.eadr = true;
  PmemPool pool(cfg);
  pool.record_write(0, 7, 0, 20, 1);  // never flushed — eADR does not care
  EXPECT_EQ(pool.fence_count(), 0u);
  pool.fence(0);  // no-op on eADR platforms
  EXPECT_EQ(pool.fence_count(), 0u);
  pool.crash(CrashPolicy{0.0, 1});
  EXPECT_EQ(pool.read_record(7).cur, 20u);
}

TEST(PmemPool, EadrFlushesAreFreeNoOps) {
  PmemConfig cfg = small_cfg();
  cfg.eadr = true;
  cfg.flush_latency_ns = 1000000;  // would be visible if flushes ran
  PmemPool pool(cfg);
  pool.record_write(0, 3, 0, 1, 1);
  const auto t0 = std::chrono::steady_clock::now();
  pool.flush_record(0, 3);
  pool.fence(0);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_LT(std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count(), 500);
  EXPECT_EQ(pool.flush_count(), 0u);
}

TEST(PmemPool, CrashIsIdempotentOnDurableState) {
  PmemPool pool(small_cfg());
  pool.record_write(0, 7, 0, 20, 1);
  pool.flush_record(0, 7);
  pool.fence(0);
  pool.crash(CrashPolicy{0.0, 1});
  pool.crash(CrashPolicy{0.0, 2});
  EXPECT_EQ(pool.read_record(7).cur, 20u);
}

}  // namespace
}  // namespace nvhalt
