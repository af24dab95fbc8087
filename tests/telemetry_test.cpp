// Telemetry layer tests: PowHistogram bucketing, TraceRing ordering /
// wraparound / overflow-drop accounting (including a TSan-targeted
// concurrent-writer suite), abort-cause decoding into the per-thread
// TmStats record, the cause-sum invariant across all five TMs,
// MetricsRegistry JSON/Prometheus export, and the raw-trace/chrome-trace
// serialization round trip (which works at any NVHALT_TELEMETRY level —
// rings are constructed directly).
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <numeric>
#include <sstream>
#include <thread>

#include "telemetry/histogram.hpp"
#include "telemetry/metrics_registry.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_io.hpp"
#include "test_helpers.hpp"

namespace nvhalt {
namespace {

namespace tel = telemetry;
using tel::EventKind;
using tel::PowHistogram;
using tel::TraceEvent;
using tel::TraceRing;

// ---------------------------------------------------------------- histogram

TEST(PowHistogram, BucketsArePowersOfTwo) {
  EXPECT_EQ(PowHistogram::bucket_of(0), 0);
  EXPECT_EQ(PowHistogram::bucket_of(1), 1);
  EXPECT_EQ(PowHistogram::bucket_of(2), 2);
  EXPECT_EQ(PowHistogram::bucket_of(3), 2);
  EXPECT_EQ(PowHistogram::bucket_of(4), 3);
  EXPECT_EQ(PowHistogram::bucket_of(~std::uint64_t{0}), 64);

  EXPECT_EQ(PowHistogram::bucket_upper_bound(0), 0u);
  EXPECT_EQ(PowHistogram::bucket_upper_bound(1), 1u);
  EXPECT_EQ(PowHistogram::bucket_upper_bound(3), 7u);
  EXPECT_EQ(PowHistogram::bucket_upper_bound(64), ~std::uint64_t{0});
}

TEST(PowHistogram, RecordMergeAndQuantiles) {
  PowHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.used_buckets(), 0);
  EXPECT_EQ(h.quantile_bound(0.5), 0u);

  for (std::uint64_t v : {1u, 1u, 2u, 3u, 100u}) h.record(v);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 107u);
  EXPECT_DOUBLE_EQ(h.mean(), 107.0 / 5.0);
  EXPECT_EQ(h.bucket_count(1), 2u);  // the two 1s
  EXPECT_EQ(h.bucket_count(2), 2u);  // 2 and 3
  EXPECT_EQ(h.bucket_count(7), 1u);  // 100 in [64, 127]
  EXPECT_EQ(h.used_buckets(), 8);
  EXPECT_EQ(h.quantile_bound(0.4), 1u);    // 2 of 5 <= bucket 1's bound
  EXPECT_EQ(h.quantile_bound(0.5), 3u);    // needs bucket 2 ({2, 3})
  EXPECT_EQ(h.quantile_bound(0.99), 127u); // needs the 100

  PowHistogram other;
  other.record(100);
  h.add(other);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_EQ(h.bucket_count(7), 2u);

  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.used_buckets(), 0);
}

// ---------------------------------------------------------------- trace ring

TEST(TraceRing, PreservesOrderBelowCapacity) {
  TraceRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i)
    ring.push(EventKind::kHwAttempt, /*cause=*/0xFF, /*tid=*/7, i, /*ticks=*/1000 + i);
  EXPECT_EQ(ring.pushed(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].kind, EventKind::kHwAttempt);
    EXPECT_EQ(events[i].tid, 7u);
    EXPECT_EQ(events[i].arg, i);
    EXPECT_EQ(events[i].ticks, 1000 + i);
    EXPECT_EQ(events[i].cause, 0xFF);
  }
}

TEST(TraceRing, WraparoundKeepsNewestAndCountsDropped) {
  TraceRing ring(4);
  for (std::uint64_t i = 0; i < 10; ++i)
    ring.push(EventKind::kFence, 0xFF, 0, i, i);
  EXPECT_EQ(ring.capacity(), 4u);
  EXPECT_EQ(ring.pushed(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);  // exact: pushed - capacity

  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 4u);
  for (std::uint64_t i = 0; i < 4; ++i) EXPECT_EQ(events[i].arg, 6 + i);

  ring.clear();
  EXPECT_EQ(ring.pushed(), 0u);
  EXPECT_TRUE(ring.snapshot().empty());
}

TEST(TraceRing, HwAbortCarriesCauseByte) {
  TraceRing ring(8);
  ring.push(EventKind::kHwAbort, static_cast<std::uint8_t>(htm::AbortCause::kCapacity),
            3, /*code=*/0xAB, 1);
  const auto events = ring.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, EventKind::kHwAbort);
  EXPECT_EQ(events[0].cause, static_cast<std::uint8_t>(htm::AbortCause::kCapacity));
  EXPECT_EQ(events[0].arg, 0xABu);
}

// Concurrent single producer vs a racing snapshotter. The snapshot contract:
// never torn — every returned event was genuinely pushed, in order. Runs
// under the tsan-concurrency preset (suite name is in its filter).
TEST(TraceRingConcurrency, SnapshotsAreNeverTorn) {
  TraceRing ring(64);
  constexpr std::uint64_t kPushes = 20000;
  std::atomic<bool> done{false};

  std::thread producer([&] {
    for (std::uint64_t i = 0; i < kPushes; ++i)
      ring.push(EventKind::kSwAttempt, 0xFF, 1, i, /*ticks=*/i);
    done.store(true, std::memory_order_release);
  });

  // do-while: even if the producer outruns us entirely, validate at least
  // one snapshot.
  std::uint64_t snapshots = 0;
  std::string violation;
  do {
    const auto events = ring.snapshot();
    ++snapshots;
    // Survivors are a contiguous, strictly increasing slice of the pushed
    // sequence; a torn read would break kind, tid, or the arg progression.
    for (std::size_t i = 0; i < events.size() && violation.empty(); ++i) {
      if (events[i].kind != EventKind::kSwAttempt || events[i].tid != 1 ||
          events[i].arg >= kPushes) {
        violation = "torn event at snapshot index " + std::to_string(i);
      } else if (i > 0 && events[i].arg != events[i - 1].arg + 1) {
        violation = "non-contiguous args " + std::to_string(events[i - 1].arg) +
                    " -> " + std::to_string(events[i].arg);
      }
    }
  } while (violation.empty() && !done.load(std::memory_order_acquire));
  producer.join();
  EXPECT_TRUE(violation.empty()) << violation;
  EXPECT_GT(snapshots, 0u);
  EXPECT_EQ(ring.pushed(), kPushes);
  EXPECT_EQ(ring.dropped(), kPushes - ring.capacity());
  const auto final_events = ring.snapshot();
  ASSERT_EQ(final_events.size(), ring.capacity());
  EXPECT_EQ(final_events.back().arg, kPushes - 1);
}

TEST(TraceRingConcurrency, BufferCollectGathersPerTidRings) {
  auto& buf = tel::TraceBuffer::instance();
  buf.clear();
  buf.ring(0).push(EventKind::kTxBegin, 0xFF, 0, 0, 1);
  buf.ring(2).push(EventKind::kTxBegin, 0xFF, 2, 0, 2);
  buf.ring(2).push(EventKind::kSwCommit, 0xFF, 2, 0, 3);

  const auto threads = buf.collect();
  ASSERT_EQ(threads.size(), 2u);
  EXPECT_EQ(threads[0].tid, 0);
  EXPECT_EQ(threads[0].events.size(), 1u);
  EXPECT_EQ(threads[1].tid, 2);
  EXPECT_EQ(threads[1].pushed, 2u);
  EXPECT_EQ(threads[1].dropped, 0u);
  buf.clear();
  EXPECT_TRUE(buf.collect().empty());
}

// ------------------------------------------------------------ abort causes

template <std::size_t N>
std::uint64_t total(const std::array<std::uint64_t, N>& by_cause) {
  return std::accumulate(by_cause.begin(), by_cause.end(), std::uint64_t{0});
}

TEST(AbortCauses, RecordHwAbortKeepsAllViewsInLockstep) {
  runtime::TxThreadState ts;
  ts.record_hw_abort(0, htm::AbortCause::kConflict);
  ts.record_hw_abort(0, htm::AbortCause::kCapacity);
  ts.record_hw_abort(0, htm::AbortCause::kConflict);
  ts.record_hw_abort(0, htm::AbortCause::kExplicit, /*code=*/0x42);

  EXPECT_EQ(ts.stats.hw_aborts, 4u);
  EXPECT_EQ(total(ts.stats.hw_by_cause), 4u);  // never loses history
  EXPECT_EQ(ts.stats.hw_by_cause[0], 2u);  // conflict
  EXPECT_EQ(ts.stats.hw_by_cause[1], 1u);  // capacity
  EXPECT_EQ(ts.stats.hw_by_cause[2], 1u);  // explicit
}

TEST(AbortCauses, CapacityAbortsAreDecoded) {
  RunnerConfig cfg = test::small_config(TmKind::kNvHalt);
  cfg.htm.l1_ways = 1;
  cfg.htm.l1_sets = 1;  // any two distinct written lines overflow
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  const gaddr_t b = runner.alloc().raw_alloc_large(kWordsPerLine * 4);

  tm.run(0, [&](Tx& tx) {
    tx.write(a, 1);
    tx.write(b + kWordsPerLine * 2, 2);  // different line, different set slot
  });

  const TmStats stats = tm.stats();
  EXPECT_GT(stats.hw_aborts, 0u);
  EXPECT_GT(stats.hw_by_cause[static_cast<std::size_t>(htm::AbortCause::kCapacity)], 0u);
  EXPECT_EQ(total(stats.hw_by_cause), stats.hw_aborts);
}

TEST(AbortCauses, SpuriousAbortsAreDecoded) {
  RunnerConfig cfg = test::small_config(TmKind::kNvHalt);
  cfg.htm.spurious_abort_prob = 1.0;  // every hardware access aborts
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);

  tm.run(0, [&](Tx& tx) { tx.write(a, 7); });

  const TmStats stats = tm.stats();
  EXPECT_GT(stats.hw_aborts, 0u);
  EXPECT_EQ(stats.hw_by_cause[static_cast<std::size_t>(htm::AbortCause::kSpurious)],
            stats.hw_aborts);
  EXPECT_EQ(total(stats.hw_by_cause), stats.hw_aborts);
}

class TaxonomyAgreementTest : public testing::TestWithParam<TmKind> {};

// The cause-sum invariant, per TM under real contention: the per-cause sums
// equal the aggregated hw_aborts / ro_aborts counters exactly, and reset
// clears the whole record.
TEST_P(TaxonomyAgreementTest, TaxonomySumsMatchStatsExactly) {
  TmRunner runner(test::small_config(GetParam()));
  auto& tm = runner.tm();
  std::vector<gaddr_t> accounts;
  for (int i = 0; i < 4; ++i) accounts.push_back(runner.alloc().raw_alloc(0, 1));

  test::run_threads(4, [&](int t) {
    Xoshiro256 rng(0x7E1E + static_cast<std::uint64_t>(t));
    for (int i = 0; i < 200; ++i) {
      const std::size_t from = rng.next_bounded(accounts.size());
      std::size_t to = rng.next_bounded(accounts.size() - 1);
      if (to >= from) ++to;
      tm.run(t, [&](Tx& tx) {
        const word_t vf = tx.read(accounts[from]);
        const word_t vt = tx.read(accounts[to]);
        tx.write(accounts[from], vf + 1);
        tx.write(accounts[to], vt + 1);
      });
    }
  });

  const TmStats stats = tm.stats();
  EXPECT_EQ(total(stats.hw_by_cause), stats.hw_aborts);
  EXPECT_EQ(total(stats.ro_by_cause), stats.ro_aborts);
  EXPECT_EQ(stats.commits, stats.hw_commits + stats.sw_commits + stats.ro_commits);
  EXPECT_LE(stats.write_set_size.count(), stats.commits);  // at most one per commit

  tm.reset_stats();
  EXPECT_EQ(total(tm.stats().hw_by_cause), 0u);
  EXPECT_EQ(tm.stats().write_set_size.count(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllTms, TaxonomyAgreementTest, testing::ValuesIn(test::all_kinds()),
                         test::kind_param_name);

// ------------------------------------------------------------ metrics export

TEST(MetricsRegistry, SnapshotExportsAllFiveTmsAndPool) {
  std::vector<std::unique_ptr<TmRunner>> runners;
  tel::MetricsRegistry reg;
  for (const TmKind kind : test::all_kinds()) {
    runners.push_back(std::make_unique<TmRunner>(test::small_config(kind)));
    TmRunner& r = *runners.back();
    const gaddr_t a = r.alloc().raw_alloc(0, 1);
    for (int i = 0; i < 10; ++i)
      r.tm().run(0, [&](Tx& tx) { tx.write(a, static_cast<word_t>(i)); });
    reg.add_tm(r.tm());
  }
  reg.add_pool(runners.front()->pool(), "nvhalt-pool");

  const tel::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.tms.size(), 5u);
  ASSERT_EQ(snap.pools.size(), 1u);
  for (const tel::TmMetrics& m : snap.tms) {
    EXPECT_GE(m.stats.commits, 10u);
    // The cause-sum invariant, through the export surface.
    EXPECT_EQ(total(m.stats.hw_by_cause), m.stats.hw_aborts);
    EXPECT_EQ(total(m.stats.ro_by_cause), m.stats.ro_aborts);
  }
  EXPECT_GT(snap.pools[0].flush_count, 0u);
  EXPECT_GT(snap.pools[0].fence_count, 0u);
  EXPECT_GT(snap.pools[0].fence_lines.count(), 0u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"schema\":\"nvhalt-metrics-v2\""), std::string::npos);
  for (const TmKind kind : test::all_kinds())
    EXPECT_NE(json.find(std::string("\"name\":\"") + tm_kind_name(kind) + "\""),
              std::string::npos);
  EXPECT_NE(json.find("\"abort_taxonomy\""), std::string::npos);
  EXPECT_NE(json.find("\"nvhalt-pool\""), std::string::npos);
  EXPECT_NE(json.find("\"flush_dedup_count\""), std::string::npos);
  EXPECT_NE(json.find("\"fence_lines\""), std::string::npos);
  // Balanced braces (strings in the report contain no escapes).
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("# TYPE nvhalt_commits_total counter"), std::string::npos);
  EXPECT_NE(prom.find("nvhalt_commits_total{tm=\"NV-HALT\",path=\"hw\"}"), std::string::npos);
  EXPECT_NE(prom.find("cause=\"conflict\""), std::string::npos);
  EXPECT_NE(prom.find("nvhalt_write_set_words_count{tm=\"Trinity\"}"), std::string::npos);
  EXPECT_NE(prom.find("nvhalt_pool_fences_total{pool=\"nvhalt-pool\"}"), std::string::npos);
  // Pool counter families must be declared, not scraped as untyped.
  EXPECT_NE(prom.find("# TYPE nvhalt_pool_flushes_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nvhalt_pool_fences_total counter"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE nvhalt_pool_flush_dedup_total counter"), std::string::npos);
  EXPECT_NE(prom.find("nvhalt_pool_fence_lines_count{pool=\"nvhalt-pool\"}"), std::string::npos);
  EXPECT_NE(prom.find("le=\"+Inf\""), std::string::npos);
}

TEST(MetricsRegistry, AllocLedgerExportsAndBalances) {
  TmRunner runner(test::small_config(TmKind::kNvHalt));
  tel::MetricsRegistry reg;
  reg.add_alloc(runner.alloc(), "nvhalt-alloc");

  // Churn: allocate a batch, free it, allocate again — enough traffic to
  // retire blocks into limbo and reclaim some of them.
  std::vector<gaddr_t> blocks;
  for (int round = 0; round < 4; ++round) {
    ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) {
      blocks.clear();
      for (int i = 0; i < 6; ++i) blocks.push_back(tx.alloc(4));
    }));
    ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) {
      for (const gaddr_t b : blocks) tx.free(b, 4);
    }));
  }

  const tel::MetricsSnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.allocs.size(), 1u);
  const tel::AllocMetrics& a = snap.allocs[0];
  EXPECT_GE(a.stats.allocs, 24u);
  EXPECT_GE(a.stats.frees, 24u);
  EXPECT_GT(a.stats.retired, 0u);
  // The reclamation ledger must balance: every retired block is either
  // already reclaimed or still in limbo.
  EXPECT_EQ(a.stats.retired, a.stats.reclaimed + a.stats.limbo);
  if (a.stats.reclaimed > 0) {
    EXPECT_EQ(a.reclaim_latency_ns.count(), a.stats.reclaimed);
  }
  EXPECT_GE(a.global_epoch, 1u);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"name\":\"nvhalt-alloc\""), std::string::npos);
  EXPECT_NE(json.find("\"limbo\":"), std::string::npos);
  EXPECT_NE(json.find("\"orphans_swept\":"), std::string::npos);
  EXPECT_NE(json.find("\"reclaim_latency_ns\""), std::string::npos);
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("nvhalt_alloc_retired_total{alloc=\"nvhalt-alloc\"}"), std::string::npos);
  EXPECT_NE(prom.find("nvhalt_alloc_limbo_depth{alloc=\"nvhalt-alloc\"}"), std::string::npos);
  EXPECT_NE(prom.find("nvhalt_alloc_orphans_swept_total{alloc=\"nvhalt-alloc\"}"),
            std::string::npos);
  EXPECT_NE(prom.find("nvhalt_alloc_reclaim_latency_ns_count{alloc=\"nvhalt-alloc\"}"),
            std::string::npos);
}

// Every counter is formatted whole however long it is: twenty-digit values
// (the u64 range) in every per-TM, pool and alloc field.
TEST(MetricsRegistry, JsonKeepsTwentyDigitCounters) {
  constexpr std::uint64_t kBig = 12345678901234567890ULL;
  tel::MetricsSnapshot snap;
  tel::TmMetrics m;
  m.name = "a-tm-name-long-enough-to-matter";
  std::uint64_t* counters[] = {&m.stats.commits,     &m.stats.hw_commits,
                               &m.stats.sw_commits,  &m.stats.ro_commits,
                               &m.stats.read_only_commits, &m.stats.hw_aborts,
                               &m.stats.sw_aborts,   &m.stats.ro_aborts,
                               &m.stats.fallbacks,   &m.stats.user_aborts};
  for (std::uint64_t* c : counters) *c = kBig;
  m.stats.hw_by_cause.fill(kBig);
  m.stats.ro_by_cause.fill(kBig);
  snap.tms.push_back(m);
  tel::PoolMetrics p;
  p.name = "pool";
  p.flush_count = p.fence_count = p.flush_dedup_count = kBig;
  snap.pools.push_back(p);
  tel::AllocMetrics a;
  a.name = "alloc";
  a.stats.allocs = a.stats.frees = a.stats.segments_acquired = kBig;
  a.stats.retired = a.stats.reclaimed = a.stats.limbo = kBig;
  a.stats.orphans_swept = a.stats.leaked_reclaimed = a.global_epoch = kBig;
  snap.allocs.push_back(a);

  const std::string json = snap.to_json();
  const std::string big = std::to_string(kBig);
  for (const char* key :
       {"commits", "hw_commits", "sw_commits", "ro_commits", "read_only_commits", "hw_aborts",
        "sw_aborts", "ro_aborts", "fallbacks", "user_aborts", "conflict", "capacity",
        "explicit", "spurious", "flush", "ro_validation", "ro_demotion", "flush_count",
        "fence_count", "flush_dedup_count", "allocs", "frees", "segments_acquired", "retired",
        "reclaimed", "limbo", "orphans_swept", "leaked_reclaimed", "global_epoch"})
    EXPECT_NE(json.find(std::string("\"") + key + "\":" + big), std::string::npos) << key;
  EXPECT_NE(json.find("\"name\":\"a-tm-name-long-enough-to-matter\""), std::string::npos);
  EXPECT_NE(json.find("\"abort_taxonomy\""), std::string::npos);
  long depth = 0;
  for (const char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
  EXPECT_EQ(json.back(), '}');
}

// ------------------------------------------------------------- trace IO

tel::TraceDump sample_dump() {
  tel::TraceDump dump;
  dump.level = 1;
  dump.ticks_per_us = 2.0;
  tel::ThreadTrace t;
  t.tid = 3;
  t.pushed = 6;
  t.dropped = 1;
  t.events.push_back({100, 0, EventKind::kTxBegin, 0xFF, 3});
  t.events.push_back({110, 0, EventKind::kHwAttempt, 0xFF, 3});
  t.events.push_back({120, 0x42, EventKind::kHwAbort,
                      static_cast<std::uint8_t>(htm::AbortCause::kConflict), 3});
  t.events.push_back({125, 0, EventKind::kRoAbort,
                      static_cast<std::uint8_t>(tel::RoAbortCause::kRoDemotion), 3});
  t.events.push_back({130, 9, EventKind::kSwCommit, 0xFF, 3});
  dump.threads.push_back(std::move(t));
  return dump;
}

TEST(TraceIo, RawFormatRoundTrips) {
  const tel::TraceDump dump = sample_dump();
  std::stringstream ss;
  tel::write_raw_trace(ss, dump);

  tel::TraceDump back;
  std::string err;
  ASSERT_TRUE(tel::read_raw_trace(ss, back, &err)) << err;
  EXPECT_EQ(back.level, 1);
  EXPECT_DOUBLE_EQ(back.ticks_per_us, 2.0);
  ASSERT_EQ(back.threads.size(), 1u);
  EXPECT_EQ(back.threads[0].tid, 3);
  EXPECT_EQ(back.threads[0].pushed, 6u);
  EXPECT_EQ(back.threads[0].dropped, 1u);
  ASSERT_EQ(back.threads[0].events.size(), 5u);
  // The read-only abort keeps its cause (ro_demotion), like the hw abort.
  EXPECT_EQ(back.threads[0].events[3].cause,
            static_cast<std::uint8_t>(tel::RoAbortCause::kRoDemotion));
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.threads[0].events[i].kind, dump.threads[0].events[i].kind);
    EXPECT_EQ(back.threads[0].events[i].ticks, dump.threads[0].events[i].ticks);
    EXPECT_EQ(back.threads[0].events[i].arg, dump.threads[0].events[i].arg);
    EXPECT_EQ(back.threads[0].events[i].cause, dump.threads[0].events[i].cause);
  }
  EXPECT_EQ(back.total_events(), 5u);
  EXPECT_EQ(back.total_dropped(), 1u);
}

TEST(TraceIo, MalformedInputIsRejectedWithReason) {
  tel::TraceDump dump;
  std::string err;
  {
    std::stringstream ss("bogus\n");
    EXPECT_FALSE(tel::read_raw_trace(ss, dump, &err));
    EXPECT_NE(err.find("bad header"), std::string::npos);
  }
  {
    std::stringstream ss("# nvhalt-trace-v1 level=1 ticks_per_us=1\n"
                         "# ring tid=0 pushed=1 dropped=0\n"
                         "100 not-a-kind 0 0 -\n");
    EXPECT_FALSE(tel::read_raw_trace(ss, dump, &err));
    EXPECT_NE(err.find("unknown event kind"), std::string::npos);
  }
  {
    std::stringstream ss("# nvhalt-trace-v1 level=1 ticks_per_us=1\n"
                         "100 kTxBegin 0 0 -\n");
    EXPECT_FALSE(tel::read_raw_trace(ss, dump, &err));
    EXPECT_NE(err.find("before any ring header"), std::string::npos);
  }
  // Malformed numbers are rejected with their line, never thrown.
  {
    std::stringstream ss("# nvhalt-trace-v1 level=x ticks_per_us=1\n");
    EXPECT_FALSE(tel::read_raw_trace(ss, dump, &err));
    EXPECT_NE(err.find("bad header at line 1"), std::string::npos) << err;
  }
  {
    std::stringstream ss("# nvhalt-trace-v1 level=1 ticks_per_us=1\n"
                         "# ring tid=zz pushed=1 dropped=0\n"
                         "100 tx_begin 0 0 -\n");
    EXPECT_FALSE(tel::read_raw_trace(ss, dump, &err));
    EXPECT_NE(err.find("bad ring header at line 2"), std::string::npos) << err;
  }
  // A ring header field the reader does not know (torn= was one) is
  // rejected like an unknown event kind, never skipped.
  {
    std::stringstream ss("# nvhalt-trace-v1 level=1 ticks_per_us=1\n"
                         "# ring tid=0 pushed=1 dropped=0 capacity=8 torn=0\n"
                         "100 tx_begin 0 0 -\n");
    EXPECT_FALSE(tel::read_raw_trace(ss, dump, &err));
    EXPECT_NE(err.find("bad ring header at line 2"), std::string::npos) << err;
  }
}

TEST(TraceIo, ChromeTracePairsBeginWithOutcome) {
  const tel::TraceDump dump = sample_dump();
  std::stringstream ss;
  tel::write_chrome_trace(ss, dump);
  const std::string json = ss.str();

  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  // kTxBegin..kSwCommit becomes one complete event spanning 30 ticks =
  // 15 us at 2 ticks/us, starting at ts 0 (timestamps are min-relative).
  EXPECT_NE(json.find("\"name\":\"tx(sw)\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"dur\":15"), std::string::npos);
  // Aborts are instant events carrying their decoded cause.
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\":\"conflict\""), std::string::npos);
  EXPECT_NE(json.find("\"cause\":\"ro_demotion\""), std::string::npos);
  EXPECT_NE(json.find("\"tid\":3"), std::string::npos);
  // No dangling complete event: exactly one "X".
  std::size_t x_count = 0;
  for (auto pos = json.find("\"ph\":\"X\""); pos != std::string::npos;
       pos = json.find("\"ph\":\"X\"", pos + 1))
    ++x_count;
  EXPECT_EQ(x_count, 1u);
}

// trace_dump --check prints in_flight() for every ring: what the tail of
// the ring says was open when it was captured.
TEST(TraceIo, InFlightSummarisesRingTail) {
  const auto conflict = static_cast<std::uint8_t>(htm::AbortCause::kConflict);
  const auto capacity = static_cast<std::uint8_t>(htm::AbortCause::kCapacity);
  tel::ThreadTrace t;
  t.tid = 2;
  // A committed transaction: its lock and abort belong to the past.
  t.events.push_back({10, 0, EventKind::kTxBegin, 0xFF, 2});
  t.events.push_back({11, 0, EventKind::kHwAbort, capacity, 2});
  t.events.push_back({12, 4, EventKind::kLockAcquire, 0xFF, 2});
  t.events.push_back({13, 0, EventKind::kSwCommit, 0xFF, 2});
  // The open one: two acquisitions, an abort, a fence, two later events.
  t.events.push_back({20, 0, EventKind::kTxBegin, 0xFF, 2});
  t.events.push_back({21, 2, EventKind::kLockAcquire, 0xFF, 2});
  t.events.push_back({22, 1, EventKind::kLockAcquire, 0xFF, 2});
  t.events.push_back({23, 0x7, EventKind::kHwAbort, conflict, 2});
  t.events.push_back({24, 3, EventKind::kFence, 0xFF, 2});
  t.events.push_back({25, 0, EventKind::kSwAttempt, 0xFF, 2});
  t.events.push_back({26, 2, EventKind::kSwValidate, 0xFF, 2});

  const tel::InFlight open = tel::in_flight(t);
  EXPECT_TRUE(open.open_tx);
  EXPECT_EQ(open.held_locks, 3u);
  EXPECT_EQ(open.past_fence, 2u);
  EXPECT_EQ(open.last_caused.kind, EventKind::kHwAbort);
  EXPECT_EQ(open.last_caused.cause, conflict);
  EXPECT_EQ(open.last_caused.ticks, 23u);
  EXPECT_EQ(open.last_caused.arg, 0x7u);

  t.events.push_back({27, 0, EventKind::kSwCommit, 0xFF, 2});
  const tel::InFlight closed = tel::in_flight(t);
  EXPECT_FALSE(closed.open_tx);
  EXPECT_EQ(closed.held_locks, 0u);
}

TEST(TraceIo, CollectTraceDumpMatchesCompiledLevel) {
  const tel::TraceDump dump = tel::collect_trace_dump();
  EXPECT_EQ(dump.level, tel::kLevel);
  if constexpr (tel::kLevel == 0) {
    EXPECT_TRUE(dump.threads.empty());
  } else {
    EXPECT_GT(dump.ticks_per_us, 0.0);
  }
}

}  // namespace
}  // namespace nvhalt
