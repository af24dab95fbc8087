// Tests for the persistent flight recorder (telemetry/flight_recorder.hpp):
// header seeding, record round-trips through the nvhalt-trace-v1 artifact,
// in-flight reconstruction, torn-slot detection against the documented
// on-NVM slot format, recovery cursor adoption, the crash-prefix sweep over
// recorder fence boundaries for all five TMs, a replayable torn-record
// triple, and a TSan-facing concurrency stress (FlightRecorderConcurrency,
// matched by the tsan-concurrency preset).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "crash_harness.hpp"
#include "telemetry/flight_recorder.hpp"
#include "test_helpers.hpp"

namespace nvhalt {
namespace {

namespace tel = telemetry;

using test::all_kinds;
using test::CrashHarnessOptions;
using test::CrashImageVerifier;
using test::CrashTraceBundle;
using test::run_crash_workload;

/// Standalone pool sized for one recorder (header + 128 line-padded rings).
PmemConfig recorder_pool_config() {
  PmemConfig pc;
  pc.capacity_words = std::size_t{1} << 12;
  pc.raw_words = tel::FlightRecorder::metadata_words() + (std::size_t{1} << 10);
  return pc;
}

// The slot format is a durability contract (a postmortem must decode images
// written by older builds), so the test re-derives it from the documented
// constants instead of reaching into the class, and pins the shared mix64
// finalizer's output.
constexpr std::uint64_t kSalt = 0x9E3779B97F4A7C15ULL;
static_assert(mix64(kSalt) == 0x9CA066F1A4AB2EEAULL, "slot checksum format changed");

std::uint64_t pack_slot(std::uint32_t seq, tel::EventKind kind, std::uint8_t cause,
                        std::uint16_t arg) {
  return (static_cast<std::uint64_t>(seq) << 32) |
         (static_cast<std::uint64_t>(static_cast<std::uint8_t>(kind)) << 24) |
         (static_cast<std::uint64_t>(cause) << 16) | arg;
}

/// Raw index of thread 0's first slot: header line, then ring 0.
std::size_t ring0_base(const tel::FlightRecorder& fr) {
  return fr.base_raw_index() + kWordsPerLine;
}

TEST(FlightRecorderTest, HeaderSeededDurablyOnConstruction) {
  PmemPool pool(recorder_pool_config());
  tel::FlightRecorder fr(pool);
  const tel::PostmortemReport pm = fr.postmortem();
  EXPECT_TRUE(pm.header_valid);
  EXPECT_EQ(fr.slots_per_thread(), tel::FlightRecorder::kDefaultSlots);
  EXPECT_EQ(pm.trace.total_events(), 0u);
  EXPECT_EQ(pm.trace.total_torn(), 0u);
  EXPECT_TRUE(pm.trace.threads.empty());
}

TEST(FlightRecorderTest, RecordRoundTripAndOpenTxReconstruction) {
  if constexpr (tel::kLevel < 1)
    GTEST_SKIP() << "record() compiles to nothing below telemetry level 1";

  PmemPool pool(recorder_pool_config());
  tel::FlightRecorder fr(pool);

  // Thread 0: a closed transaction (begin, lock, commit) plus a fence stamp.
  fr.record(0, tel::EventKind::kTxBegin);
  fr.record(0, tel::EventKind::kLockAcquire, 0xFF, 3);
  fr.record(0, tel::EventKind::kFence, 0xFF, 2);
  fr.record(0, tel::EventKind::kHwCommit);
  pool.fence(0);
  // Thread 1: a transaction still open at "crash", holding one lock.
  fr.record(1, tel::EventKind::kTxBegin);
  fr.record(1, tel::EventKind::kLockAcquire, 0xFF, 1);
  pool.fence(1);

  const tel::PostmortemReport pm = fr.postmortem();
  ASSERT_TRUE(pm.header_valid);
  EXPECT_EQ(pm.trace.total_events(), 6u);
  EXPECT_EQ(pm.trace.total_torn(), 0u);
  ASSERT_EQ(pm.trace.threads.size(), 2u);

  const tel::ThreadTrace& t0 = pm.trace.threads[0];
  EXPECT_EQ(t0.tid, 0);
  EXPECT_EQ(t0.pushed, 4u);
  EXPECT_EQ(t0.capacity, fr.slots_per_thread());
  EXPECT_FALSE(tel::in_flight(t0).open_tx);
  ASSERT_EQ(t0.events.size(), 4u);
  EXPECT_EQ(t0.events.front().kind, tel::EventKind::kTxBegin);
  EXPECT_EQ(t0.events[1].kind, tel::EventKind::kLockAcquire);
  EXPECT_EQ(t0.events[1].arg, 3u);
  EXPECT_EQ(t0.events.back().kind, tel::EventKind::kHwCommit);
  EXPECT_EQ(tel::in_flight(t0).past_fence, 1u) << "the commit follows the fence stamp";
  for (std::size_t i = 1; i < t0.events.size(); ++i)
    EXPECT_GT(t0.events[i].ticks, t0.events[i - 1].ticks) << "records must sort by seq";

  const tel::ThreadTrace& t1 = pm.trace.threads[1];
  EXPECT_EQ(t1.tid, 1);
  EXPECT_TRUE(tel::in_flight(t1).open_tx);
  EXPECT_EQ(tel::in_flight(t1).held_locks, 1u);

  // The artifact (an nvhalt-trace-v1 file) round-trips losslessly and
  // passes the trace_dump --check rules.
  std::stringstream artifact;
  tel::write_raw_trace(artifact, pm.trace);
  tel::TraceDump rt;
  std::string err;
  ASSERT_TRUE(tel::read_raw_trace(artifact, rt, &err)) << err;
  EXPECT_TRUE(tel::check_trace(rt, &err)) << err;
  EXPECT_EQ(rt.total_events(), pm.trace.total_events());
  EXPECT_EQ(rt.total_torn(), pm.trace.total_torn());
  ASSERT_EQ(rt.threads.size(), pm.trace.threads.size());
  EXPECT_TRUE(tel::in_flight(rt.threads[1]).open_tx);
  EXPECT_EQ(tel::in_flight(rt.threads[1]).held_locks, 1u);
}

TEST(FlightRecorderTest, TornAndZeroSeqSlotsAreCountedNeverFatal) {
  PmemPool pool(recorder_pool_config());
  tel::FlightRecorder fr(pool);
  const std::size_t ring0 = ring0_base(fr);

  // Slot 0: a valid record written in the recorder's own format.
  const std::uint64_t good = pack_slot(1, tel::EventKind::kTxBegin, 0xFF, 0);
  pool.raw_store(0, ring0 + 0, good);
  pool.raw_store(0, ring0 + 1, mix64(good ^ kSalt));
  pool.flush_raw(0, ring0 + 0);
  // Slot 1: w0 durable, checksum missing — the torn shape a crash between
  // the two slot stores leaves behind.
  const std::uint64_t torn = pack_slot(2, tel::EventKind::kHwCommit, 0xFF, 0);
  pool.raw_store(0, ring0 + 2, torn);
  pool.raw_store(0, ring0 + 3, 0xBAD);
  pool.flush_raw(0, ring0 + 2);
  // Slot 2: nonzero payload but zero sequence — also torn, never decoded.
  const std::uint64_t zeroseq = pack_slot(0, tel::EventKind::kSwCommit, 0xFF, 7);
  pool.raw_store(0, ring0 + 4, zeroseq);
  pool.raw_store(0, ring0 + 5, mix64(zeroseq ^ kSalt));
  pool.flush_raw(0, ring0 + 4);
  pool.fence(0);

  const tel::PostmortemReport pm = fr.postmortem();
  ASSERT_TRUE(pm.header_valid);
  EXPECT_EQ(pm.trace.total_events(), 1u);
  EXPECT_EQ(pm.trace.total_torn(), 2u);
  ASSERT_EQ(pm.trace.threads.size(), 1u);
  EXPECT_EQ(pm.trace.threads[0].pushed, 3u);
  EXPECT_EQ(pm.trace.threads[0].torn, 2u);
  EXPECT_EQ(pm.trace.threads[0].events.front().kind, tel::EventKind::kTxBegin);
  std::string err;
  EXPECT_TRUE(tel::check_trace(pm.trace, &err)) << err;
}

TEST(FlightRecorderTest, OnRecoverResumesSequencesPastDecodedHistory) {
  if constexpr (tel::kLevel < 1)
    GTEST_SKIP() << "record() compiles to nothing below telemetry level 1";

  PmemPool pool(recorder_pool_config());
  tel::FlightRecorder fr(pool);
  fr.record(0, tel::EventKind::kTxBegin);
  fr.record(0, tel::EventKind::kHwCommit);
  pool.fence(0);
  const tel::PostmortemReport before = fr.postmortem();
  const std::uint64_t last = before.trace.threads.at(0).events.back().ticks;

  fr.on_recover(0);
  fr.record(0, tel::EventKind::kTxBegin);
  pool.fence(0);

  const tel::PostmortemReport after = fr.postmortem();
  ASSERT_TRUE(after.header_valid);
  const tel::ThreadTrace& t0 = after.trace.threads.at(0);
  // kRecovery stamp + the new begin, both sequenced past decoded history.
  bool saw_recovery = false;
  for (const tel::TraceEvent& e : t0.events) {
    saw_recovery |= e.kind == tel::EventKind::kRecovery;
    if (e.kind == tel::EventKind::kRecovery || e.ticks > last) EXPECT_GT(e.ticks, last);
  }
  EXPECT_TRUE(saw_recovery);
  EXPECT_TRUE(tel::in_flight(t0).open_tx) << "new begin after the recovery stamp is open";
}

// ---- Crash-prefix sweep over recorder fence boundaries, all five TMs ------

class FlightRecorderCrashSweep : public ::testing::TestWithParam<TmKind> {};

INSTANTIATE_TEST_SUITE_P(AllTms, FlightRecorderCrashSweep, ::testing::ValuesIn(all_kinds()),
                         test::kind_param_name);

TEST_P(FlightRecorderCrashSweep, EveryBoundaryYieldsValidPostmortem) {
  CrashHarnessOptions opt;
  opt.kind = GetParam();
  opt.txs_per_thread = 6;
  opt.flight_recorder = true;
  const CrashTraceBundle tr = run_crash_workload(opt);

  CrashEnumOptions eopt;
  eopt.subset_seeds_per_prefix = 1;
  // The recorder multiplies journal traffic (two stores + flush per
  // lifecycle record); stride-sample the boundaries to keep the suite in
  // tier-1 time while still covering early, mid and tail crash points.
  eopt.max_prefixes = 48;
  CrashEnumerator en(tr.events, eopt);
  ASSERT_GT(en.boundaries().size(), 20u);

  // The verifier's section 0 requires a postmortem from every image that
  // round-trips through its artifact and passes check_trace, on top of the
  // durability invariants.
  CrashImageVerifier verifier(tr);
  const auto failure = en.run(verifier.checker());
  ASSERT_FALSE(failure.has_value())
      << "at " << failure->triple.to_string() << ": " << failure->why;
  EXPECT_GT(en.stats().images_checked, 0u);
}

// ---- Replayable torn-record triple ---------------------------------------

TEST(FlightRecorderTest, TornRecordTripleIsReplayable) {
  // Deterministic single-thread trace: journal a recorder whose slot is cut
  // mid-record by the crash adversary, then pin the (hash, prefix, seed)
  // triple and replay it to the bit-identical torn image.
  PersistJournal journal;
  PmemConfig pc = recorder_pool_config();
  pc.track_store_order = true;
  pc.journal = &journal;
  PmemPool pool(pc);
  tel::FlightRecorder fr(pool);
  const std::size_t ring0 = ring0_base(fr);

  const std::size_t scratch = pool.alloc_raw(kWordsPerLine);

  const std::uint64_t w0 = pack_slot(1, tel::EventKind::kTxBegin, 0xFF, 0);
  pool.raw_store(0, ring0 + 0, w0);
  pool.raw_store(0, ring0 + 1, mix64(w0 ^ kSalt));
  // Another thread's fence while the slot line is still dirty: this plants
  // a crash boundary where the adversary may spontaneously write back a
  // store-order *prefix* of the line — exactly the torn-record window.
  // (A fence with an empty queue journals nothing, so thread 1 flushes a
  // scratch line of its own to make the boundary real.)
  pool.raw_store(1, scratch, 0x5C);
  pool.flush_raw(1, scratch);
  pool.fence(1);
  pool.flush_raw(0, ring0 + 0);
  pool.fence(0);
  const std::vector<PersistEvent> trace = journal.events();
  const std::uint64_t hash = PersistJournal::hash(trace);

  // Hunt the boundary/seed space for an image whose postmortem reports the
  // torn slot (w0 written back, checksum not) under a valid header.
  const auto decode = [&](const CrashImage& img) {
    PmemPool verify_pool(recorder_pool_config());
    tel::FlightRecorder verify_fr(verify_pool);
    verify_pool.install_crash_image(img.words);
    return verify_fr.postmortem();
  };
  CrashEnumerator en(trace, CrashEnumOptions{});
  std::optional<CrashTriple> torn_triple;
  for (const std::size_t prefix : en.boundaries()) {
    for (std::uint64_t s = 0; s <= 32 && !torn_triple; ++s) {
      const std::uint64_t seed = s == 0 ? 0 : en.subset_seed_for(prefix, s);
      const tel::PostmortemReport pm =
          decode(materialize_crash_image(trace, prefix, seed));
      if (pm.header_valid && pm.trace.total_torn() == 1 && pm.trace.total_events() == 0)
        torn_triple = CrashTriple{hash, prefix, seed};
    }
    if (torn_triple) break;
  }
  ASSERT_TRUE(torn_triple.has_value())
      << "no enumerated image tears the recorder slot — adversary lost its teeth";

  // The pinned triple replays deterministically: same image, same decode.
  const CrashImage again =
      materialize_crash_image(trace, torn_triple->prefix, torn_triple->subset_seed);
  const tel::PostmortemReport pm = decode(again);
  EXPECT_TRUE(pm.header_valid);
  EXPECT_EQ(pm.trace.total_torn(), 1u);
  EXPECT_EQ(pm.trace.total_events(), 0u);
  EXPECT_EQ(PersistJournal::hash(trace), torn_triple->trace_hash);
}

// ---- Concurrency stress (tsan-concurrency preset) -------------------------

TEST(FlightRecorderConcurrency, ConcurrentRecordersStayDisjoint) {
  PmemConfig pc = recorder_pool_config();
  PmemPool pool(pc);
  tel::FlightRecorder fr(pool);

  constexpr int kThreads = 4;
  constexpr int kRecords = 200;  // wraps the 64-slot ring several times
  test::run_threads(kThreads, [&](int t) {
    for (int i = 0; i < kRecords; ++i) {
      fr.record(t, tel::EventKind::kTxBegin);
      fr.record(t, tel::EventKind::kHwCommit, 0xFF, static_cast<std::uint16_t>(i));
      if (i % 8 == 7) pool.fence(t);
    }
    pool.fence(t);
  });

  const tel::PostmortemReport pm = fr.postmortem();
  ASSERT_TRUE(pm.header_valid);
  if constexpr (tel::kLevel >= 1) {
    ASSERT_EQ(pm.trace.threads.size(), static_cast<std::size_t>(kThreads));
    for (const tel::ThreadTrace& t : pm.trace.threads) {
      // Quiescent full-ring decode: every surviving slot checks out and the
      // ring holds exactly the last slots_per_thread records.
      EXPECT_EQ(t.torn, 0u);
      EXPECT_EQ(t.events.size(), fr.slots_per_thread());
      EXPECT_EQ(t.events.back().ticks, 2u * kRecords);
    }
  } else {
    EXPECT_EQ(pm.trace.total_events(), 0u);
  }
}

}  // namespace
}  // namespace nvhalt
