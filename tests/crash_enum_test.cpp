// Tests for the crash-prefix enumeration checker (pmem/crash_enum.hpp):
// journal recording, deterministic image materialization, replayable
// failure triples (also for checkers that throw), trace/bundle file
// round-trips and rejection of input the enumerator cannot interpret, the
// fence mid-coalesce crash-point fix, crafted torn-write images for the
// allocator intents and SPHT's log truncation, and the acceptance runs —
// every fence boundary of an 8-thread mixed workload recovers consistently
// on all five TMs, and a deliberately broken recovery is caught with a
// replayable triple.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "crash_harness.hpp"
#include "pmem/crash_sim.hpp"
#include "test_helpers.hpp"

namespace nvhalt {
namespace {

using test::all_kinds;
using test::crash_config;
using test::CrashHarnessOptions;
using test::CrashImageVerifier;
using test::CrashTraceBundle;
using test::run_crash_workload;

/// Durable value of `word` in a materialized image (0 when absent).
std::uint64_t image_value(const CrashImage& img, std::uint64_t word) {
  const auto it = std::lower_bound(img.words.begin(), img.words.end(), word,
                                   [](const auto& p, std::uint64_t w) { return p.first < w; });
  return (it != img.words.end() && it->first == word) ? it->second : 0;
}

TEST(CrashJournalTest, RecordsStoresFlushesAndFencesInOrder) {
  PersistJournal journal;
  RunnerConfig cfg = crash_config(TmKind::kNvHalt);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  const gaddr_t a = runner.alloc().raw_alloc(0, 1);

  const std::size_t start = journal.size();
  ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) { tx.write(a, 42); }));
  const auto events = journal.events();
  ASSERT_GT(events.size(), start);

  // The commit staged the record for `a` — old (base+1), pver (base+2),
  // cur (base+0) in Trinity order — then flushed its line and fenced.
  const std::uint64_t base = runner.pool().record_word_base(a);
  std::ptrdiff_t i_old = -1, i_cur = -1, i_flush = -1, i_fence = -1;
  std::uint64_t rec_line = 0;
  for (std::size_t i = start; i < events.size(); ++i) {
    const PersistEvent& ev = events[i];
    if (ev.kind == PersistEventKind::kStore && ev.word == base + 1 && i_old < 0) {
      i_old = static_cast<std::ptrdiff_t>(i);
      rec_line = ev.line;
    }
    if (ev.kind == PersistEventKind::kStore && ev.word == base + 0 && ev.value == 42)
      i_cur = static_cast<std::ptrdiff_t>(i);
    if (ev.kind == PersistEventKind::kFlush && i_cur >= 0 && ev.line == rec_line && i_flush < 0)
      i_flush = static_cast<std::ptrdiff_t>(i);
    if (ev.kind == PersistEventKind::kFence && i_flush >= 0 && i_fence < 0)
      i_fence = static_cast<std::ptrdiff_t>(i);
  }
  ASSERT_GE(i_old, 0) << "record old-value store not journaled";
  ASSERT_GE(i_cur, 0) << "record cur-value store not journaled";
  ASSERT_GE(i_flush, 0) << "record line flush not journaled";
  ASSERT_GE(i_fence, 0) << "fence not journaled";
  EXPECT_LT(i_old, i_cur) << "Trinity store order (old before cur) not preserved";
  EXPECT_LT(i_cur, i_flush);
  EXPECT_LT(i_flush, i_fence);

  // The pver bump lands in the raw space (word < raw_space_words).
  bool saw_raw_store = false;
  for (std::size_t i = start; i < events.size(); ++i)
    saw_raw_store |= events[i].kind == PersistEventKind::kStore &&
                     events[i].word < runner.pool().raw_space_words();
  EXPECT_TRUE(saw_raw_store) << "pver store not journaled";
}

TEST(CrashJournalTest, FullPrefixImageMatchesPoolDurableState) {
  PersistJournal journal;
  RunnerConfig cfg = crash_config(TmKind::kNvHalt);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  std::vector<gaddr_t> slots;
  for (int i = 0; i < 8; ++i) slots.push_back(runner.alloc().raw_alloc(0, 1));
  for (word_t round = 1; round <= 5; ++round)
    for (std::size_t i = 0; i < slots.size(); ++i)
      ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(slots[i], round * 10 + i); }));

  const auto events = journal.events();
  const CrashImage img = materialize_crash_image(events, events.size(), 0);
  for (const gaddr_t a : slots) {
    const PRecord durable = runner.pool().read_durable_record(a);
    const std::uint64_t base = runner.pool().record_word_base(a);
    EXPECT_EQ(image_value(img, base + 0), durable.cur) << "slot " << a;
    EXPECT_EQ(image_value(img, base + 1), durable.old) << "slot " << a;
    EXPECT_EQ(image_value(img, base + 2), durable.pver) << "slot " << a;
  }
}

TEST(CrashJournalTest, PrefixAtFenceBoundaryReflectsOnlyEarlierCommits) {
  PersistJournal journal;
  RunnerConfig cfg = crash_config(TmKind::kNvHalt);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  const gaddr_t x = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) { tx.write(x, 1); }));
  const std::size_t after_first = journal.size();
  ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) { tx.write(x, 2); }));
  const auto events = journal.events();

  // A commit's last persistence event is its pver fence, so the post-commit
  // journal size is one of the enumerator's fence boundaries.
  CrashEnumerator en(events, CrashEnumOptions{});
  EXPECT_NE(std::find(en.boundaries().begin(), en.boundaries().end(), after_first),
            en.boundaries().end());

  TmRunner verifier(crash_config(TmKind::kNvHalt));
  const auto recovered_value = [&](std::size_t prefix) {
    const CrashImage img = materialize_crash_image(events, prefix, 0);
    verifier.pool().install_crash_image(img.words);
    verifier.tm().recover_data();
    // The raw_alloc of x is eagerly durable, so the recovered bitmap says
    // whether x exists at this boundary (prefix 0 predates it).
    std::vector<LiveBlock> live;
    if (verifier.alloc().slot_bit(x, 1)) live.push_back({x, 1});
    verifier.tm().rebuild_allocator(live);
    word_t v = 0;
    verifier.tm().run(0, [&](Tx& tx) { v = tx.read(x); });
    return v;
  };
  EXPECT_EQ(recovered_value(0), 0u);
  EXPECT_EQ(recovered_value(after_first), 1u);
  EXPECT_EQ(recovered_value(events.size()), 2u);
}

TEST(CrashJournalTest, SeededSubsetImagesAreReproducible) {
  CrashHarnessOptions opt;
  opt.txs_per_thread = 6;
  const CrashTraceBundle tr = run_crash_workload(opt);

  CrashEnumOptions eopt;
  CrashEnumerator en1(tr.events, eopt);
  CrashEnumerator en2(tr.events, eopt);
  ASSERT_EQ(en1.trace_hash(), tr.trace_hash);
  ASSERT_GT(en1.boundaries().size(), 2u);

  const std::size_t prefix = en1.boundaries()[en1.boundaries().size() / 2];
  for (std::uint64_t s = 0; s < 3; ++s) {
    // Same triple, independently derived → bit-identical image.
    const std::uint64_t seed1 = en1.subset_seed_for(prefix, s);
    const std::uint64_t seed2 = en2.subset_seed_for(prefix, s);
    ASSERT_EQ(seed1, seed2);
    const CrashImage a = materialize_crash_image(tr.events, prefix, seed1);
    const CrashImage b = materialize_crash_image(tr.events, prefix, seed2);
    EXPECT_EQ(a, b);
  }

  // The subset adversary persists dirty lines on top of the fence image.
  const CrashImage fence_img = materialize_crash_image(tr.events, prefix, 0);
  const CrashImage subset_img =
      materialize_crash_image(tr.events, prefix, en1.subset_seed_for(prefix, 0));
  EXPECT_GE(subset_img.words.size(), fence_img.words.size());
}

TEST(CrashJournalTest, TraceFileRoundTrip) {
  CrashHarnessOptions opt;
  opt.transfer_threads = 1;
  opt.counter_threads = 1;
  opt.map_threads = 0;
  opt.txs_per_thread = 4;
  const CrashTraceBundle tr = run_crash_workload(opt);
  const std::string path = ::testing::TempDir() + "/crash_trace_roundtrip.bin";
  save_trace(path, tr.events);
  const auto loaded = load_trace(path);
  EXPECT_EQ(loaded, tr.events);
  EXPECT_EQ(PersistJournal::hash(loaded), tr.trace_hash);
}

TEST(CrashJournalTest, BundleFileRoundTrip) {
  CrashHarnessOptions opt;
  opt.txs_per_thread = 4;
  const CrashTraceBundle tr = run_crash_workload(opt);
  const std::string path = ::testing::TempDir() + "/crash_bundle_roundtrip.bin";
  test::save_bundle(path, tr);
  const CrashTraceBundle lt = test::load_bundle(path);
  EXPECT_EQ(lt.events, tr.events);
  EXPECT_EQ(lt.trace_hash, tr.trace_hash);
  EXPECT_EQ(lt.accounts, tr.accounts);
  EXPECT_EQ(lt.counter_a, tr.counter_a);
  EXPECT_EQ(lt.counter_b, tr.counter_b);
  EXPECT_EQ(lt.counter_attempted, tr.counter_attempted);
  EXPECT_EQ(lt.prefill_bound, tr.prefill_bound);
  ASSERT_EQ(lt.counter_acked.size(), tr.counter_acked.size());
  for (std::size_t c = 0; c < tr.counter_acked.size(); ++c) {
    ASSERT_EQ(lt.counter_acked[c].size(), tr.counter_acked[c].size());
    for (std::size_t i = 0; i < tr.counter_acked[c].size(); ++i) {
      EXPECT_EQ(lt.counter_acked[c][i].bound, tr.counter_acked[c][i].bound);
      EXPECT_EQ(lt.counter_acked[c][i].value, tr.counter_acked[c][i].value);
    }
  }
  // The loaded bundle drives a verifier just like the fresh one.
  CrashEnumOptions eopt;
  eopt.max_prefixes = 8;
  CrashEnumerator en(lt.events, eopt);
  CrashImageVerifier verifier(lt);
  const auto failure = en.run(verifier.checker());
  EXPECT_FALSE(failure.has_value()) << failure->triple.to_string() << ": " << failure->why;
}

TEST(CrashJournalTest, ReplayRejectsTripleFromDifferentTrace) {
  CrashHarnessOptions opt;
  opt.transfer_threads = 1;
  opt.counter_threads = 0;
  opt.map_threads = 0;
  opt.txs_per_thread = 2;
  const CrashTraceBundle tr = run_crash_workload(opt);
  CrashEnumerator en(tr.events, CrashEnumOptions{});
  const CrashTriple foreign{tr.trace_hash + 1, 0, 0};
  const auto failure = en.replay(
      foreign, [](const CrashImage&, std::size_t, std::uint64_t, std::string*) { return true; });
  ASSERT_TRUE(failure.has_value());
  EXPECT_NE(failure->why.find("hash mismatch"), std::string::npos);
}

// A checker that throws — verify_rebuild's lost-block TmLogicError is the
// real case — fails its image like a false verdict would: the enumeration
// returns the image's replayable triple with the exception's message, and
// replaying that triple reproduces it, instead of the exception escaping
// the sweep with no triple at all.
TEST(CrashJournalTest, ThrowingCheckerFailsWithItsTriple) {
  CrashHarnessOptions opt;
  opt.transfer_threads = 1;
  opt.counter_threads = 0;
  opt.map_threads = 0;
  opt.txs_per_thread = 2;
  const CrashTraceBundle tr = run_crash_workload(opt);
  CrashEnumerator en(tr.events, CrashEnumOptions{});
  ASSERT_GE(en.boundaries().size(), 3u);
  const std::size_t bad = en.boundaries()[en.boundaries().size() / 2];
  const CrashImageChecker check = [bad](const CrashImage&, std::size_t prefix, std::uint64_t,
                                        std::string*) -> bool {
    if (prefix == bad) throw TmLogicError("live block not marked allocated (lost block)");
    return true;
  };

  std::optional<CrashFailure> failure;
  ASSERT_NO_THROW(failure = en.run(check));
  ASSERT_TRUE(failure.has_value());
  EXPECT_EQ(failure->triple.trace_hash, tr.trace_hash);
  EXPECT_EQ(failure->triple.prefix, bad);
  EXPECT_EQ(failure->triple.subset_seed, 0u);
  EXPECT_NE(failure->why.find("lost block"), std::string::npos) << failure->why;

  std::optional<CrashFailure> again;
  ASSERT_NO_THROW(again = en.replay(failure->triple, check));
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->triple.prefix, bad);
  EXPECT_NE(again->why.find("lost block"), std::string::npos) << again->why;
}

// Event kind 4 was the fence-join event that the removed cross-thread
// fence combiner journaled. The materializer no longer knows it, so a
// trace file holding it (or any kind outside PersistEventKind) must be
// rejected by name, not replayed silently wrong. Both files are written by
// hand in the documented layout; the valid twin proves only the kind
// differs.
TEST(CrashJournalTest, TraceWithUnknownEventKindIsRejected) {
  constexpr std::uint64_t kTraceMagic = 0x4E56485443525431ULL;  // "NVHTCRT1"
  const auto write_trace = [&](const std::string& path, const std::vector<PersistEvent>& trace) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    test::detail::put_u64(f, kTraceMagic);
    test::detail::put_u64(f, trace.size());
    for (const PersistEvent& ev : trace) {
      test::detail::put_u64(f, static_cast<std::uint64_t>(ev.kind));
      test::detail::put_u64(f, static_cast<std::uint32_t>(ev.tid));
      test::detail::put_u64(f, ev.line);
      test::detail::put_u64(f, ev.word);
      test::detail::put_u64(f, ev.value);
    }
    test::detail::put_u64(f, PersistJournal::hash(trace));
  };
  std::vector<PersistEvent> trace = {{PersistEventKind::kStore, 0, 1, 8, 42},
                                     {PersistEventKind::kFlush, 0, 1, 0, 0},
                                     {PersistEventKind::kAllocMark, 1, 0, 0, 0},
                                     {PersistEventKind::kFence, 0, 0, 0, 0}};
  const std::string good = ::testing::TempDir() + "/crash_trace_known_kinds.bin";
  write_trace(good, trace);
  EXPECT_EQ(load_trace(good), trace);

  trace[2].kind = static_cast<PersistEventKind>(4);
  const std::string bad = ::testing::TempDir() + "/crash_trace_unknown_kind.bin";
  write_trace(bad, trace);
  try {
    load_trace(bad);
    FAIL() << "a trace with event kind 4 loaded";
  } catch (const TmLogicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown persistence event kind 4"), std::string::npos) << what;
    EXPECT_NE(what.find(bad), std::string::npos) << what;
  }
}

// A v5 bundle carries a flight-recorder word and a group-commit word, and
// its recorder switch changed the raw layout; neither mechanism exists
// any more. Such a bundle (here its header, both words 0) is rejected with
// its path instead of replayed under another geometry.
TEST(CrashJournalTest, BundleWithGroupCommitWordIsRejected) {
  constexpr std::uint64_t kBundleMagicV5 = 0x4E56484243524235ULL;  // "NVHBCRB5"
  const std::string bad = ::testing::TempDir() + "/crash_bundle_v5.bin";
  {
    std::ofstream f(bad, std::ios::binary | std::ios::trunc);
    test::detail::put_u64(f, kBundleMagicV5);
    for (int w = 0; w < 17; ++w) test::detail::put_u64(f, 0);  // kind .. map_key_base
  }
  try {
    test::load_bundle(bad);
    FAIL() << "a v5 bundle loaded";
  } catch (const TmLogicError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("current layout (NVHBCRB6)"), std::string::npos) << what;
    EXPECT_NE(what.find(bad), std::string::npos) << what;
  }
}

// Regression for the fence coalescing loop: a power failure must be able to
// strike *between* individual line write-backs of one fence, leaving the
// fence partially persisted. Before the fix, fence() polled the crash
// coordinator only on entry, so a crash could never interrupt the
// line write-back loop and every queued line persisted atomically.
// CrashCoordinator::trip_after makes the placement exact: fence() polls
// once on entry and once before each unique line's write-back, so a
// countdown of 2 + k dies with exactly k lines durable.
TEST(CrashJournalTest, FenceCrashCanLeavePartiallyPersistedQueue) {
  constexpr std::size_t kLines = 32;
  for (const std::size_t target : {std::size_t{1}, kLines / 2, kLines - 1}) {
    PmemConfig cfg;
    cfg.capacity_words = std::size_t{1} << 10;
    cfg.raw_words = kLines * kWordsPerLine + kWordsPerLine;
    PmemPool pool(cfg);
    CrashCoordinator coord;
    pool.set_crash_coordinator(&coord);

    const std::size_t base = pool.alloc_raw(kLines * kWordsPerLine);
    for (std::size_t k = 0; k < kLines; ++k) {
      pool.raw_store(0, base + k * kWordsPerLine, k + 1);
      pool.flush_raw(0, base + k * kWordsPerLine);
    }

    coord.trip_after(2 + target);  // entry poll, then one poll per line
    EXPECT_THROW(pool.fence(0), SimulatedPowerFailure);

    std::size_t persisted = 0;
    for (std::size_t k = 0; k < kLines; ++k)
      persisted += pool.raw_load_durable(base + k * kWordsPerLine) != 0 ? 1 : 0;
    // fence() persists the duplicate-free queue in enqueue (= allocation)
    // order, so the count of durable lines is exactly the crash placement.
    EXPECT_EQ(persisted, target);
  }
}

// ---- Allocator crash coverage ---------------------------------------------

// Both TMs that persist through the undo-record engine: its allocator-only
// commit and intent arm/apply run under each one's own concurrency control.
constexpr TmKind kUndoRecordKinds[] = {TmKind::kNvHalt, TmKind::kTrinity};

// A transaction allocates a node, publishes its address into a raw flag and
// crashes at every fence boundary. The durable allocation bit must agree
// with the durability marker everywhere: committed -> bit applied,
// uncommitted -> the armed intent is reverted and the block swept as an
// orphan. At least one boundary falls between the intent's fence and the
// marker, so the sweep itself is exercised, and that image re-derives
// identically for replay.
TEST(CrashEnumAllocTest, AllocThenCrashBeforeCommitIsSweptAsOrphan) {
  for (const TmKind kind : kUndoRecordKinds) {
    SCOPED_TRACE(tm_kind_name(kind));
    PersistJournal journal;
    RunnerConfig cfg = crash_config(kind);
    cfg.pmem.journal = &journal;
    TmRunner runner(cfg);
    const gaddr_t flag = runner.alloc().raw_alloc(0, 1);
    constexpr std::size_t kNode = 4;
    gaddr_t node = 0;
    ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) {
      node = tx.alloc(kNode);
      tx.write(node, 0xFEED);
      tx.write(flag, node);  // durably nonzero iff the alloc committed
    }));
    const auto events = journal.events();

    TmRunner verifier(crash_config(kind));
    CrashEnumerator en(events, CrashEnumOptions{});
    std::uint64_t swept_total = 0;
    std::size_t swept_prefix = events.size() + 1;
    for (const std::size_t prefix : en.boundaries()) {
      const CrashImage img = materialize_crash_image(events, prefix, 0);
      verifier.pool().install_crash_image(img.words);
      verifier.tm().recover_data();
      word_t f = 0;
      verifier.tm().run(0, [&](Tx& tx) { f = tx.read(flag); });
      const bool committed = f != 0;
      EXPECT_EQ(verifier.alloc().slot_bit(node, kNode), committed) << "prefix " << prefix;
      if (committed) {
        EXPECT_EQ(f, node);
      }
      const AllocRecoveryReport& rep = verifier.alloc().last_recovery();
      if (rep.orphans_swept > 0 && swept_prefix > events.size()) swept_prefix = prefix;
      swept_total += rep.orphans_swept;
    }
    ASSERT_GT(swept_total, 0u) << "no boundary ever exercised the orphan sweep";

    const CrashImage again = materialize_crash_image(events, swept_prefix, 0);
    verifier.pool().install_crash_image(again.words);
    verifier.tm().recover_data();
    EXPECT_GT(verifier.alloc().last_recovery().orphans_swept, 0u);
    EXPECT_FALSE(verifier.alloc().slot_bit(node, kNode));
  }
}

// A committed node is freed by a second transaction that crashes at every
// boundary from the free's first event on — including mid-fence subset
// images, where the adversary may persist the bitmap line without the
// marker (or vice versa). Recovery must converge to exactly one owner:
// free committed -> bit clear and the slot reusable once; free uncommitted
// -> the block survives and is never handed out again.
TEST(CrashEnumAllocTest, FreeThenCrashMidFenceNeitherDoubleFreesNorLosesBlock) {
  for (const TmKind kind : kUndoRecordKinds) {
    SCOPED_TRACE(tm_kind_name(kind));
    PersistJournal journal;
    RunnerConfig cfg = crash_config(kind);
    cfg.pmem.journal = &journal;
    TmRunner runner(cfg);
    const gaddr_t flag = runner.alloc().raw_alloc(0, 1);
    constexpr std::size_t kNode = 4;
    gaddr_t node = 0;
    ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) {
      node = tx.alloc(kNode);
      tx.write(node, 0xBEEF);
      tx.write(flag, node);
    }));
    const std::size_t free_begin = journal.size();
    ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) {
      tx.free(node, kNode);
      tx.write(flag, 0);  // durably zero iff the free committed
    }));
    const auto events = journal.events();

    TmRunner verifier(crash_config(kind));
    CrashEnumerator en(events, CrashEnumOptions{});
    const auto check_image = [&](std::size_t prefix, std::uint64_t seed) {
      const CrashImage img = materialize_crash_image(events, prefix, seed);
      verifier.pool().install_crash_image(img.words);
      verifier.tm().recover_data();
      word_t f = 0;
      verifier.tm().run(0, [&](Tx& tx) { f = tx.read(flag); });
      const bool freed = f == 0;
      EXPECT_EQ(verifier.alloc().slot_bit(node, kNode), !freed)
          << "prefix " << prefix << " seed " << seed;
      std::vector<LiveBlock> live;
      if (verifier.alloc().slot_bit(flag, 1)) live.push_back({flag, 1});
      if (!freed) live.push_back({node, kNode});
      EXPECT_EQ(verifier.alloc().verify_rebuild(live), 0u)
          << "unexpected leak at prefix " << prefix << " seed " << seed;
      // A double-freed slot would be handed out twice; a lost one never.
      std::vector<gaddr_t> got;
      ASSERT_TRUE(verifier.tm().run(0, [&](Tx& tx) {
        got.clear();  // the body may be re-executed
        for (int i = 0; i < 6; ++i) got.push_back(tx.alloc(kNode));
      }));
      std::sort(got.begin(), got.end());
      EXPECT_EQ(std::adjacent_find(got.begin(), got.end()), got.end())
          << "duplicate allocation at prefix " << prefix << " seed " << seed;
      if (!freed) {
        EXPECT_EQ(std::find(got.begin(), got.end(), node), got.end())
            << "live block recycled at prefix " << prefix << " seed " << seed;
      }
    };
    for (const std::size_t prefix : en.boundaries()) {
      if (prefix < free_begin) continue;
      check_image(prefix, 0);
      check_image(prefix, en.subset_seed_for(prefix, 0));
      check_image(prefix, en.subset_seed_for(prefix, 1));
    }
  }
}

// Regression for the torn re-arm "lost block". Transaction 1 allocates a
// node and commits; transaction 2 on the same thread frees it. Arming
// transaction 2 overwrites intent entry 0 in place while the record's
// state line still durably names transaction 1's committed arm. A crash
// that persists the new payload ("free node") but not the tag stored after
// it must not let recovery re-apply arm 1 with that payload: that clears
// the allocation bit of a node that is still live.
TEST(CrashEnumAllocTest, TornRearmKeepsLiveBlockAllocated) {
  for (const TmKind kind : kUndoRecordKinds) {
    SCOPED_TRACE(tm_kind_name(kind));
    PersistJournal journal;
    RunnerConfig cfg = crash_config(kind);
    cfg.pmem.journal = &journal;
    TmRunner runner(cfg);
    constexpr std::size_t kNode = 4;
    gaddr_t node = 0;
    ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) {
      node = tx.alloc(kNode);
      tx.write(node, 0xC0DE);
    }));
    const std::size_t commit1_end = journal.size();
    ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) { tx.free(node, kNode); }));
    const auto events = journal.events();
    ASSERT_EQ(events[commit1_end - 1].kind, PersistEventKind::kFence);

    // The intent records follow the allocator's one-line metadata header;
    // thread 0's entry 0 (payload word, then tag word) sits one line into
    // its record, after the state line.
    const std::uint64_t entry0 = runner.alloc().meta_base() + 2 * kWordsPerLine;
    const auto payload = std::find_if(
        events.begin() + static_cast<std::ptrdiff_t>(commit1_end), events.end(),
        [&](const PersistEvent& ev) {
          return ev.kind == PersistEventKind::kStore && ev.word == entry0;
        });
    ASSERT_NE(payload, events.end()) << "transaction 2 never re-armed entry 0";

    // Fence-boundary image after commit 1, plus the re-arm's first payload
    // store without the tag store that follows it on the same line.
    CrashImage img = materialize_crash_image(events, commit1_end, 0);
    ASSERT_NE(image_value(img, entry0), 0u) << "commit 1 left no armed entry to tear";
    ASSERT_NE(image_value(img, entry0), payload->value);
    const auto slot = std::find_if(img.words.begin(), img.words.end(),
                                   [&](const auto& w) { return w.first == entry0; });
    slot->second = payload->value;

    TmRunner verifier(crash_config(kind));
    verifier.pool().install_crash_image(img.words);
    verifier.tm().recover_data();
    EXPECT_TRUE(verifier.alloc().slot_bit(node, kNode)) << "recovery freed a live block";
    const std::vector<LiveBlock> live = {{node, kNode}};
    EXPECT_NO_THROW(verifier.alloc().verify_rebuild(live));
  }
}

// Recovery reads records only below the carved end, which rests on the
// allocator fencing its watermark before it hands out a slot of a fresh
// segment. Tid 1 takes a block of a fresh segment and stages a record
// there, and tid 2 commits (so fence boundaries fall) before tid 1 fences.
// No image cut in that window may hold the record without the watermark
// that covers it; CrashImageVerifier checks that premise on every image.
// The bundle carries no harness workload, so the premise is the only
// invariant at stake.
TEST(CrashEnumAllocTest, FreshSegmentRecordNeverOutrunsTheWatermark) {
  for (const TmKind kind : all_kinds()) {
    SCOPED_TRACE(tm_kind_name(kind));
    PersistJournal journal;
    RunnerConfig cfg = crash_config(kind);
    cfg.pmem.journal = &journal;
    TmRunner runner(cfg);
    const gaddr_t x = runner.alloc().raw_alloc(0, 1);
    const gaddr_t node = runner.alloc().tx_alloc(1, 4);
    ASSERT_GE(node, runner.alloc().heap_begin() + kSegmentWords) << "not a fresh segment";
    const std::size_t staged = journal.size();
    runner.pool().record_write(1, node, 0x0D, 0xAB, pack_pver(1, 5));
    runner.pool().flush_record(1, node);
    ASSERT_TRUE(runner.tm().run(2, [&](Tx& tx) { tx.write(x, 5); }));
    const std::size_t fenced = journal.size();
    runner.pool().fence(1);
    runner.alloc().on_abort(1);

    CrashTraceBundle tr;
    tr.opt.kind = kind;
    tr.opt.transfer_threads = tr.opt.counter_threads = tr.opt.map_threads = 0;
    tr.opt.accounts = 0;
    tr.events = journal.events();
    tr.trace_hash = PersistJournal::hash(tr.events);
    tr.prefill_bound = tr.events.size() + 1;

    CrashEnumOptions eopt;
    eopt.subset_seeds_per_prefix = 8;
    CrashEnumerator en(tr.events, eopt);
    ASSERT_TRUE(std::any_of(en.boundaries().begin(), en.boundaries().end(),
                            [&](std::size_t b) { return b > staged && b <= fenced; }))
        << "no fence boundary between the record store and its fence";
    CrashImageVerifier verifier(tr);
    const auto failure = en.run(verifier.checker());
    ASSERT_FALSE(failure.has_value())
        << "record outran the watermark at " << failure->triple.to_string() << ": "
        << failure->why;
  }
}

// ---- SPHT log replay -------------------------------------------------------

// An SPHT checkpoint folds the redo logs into the heap image, then resets
// every log head under one fence. Thread 0 writes x = 1, thread 1 then
// writes x = 2, and a checkpoint folds both. A crash image that holds
// thread 1's head reset but not thread 0's keeps only the older record.
// Recovery must not replay that record over the heap's newer value.
TEST(CrashEnumSphtTest, TornTruncationKeepsNewerHeapValue) {
  PersistJournal journal;
  RunnerConfig cfg = crash_config(TmKind::kSpht, /*checkpoint=*/true);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  const gaddr_t x = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(runner.tm().run(0, [&](Tx& tx) { tx.write(x, 1); }));
  ASSERT_TRUE(runner.tm().run(1, [&](Tx& tx) { tx.write(x, 2); }));
  const std::size_t ckpt_begin = journal.size();
  ASSERT_TRUE(runner.tm().checkpoint(0));
  const auto events = journal.events();

  // The truncation is the checkpoint's first run of (store 0, flush) pairs
  // that ends in a fence; heads are reset in thread order.
  std::size_t trunc = ckpt_begin;
  for (; trunc + 2 < events.size(); ++trunc) {
    std::size_t i = trunc;
    while (i + 1 < events.size() && events[i].kind == PersistEventKind::kStore &&
           events[i].value == 0 && events[i + 1].kind == PersistEventKind::kFlush)
      i += 2;
    if (i - trunc >= 4 && events[i].kind == PersistEventKind::kFence) break;
  }
  ASSERT_LT(trunc + 2, events.size()) << "checkpoint truncated no log";
  ASSERT_EQ(events[trunc - 1].kind, PersistEventKind::kFence);
  const PersistEvent& head1_reset = events[trunc + 2];

  // Fence-boundary image before the truncation, plus thread 1's head reset.
  CrashImage img = materialize_crash_image(events, trunc, 0);
  ASSERT_NE(image_value(img, head1_reset.word), 0u) << "thread 1's log was already empty";
  std::erase_if(img.words, [&](const auto& w) { return w.first == head1_reset.word; });

  TmRunner verifier(crash_config(TmKind::kSpht, /*checkpoint=*/true));
  verifier.pool().install_crash_image(img.words);
  verifier.tm().recover_data();
  word_t v = 0;
  ASSERT_TRUE(verifier.tm().run(0, [&](Tx& tx) { v = tx.read(x); }));
  EXPECT_EQ(v, 2u) << "recovery replayed a truncated-away predecessor over the heap";
}

// Acceptance for the delete-heavy extension: four list-churn threads drive
// tx.free through the intent + limbo machinery while a transfer thread
// keeps the zero-sum invariant in play; every fence boundary (plus two
// mid-fence adversary images each) must recover consistently.
TEST(CrashEnumAllocTest, DeleteHeavyListChurnRecoversAtEveryBoundary) {
  CrashHarnessOptions opt;
  opt.transfer_threads = 1;
  opt.counter_threads = 0;
  opt.map_threads = 0;
  opt.list_threads = 4;
  opt.txs_per_thread = 8;
  const CrashTraceBundle tr = run_crash_workload(opt);

  CrashEnumOptions eopt;
  eopt.subset_seeds_per_prefix = 2;
  CrashEnumerator en(tr.events, eopt);
  ASSERT_GT(en.boundaries().size(), 20u) << "churn produced suspiciously few fences";

  CrashImageVerifier verifier(tr);
  const auto failure = en.run(verifier.checker());
  ASSERT_FALSE(failure.has_value())
      << "allocator crash-consistency violation at " << failure->triple.to_string() << ": "
      << failure->why;
}

// ---- Acceptance: exhaustive enumeration over all five TMs -----------------

class CrashEnumAllTms : public ::testing::TestWithParam<TmKind> {};

INSTANTIATE_TEST_SUITE_P(AllTms, CrashEnumAllTms, ::testing::ValuesIn(all_kinds()),
                         test::kind_param_name);

TEST_P(CrashEnumAllTms, EveryFenceBoundaryRecoversConsistently) {
  CrashHarnessOptions opt;
  opt.kind = GetParam();
  ASSERT_EQ(opt.transfer_threads + opt.counter_threads + opt.map_threads, 8);
  const CrashTraceBundle tr = run_crash_workload(opt);

  CrashEnumOptions eopt;
  eopt.subset_seeds_per_prefix = 2;
  CrashEnumerator en(tr.events, eopt);
  ASSERT_GT(en.boundaries().size(), 50u) << "workload produced suspiciously few fences";

  CrashImageVerifier verifier(tr);
  const auto failure = en.run(verifier.checker());
  ASSERT_FALSE(failure.has_value())
      << "durable-linearizability violation at " << failure->triple.to_string() << ": "
      << failure->why;
  EXPECT_EQ(en.stats().prefixes_checked, en.boundaries().size());
  EXPECT_EQ(en.stats().images_checked, en.boundaries().size() * (1 + eopt.subset_seeds_per_prefix));
  EXPECT_FALSE(en.stats().budget_exhausted);
}

// ---- Acceptance: mutation testing of recovery -----------------------------

TEST(CrashEnumMutationTest, BrokenRecoveryIsCaughtWithReplayableTriple) {
  CrashHarnessOptions opt;  // NV-HALT: the skip knob lives in its recovery
  const CrashTraceBundle tr = run_crash_workload(opt);

  CrashEnumOptions eopt;
  eopt.subset_seeds_per_prefix = 1;
  CrashEnumerator en(tr.events, eopt);

  // Recovery that silently skips its first undo-record revert leaves a torn
  // transaction behind at some crash prefix; the checker must find it.
  CrashImageVerifier broken(tr, /*recovery_skip_nth_revert=*/0);
  const auto failure = en.run(broken.checker());
  ASSERT_TRUE(failure.has_value()) << "mutated recovery escaped the checker";
  EXPECT_EQ(failure->triple.trace_hash, tr.trace_hash);
  EXPECT_FALSE(failure->why.empty());

  // The triple replays: a fresh broken verifier fails the same image...
  CrashImageVerifier broken_again(tr, 0);
  CrashEnumerator replayer(tr.events, eopt);
  const auto again = replayer.replay(failure->triple, broken_again.checker());
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(again->triple.prefix, failure->triple.prefix);
  EXPECT_EQ(again->triple.subset_seed, failure->triple.subset_seed);

  // ...and intact recovery passes it, isolating the fault to the mutation.
  CrashImageVerifier intact(tr);
  EXPECT_FALSE(replayer.replay(failure->triple, intact.checker()).has_value());
}

}  // namespace
}  // namespace nvhalt
