// Tests for the checkpoint/compaction subsystem (pmem/checkpoint.hpp,
// DESIGN.md Sec. 13): dirty-line bitmap publication and truncation, the
// write barrier's cost per bitmap word (read from the persistence journal)
// and its counts under concurrent writers and checkpoints, the one-word
// generation record and its two fences (also read from the journal),
// bounded (delta-since-checkpoint) record recovery, SPHT's native log
// compaction, and the torn-checkpoint window — a crash at any fence
// boundary between the checkpoint's start and its generation store
// recovers identically from either generation, pinned with replayable
// (hash, prefix, seed) triples — and the undo-record protocol NV-HALT and
// Trinity share, pinned by identical pool images.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "baselines/spht/spht_tm.hpp"
#include "baselines/trinity/trinity_tm.hpp"
#include "core/nvhalt_tm.hpp"
#include "crash_harness.hpp"
#include "pmem/checkpoint.hpp"
#include "pmem/crash_enum.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace nvhalt {
namespace {

using test::all_kinds;
using test::crash_config;
using test::kind_param_name;

CheckpointManager* manager_of(TransactionalMemory& tm) {
  if (auto* n = dynamic_cast<NvHaltTm*>(&tm)) return n->checkpoint_manager();
  if (auto* t = dynamic_cast<TrinityTm*>(&tm)) return t->checkpoint_manager();
  return nullptr;
}

/// Durable checkpoint generation of the current durable image. Read
/// quiescently — and before recover_data(), which flips to a fresh
/// generation. SPHT has no CheckpointManager; its compaction generation is
/// a dedicated durable counter.
std::uint64_t durable_generation_of(TransactionalMemory& tm) {
  if (CheckpointManager* m = manager_of(tm)) return m->durable_generation();
  return dynamic_cast<SphtTm&>(tm).checkpoint_generation();
}

TEST(CheckpointBitmapTest, MarkPublishTruncateCycle) {
  TmRunner runner(crash_config(TmKind::kNvHalt, /*checkpoint=*/true));
  auto& tm = runner.tm();
  CheckpointManager* ckpt = manager_of(tm);
  ASSERT_NE(ckpt, nullptr);
  EXPECT_TRUE(ckpt->durable_valid()) << "constructor did not seed generation 0";
  const std::uint64_t gen0 = ckpt->generation();

  const gaddr_t a = runner.alloc().raw_alloc(0, 1);
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 7); }));
  EXPECT_TRUE(ckpt->durable_dirty(a / 2))
      << "dirty bit not durably published before the record store";
  EXPECT_GE(ckpt->stats().marks, 1u);

  // Hot line: a second commit to an already-published line pays nothing.
  const std::uint64_t marks_before = ckpt->stats().marks;
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 8); }));
  EXPECT_EQ(ckpt->stats().marks, marks_before);

  EXPECT_TRUE(tm.checkpoint(0));
  EXPECT_EQ(ckpt->generation(), gen0 + 1);
  EXPECT_EQ(ckpt->durable_generation(), gen0 + 1);
  EXPECT_TRUE(ckpt->durable_valid());
  EXPECT_FALSE(ckpt->durable_dirty(a / 2)) << "truncation left the dirty bit set";
  EXPECT_GE(ckpt->stats().checkpoints, 1u);
  EXPECT_GE(ckpt->stats().lines_retired, 1u);

  // The volatile shadow was truncated with the bitmap: the next write to
  // the line re-publishes its bit durably.
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(a, 9); }));
  EXPECT_TRUE(ckpt->durable_dirty(a / 2));
  EXPECT_GT(ckpt->stats().marks, marks_before);
}

TEST(CheckpointBitmapTest, DisabledConfigHasNoManager) {
  TmRunner runner(crash_config(TmKind::kNvHalt, /*checkpoint=*/false));
  EXPECT_EQ(manager_of(runner.tm()), nullptr);
  EXPECT_FALSE(runner.tm().checkpoint(0));
}

TEST(CheckpointBitmapTest, TwoWordsOfOneRecordLineCountOneMark) {
  TmRunner runner(crash_config(TmKind::kNvHalt, /*checkpoint=*/true));
  auto& tm = runner.tm();
  CheckpointManager* ckpt = manager_of(tm);
  ASSERT_NE(ckpt, nullptr);
  // An even a and a + 1 share one record line (two records per line), as a
  // node's keys[i] and keys[i + 1] do.
  const gaddr_t blk = runner.alloc().raw_alloc(0, 4);
  const gaddr_t a = (blk + 1) & ~gaddr_t{1};
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
    tx.write(a, 1);
    tx.write(a + 1, 2);
  }));
  EXPECT_TRUE(ckpt->durable_dirty(a / 2));
  EXPECT_EQ(ckpt->stats().marks, 1u) << "one newly published line counted twice";
  EXPECT_EQ(ckpt->stats().mark_fences, 1u);
}

// The write barrier, read back from the persistence journal: a commit
// stages each bitmap word it newly touches exactly once, however many of
// that word's lines it writes, and every record store follows a fence of
// its own thread that follows the bitmap store setting its line's bit.
TEST(CheckpointBitmapTest, JournalShowsOneBitmapStorePerWordAndAFenceBeforeEachRecord) {
  for (const TmKind kind : {TmKind::kNvHalt, TmKind::kTrinity}) {
    SCOPED_TRACE(tm_kind_name(kind));
    PersistJournal journal;
    RunnerConfig cfg = crash_config(kind, /*checkpoint=*/true);
    cfg.pmem.journal = &journal;
    TmRunner runner(cfg);
    auto& tm = runner.tm();
    auto& pool = runner.pool();
    CheckpointManager* ckpt = manager_of(tm);
    ASSERT_NE(ckpt, nullptr);

    constexpr gaddr_t kSpan = CheckpointManager::kWordsPerBitmapWord;
    const gaddr_t blk = runner.alloc().raw_alloc_large(8 * kSpan);
    const gaddr_t first = (blk + kSpan - 1) / kSpan * kSpan;  // a bitmap word's first word
    const auto at = [&](gaddr_t word, gaddr_t off) { return first + word * kSpan + off; };
    // Every write set writes lines no earlier one wrote, so each touched
    // bitmap word owes one store. The first three stay under bitmap word
    // 0 (k = 1, 3 and 8 lines, some with both of a line's words); the
    // last two span two bitmap words.
    const std::vector<std::vector<gaddr_t>> sets = {
        {at(0, 0)},
        {at(0, 10), at(0, 12), at(0, 15)},
        {at(0, 20), at(0, 21), at(0, 22), at(0, 24), at(0, 26), at(0, 28), at(0, 29), at(0, 30),
         at(0, 32), at(0, 34)},
        {at(1, kSpan - 4), at(1, kSpan - 2), at(2, 0), at(2, 2)},
        {at(3, 6), at(5, 8), at(3, 40), at(5, 9)},
    };
    const std::size_t bitmap_lo = ckpt->bitmap_word_idx(0);
    const std::size_t bitmap_hi = ckpt->bitmap_word_idx(ckpt->bitmap_words());
    for (std::size_t i = 0; i < sets.size(); ++i) {
      const std::size_t j0 = journal.size();
      ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
        for (const gaddr_t a : sets[i]) tx.write(a, 1000 + a);
      }));
      const auto events = journal.events();
      std::map<std::size_t, int> stores;  // bitmap raw index -> staged stores
      for (std::size_t j = j0; j < events.size(); ++j)
        if (events[j].kind == PersistEventKind::kStore && events[j].word >= bitmap_lo &&
            events[j].word < bitmap_hi)
          ++stores[events[j].word];
      std::map<std::size_t, int> want;
      for (const gaddr_t a : sets[i]) want[ckpt->bitmap_word_idx(a / 2 / 64)] = 1;
      EXPECT_EQ(stores, want) << "write set " << i;
    }

    // Replay the bitmap through the whole journal: where each line's bit
    // was first staged, and each thread's latest fence.
    const auto events = journal.events();
    std::vector<std::uint64_t> bitmap(ckpt->bitmap_words(), 0);
    std::map<std::size_t, std::size_t> bit_set_at;  // record line -> event index
    std::map<int, std::size_t> last_fence;          // tid -> event index
    std::size_t records = 0;
    for (std::size_t j = 0; j < events.size(); ++j) {
      const PersistEvent& ev = events[j];
      if (ev.kind == PersistEventKind::kFence) last_fence[ev.tid] = j;
      if (ev.kind != PersistEventKind::kStore) continue;
      if (ev.word >= bitmap_lo && ev.word < bitmap_hi) {
        const std::size_t w = ev.word - bitmap_lo;
        for (std::uint64_t set = ev.value & ~bitmap[w]; set != 0; set &= set - 1)
          bit_set_at.emplace(w * 64 + static_cast<std::size_t>(std::countr_zero(set)), j);
        bitmap[w] = ev.value;
      } else if (ev.word >= pool.raw_space_words()) {
        const std::size_t line = (ev.word - pool.raw_space_words()) / 4 / 2;
        const auto set = bit_set_at.find(line);
        ASSERT_NE(set, bit_set_at.end()) << "record store " << j << " to an unmarked line";
        const auto fence = last_fence.find(ev.tid);
        ASSERT_TRUE(fence != last_fence.end() && fence->second > set->second)
            << "record store " << j << " by tid " << ev.tid
            << " not preceded by its own fence after bitmap store " << set->second;
        ++records;
      }
    }
    EXPECT_GT(records, 0u);
  }
}

// The checkpoint record, read back from the persistence journal. After
// commits that arm no allocator intent, a checkpoint stores zero to each
// bitmap word those commits set, fences, stores the next generation under
// the "CPK1" magic to the generation word, and fences again. It stores no
// other word, of the checkpoint region or anywhere else.
TEST(CheckpointBitmapTest, JournalShowsBitmapClearsAFenceTheGenerationStoreAndAFence) {
  PersistJournal journal;
  RunnerConfig cfg = crash_config(TmKind::kNvHalt, /*checkpoint=*/true);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  auto& pool = runner.pool();
  CheckpointManager* ckpt = manager_of(tm);
  ASSERT_NE(ckpt, nullptr);

  // Raw-allocated words: the commits below only overwrite them, so they
  // arm no allocator intent and the checkpoint has none to idle.
  constexpr gaddr_t kSpan = CheckpointManager::kWordsPerBitmapWord;
  const gaddr_t blk = runner.alloc().raw_alloc_large(4 * kSpan);
  for (gaddr_t i = 0; i < 3; ++i)
    ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(blk + i * kSpan, 10 + i); }));
  std::set<std::size_t> dirty;  // raw indices of the set bitmap words
  for (std::size_t w = 0; w < ckpt->bitmap_words(); ++w)
    if (pool.raw_load(ckpt->bitmap_word_idx(w)) != 0) dirty.insert(ckpt->bitmap_word_idx(w));
  ASSERT_GE(dirty.size(), 2u);
  const std::uint64_t gen = ckpt->generation();

  const std::size_t j0 = journal.size();
  ASSERT_TRUE(tm.checkpoint(0));
  const auto events = journal.events();
  std::vector<PersistEvent> seq;  // the checkpoint's stores and fences
  for (std::size_t j = j0; j < events.size(); ++j)
    if (events[j].kind == PersistEventKind::kStore || events[j].kind == PersistEventKind::kFence)
      seq.push_back(events[j]);
  ASSERT_EQ(seq.size(), dirty.size() + 3);

  std::set<std::size_t> cleared;
  for (std::size_t k = 0; k < dirty.size(); ++k) {
    ASSERT_EQ(seq[k].kind, PersistEventKind::kStore) << "event " << k;
    EXPECT_TRUE(dirty.count(seq[k].word)) << "store to word " << seq[k].word;
    EXPECT_EQ(seq[k].value, 0u);
    cleared.insert(seq[k].word);
  }
  EXPECT_EQ(cleared, dirty) << "each set bitmap word is cleared once";
  const std::size_t n = dirty.size();
  EXPECT_EQ(seq[n].kind, PersistEventKind::kFence);
  ASSERT_EQ(seq[n + 1].kind, PersistEventKind::kStore);
  EXPECT_EQ(seq[n + 1].word, ckpt->generation_word_idx());
  EXPECT_EQ(seq[n + 1].value, (std::uint64_t{0x43504B31} << 32) | (gen + 1));
  EXPECT_EQ(seq[n + 2].kind, PersistEventKind::kFence);
  EXPECT_EQ(ckpt->durable_generation(), gen + 1);
}

TEST(CheckpointBoundedRecoveryTest, RevertPassVisitsOnlyDeltaSinceCheckpoint) {
  TmRunner runner(crash_config(TmKind::kNvHalt, /*checkpoint=*/true));
  auto& tm = runner.tm();
  auto& pool = runner.pool();
  std::vector<gaddr_t> slots;
  for (int i = 0; i < 64; ++i) slots.push_back(runner.alloc().raw_alloc(0, 1));
  for (std::size_t i = 0; i < slots.size(); ++i)
    ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(slots[i], 100 + static_cast<word_t>(i)); }));
  ASSERT_TRUE(tm.checkpoint(0));

  // Post-checkpoint delta: one transaction over two slots.
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) {
    tx.write(slots[0], 1000);
    tx.write(slots[1], 2000);
  }));

  pool.crash(CrashPolicy{});
  const UndoRecoveryReport rep =
      dynamic_cast<NvHaltTm&>(tm).undo_records().recover(/*rtid=*/0, /*workers=*/2);
  EXPECT_TRUE(rep.bounded) << "valid checkpoint region but the full scan ran";
  EXPECT_GT(rep.lines_scanned, 0u);
  // The checkpoint retired the 64-slot history; the revert pass visits
  // only the lines the delta transaction dirtied, not the record space.
  EXPECT_LT(rep.lines_scanned, pool.record_lines() / 4);

  // Full recovery on top (reverts are idempotent) and the data survives:
  // pre-checkpoint values live purely in the compacted image.
  tm.recover_data();
  for (std::size_t i = 0; i < slots.size(); ++i) {
    word_t v = 0;
    tm.run(0, [&](Tx& tx) { v = tx.read(slots[i]); });
    const word_t want = i == 0 ? 1000 : i == 1 ? 2000 : 100 + static_cast<word_t>(i);
    EXPECT_EQ(v, want) << "slot " << i;
  }
}

TEST(CheckpointTest, SphtCheckpointAdvancesGenerationAndRecovers) {
  TmRunner runner(crash_config(TmKind::kSpht, /*checkpoint=*/true));
  auto& tm = runner.tm();
  auto& spht = dynamic_cast<SphtTm&>(tm);
  EXPECT_EQ(spht.checkpoint_generation(), 0u);

  std::vector<gaddr_t> slots;
  for (int i = 0; i < 8; ++i) slots.push_back(runner.alloc().raw_alloc(0, 1));
  for (std::size_t i = 0; i < slots.size(); ++i)
    ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(slots[i], 50 + static_cast<word_t>(i)); }));

  ASSERT_TRUE(tm.checkpoint(0));
  EXPECT_EQ(spht.checkpoint_generation(), 1u);

  // Post-compaction commits land in freshly truncated logs; recovery
  // replays only this delta on top of the checkpointed heap image.
  ASSERT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(slots[0], 77); }));

  runner.pool().crash(CrashPolicy{});
  tm.recover_data();
  EXPECT_EQ(spht.checkpoint_generation(), 1u);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    word_t v = 0;
    tm.run(0, [&](Tx& tx) { v = tx.read(slots[i]); });
    const word_t want = i == 0 ? 77 : 50 + static_cast<word_t>(i);
    EXPECT_EQ(v, want) << "slot " << i;
  }
}

// ---- The torn-checkpoint window ------------------------------------------
// Enumerates every fence boundary between the instant a checkpoint starts
// and the instant its generation store (or SPHT's generation bump) is
// durable. The protocol's claim: whichever generation the crash leaves
// durable — old with a partially cleared bitmap, or new — the recovered
// user state is identical, because truncation only ever clears bits
// covering durably committed records the revert predicate skips.
class CheckpointTornWindowTest : public testing::TestWithParam<TmKind> {};

TEST_P(CheckpointTornWindowTest, EveryWindowBoundaryRecoversIdentically) {
  const TmKind kind = GetParam();
  PersistJournal journal;
  RunnerConfig cfg = crash_config(kind, /*checkpoint=*/true);
  cfg.pmem.journal = &journal;
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  std::vector<gaddr_t> slots;
  for (int i = 0; i < 8; ++i) slots.push_back(runner.alloc().raw_alloc(0, 1));
  for (word_t round = 1; round <= 3; ++round)
    for (std::size_t i = 0; i < slots.size(); ++i)
      ASSERT_TRUE(
          tm.run(0, [&](Tx& tx) { tx.write(slots[i], round * 100 + static_cast<word_t>(i)); }));

  const std::size_t j0 = journal.size();
  ASSERT_TRUE(tm.checkpoint(0));
  const std::size_t j1 = journal.size();

  const auto events = journal.events();
  CrashEnumerator en(events, CrashEnumOptions{});
  std::vector<std::size_t> window;
  for (const std::size_t b : en.boundaries())
    if (b >= j0 && b <= j1) window.push_back(b);
  // The protocol is multi-fence by construction (truncate, then store the
  // generation — or replay, marker, truncate, bump), so the enumerator
  // must be able to land strictly inside it.
  ASSERT_GE(window.size(), 3u) << "no fence boundary inside the checkpoint window";

  TmRunner verifier(crash_config(kind, /*checkpoint=*/true));
  std::set<std::uint64_t> generations;
  for (const std::size_t b : window) {
    const CrashImage img = materialize_crash_image(events, b, 0);
    verifier.pool().install_crash_image(img.words);
    generations.insert(durable_generation_of(verifier.tm()));
    verifier.tm().recover_data();
    for (std::size_t i = 0; i < slots.size(); ++i) {
      word_t v = 0;
      verifier.tm().run(0, [&](Tx& tx) { v = tx.read(slots[i]); });
      EXPECT_EQ(v, 300 + static_cast<word_t>(i))
          << "slot " << i << " diverged inside the checkpoint window; replay triple "
          << CrashTriple{en.trace_hash(), b, 0}.to_string();
    }
  }
  // The generation store really lands inside the window: boundaries
  // before it hold the old generation, boundaries after it the new one —
  // and every one of them recovered to the same state above.
  EXPECT_GE(generations.size(), 2u)
      << "checkpoint window did not span the generation flip";
}

INSTANTIATE_TEST_SUITE_P(Checkpoint, CheckpointTornWindowTest, testing::ValuesIn(all_kinds()),
                         kind_param_name);

// ---- The write barrier under concurrency --------------------------------------
// Four writers commit overlapping write sets whose lines share bitmap words
// (and, within one write set, share lines) while a fifth thread
// checkpoints every few milliseconds. Each newly published line must be
// counted once, so the summed marks equal the lines every checkpoint
// retired plus the lines still dirty; and every line a commit wrote after
// the last checkpoint must be durably dirty. Runs under TSan in the
// tsan-concurrency preset.
TEST(CheckpointConcurrency, OverlappingWritersAndACheckpointerKeepTheBarrierExact) {
  constexpr int kWriters = 4;
  constexpr int kCheckpoints = 12;
  constexpr gaddr_t kSpan = CheckpointManager::kWordsPerBitmapWord;
  constexpr gaddr_t kWords = 4 * kSpan;  // four bitmap words, 256 record lines
  RunnerConfig cfg = crash_config(TmKind::kNvHalt, /*checkpoint=*/true);
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  CheckpointManager* ckpt = manager_of(tm);
  ASSERT_NE(ckpt, nullptr);
  const gaddr_t blk = runner.alloc().raw_alloc_large(kWords + kSpan);
  const gaddr_t first = (blk + kSpan - 1) / kSpan * kSpan;

  struct Commit {
    std::uint64_t gen;  // checkpoint generation read before the commit began
    std::vector<gaddr_t> words;
  };
  std::vector<std::vector<Commit>> log(kWriters);
  std::atomic<bool> stop{false};
  std::atomic<int> ready{0};
  const auto commit = [&](int w, Xoshiro256& rng) {
    Commit c;
    // Two adjacent words (often one record line) plus two anywhere in the
    // shared range: lines and bitmap words overlap across the writers.
    const gaddr_t a = first + rng.next_bounded(kWords - 1);
    c.words = {a, a + 1, first + rng.next_bounded(kWords), first + rng.next_bounded(kWords)};
    c.gen = ckpt->generation();
    const int tid = 1 + w;
    EXPECT_TRUE(tm.run(tid, [&](Tx& tx) {
      for (const gaddr_t x : c.words) tx.write(x, tx.read(x) + 1);
    }));
    log[static_cast<std::size_t>(w)].push_back(std::move(c));
  };

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      Xoshiro256 rng(0xC0FFEE + static_cast<std::uint64_t>(w));
      ready.fetch_add(1);
      while (!stop.load(std::memory_order_acquire)) commit(w, rng);
      commit(w, rng);  // after the checkpointer stopped
    });
  }
  while (ready.load() < kWriters) std::this_thread::yield();
  for (int i = 0; i < kCheckpoints; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    ASSERT_TRUE(tm.checkpoint(0));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();

  const std::uint64_t last_gen = ckpt->generation();
  const CheckpointStats st = ckpt->stats();
  EXPECT_EQ(st.checkpoints, static_cast<std::uint64_t>(kCheckpoints));
  runner.pool().crash(CrashPolicy{});  // no write-back: only fenced bits survive
  std::uint64_t dirty = 0;
  for (std::size_t w = 0; w < ckpt->bitmap_words(); ++w)
    dirty += static_cast<std::uint64_t>(std::popcount(ckpt->durable_dirty_word(w)));
  EXPECT_EQ(st.marks, st.lines_retired + dirty)
      << "marks must count each newly published line exactly once";

  std::size_t late = 0;
  for (const std::vector<Commit>& commits : log) {
    ASSERT_FALSE(commits.empty());
    for (const Commit& c : commits) {
      if (c.gen != last_gen) continue;
      ++late;
      for (const gaddr_t x : c.words)
        EXPECT_TRUE(ckpt->durable_dirty(x / 2)) << "word " << x << " committed after the last "
                                                << "checkpoint without a durable dirty bit";
    }
  }
  EXPECT_GE(late, static_cast<std::size_t>(kWriters));
}

// ---- One undo-record protocol ----------------------------------------------

// NV-HALT and Trinity persist, checkpoint and recover through the same
// engine (core/undo_records.hpp). On one single-threaded history they must
// therefore leave byte-identical pool images — volatile, staged and durable
// — before a crash and after recovery, with checkpointing on or off. This
// pins the protocol against a later fork.
struct ImageHashes {
  std::uint64_t pre_crash = 0;
  std::uint64_t recovered = 0;
};

/// 20 allocating commits (checkpoints after the 4th, 11th and 18th), 7
/// free-only commits, 5 read-modify-write commits, then a crash.
ImageHashes run_undo_history(const RunnerConfig& cfg) {
  TmRunner runner(cfg);
  auto& tm = runner.tm();
  std::vector<gaddr_t> nodes;
  for (int i = 0; i < 20; ++i) {
    gaddr_t n = kNullAddr;
    EXPECT_TRUE(tm.run(0, [&](Tx& tx) {
      n = tx.alloc(4);
      for (int w = 0; w < 4; ++w) tx.write(n + w, static_cast<word_t>(100 * i + w));
    }));
    nodes.push_back(n);
    if (i == 3 || i == 10 || i == 17) {
      EXPECT_EQ(tm.checkpoint(0), cfg.trinity.checkpoint);
    }
  }
  for (int i = 0; i < 7; ++i) EXPECT_TRUE(tm.run(0, [&](Tx& tx) { tx.free(nodes[i], 4); }));
  for (int i = 10; i < 15; ++i)
    EXPECT_TRUE(tm.run(0, [&](Tx& tx) { tx.write(nodes[i], tx.read(nodes[i]) + 1); }));
  ImageHashes h;
  h.pre_crash = runner.pool().image_hash();
  runner.pool().crash(CrashPolicy{0.0, 1});
  tm.recover_data();
  h.recovered = runner.pool().image_hash();
  return h;
}

class UndoRecordsEquivalence : public testing::TestWithParam<bool> {};

TEST_P(UndoRecordsEquivalence, NvHaltAndTrinityLeaveIdenticalImages) {
  const bool checkpoint = GetParam();
  const ImageHashes trinity = run_undo_history(crash_config(TmKind::kTrinity, checkpoint));

  RunnerConfig sw_only = crash_config(TmKind::kNvHalt, checkpoint);
  sw_only.nvhalt.htm_attempts = 0;
  const ImageHashes nvhalt_sw = run_undo_history(sw_only);
  EXPECT_EQ(nvhalt_sw.pre_crash, trinity.pre_crash);
  EXPECT_EQ(nvhalt_sw.recovered, trinity.recovered);

  const ImageHashes nvhalt = run_undo_history(crash_config(TmKind::kNvHalt, checkpoint));
  EXPECT_EQ(nvhalt.pre_crash, trinity.pre_crash);
  EXPECT_EQ(nvhalt.recovered, trinity.recovered);
}

INSTANTIATE_TEST_SUITE_P(CheckpointSetting, UndoRecordsEquivalence, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Checkpoint" : "NoCheckpoint");
                         });

}  // namespace
}  // namespace nvhalt
