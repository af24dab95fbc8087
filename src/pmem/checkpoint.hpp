// Checkpoint/compaction subsystem (DESIGN.md Sec. 13).
//
// NV-HALT and Trinity colocate their undo history with the data (per-word
// {cur, old, pver} records), so unlike SPHT there is no log to replay:
// recovery reads every carved record (the words below the allocator's
// carved end) once to rebuild the volatile image, and the paper's revert
// predicate (Sec. 3.5) decides which in-flight writes to undo. This module
// spares that predicate on the lines untouched since the last consistent
// point; the read of every carved record stays (SPHT's replay is what a
// checkpoint truly bounds):
//
//  * A persistent *dirty-line bitmap* over the record lines, 64 lines (128
//    words) per bitmap word. Before a persist phase stages any record store
//    to a line, the line's bit is durable: the writer ORs its lines' bits
//    into per-word pending sets, stages and flushes each touched bitmap
//    word once on its own flush queue, and fences. The write-barrier
//    invariant this buys: any record line the crash adversary can
//    materialize has a durable dirty bit, so recovery may skip the revert
//    predicate on every clean line.
//  * One durable *generation word*: [63:32] magic "CPK1", [31:0] the
//    generation. A checkpoint drains all persist phases (writer-side
//    shared lock, checkpoint-side exclusive), durably idles the
//    allocator's armed intent records, truncates the bitmap (the
//    compaction step — cleared bits are exactly the revert obligations
//    retired by the checkpoint), fences, then stores generation + 1 and
//    fences again: two fences. The pool stores the word atomically, so
//    the generation can never tear, and the crash-prefix enumerator can
//    place boundaries inside truncation like anywhere else.
//
// Torn-checkpoint window: a crash between the bitmap truncation and the
// generation store leaves the *old* generation with a (partially)
// cleared bitmap. This is safe by construction — at truncation time all
// persist phases were drained, so every record a cleared bit covered
// belongs to a durably completed transaction (its pver is below the
// owner's durable marker) which the revert predicate would skip anyway.
// Recovery therefore reaches the same state from either generation;
// tests/checkpoint_test.cpp pins this with replayable (hash, prefix, seed)
// triples.
//
// The steady-state cost is one staged store and one flush per bitmap word
// a write set newly touches, plus one fence per such write set, once per
// checkpoint interval: once a line's bit is durably set (tracked by a
// volatile shadow bitmap), later writers skip it entirely, so hot lines
// pay nothing.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "pmem/pmem_pool.hpp"
#include "util/common.hpp"

namespace nvhalt {

class TxAllocator;

struct CheckpointStats {
  std::uint64_t checkpoints = 0;    ///< completed generation stores
  std::uint64_t lines_retired = 0;  ///< dirty bits cleared by truncation
  std::uint64_t marks = 0;          ///< dirty bits newly published, each line once
  std::uint64_t mark_fences = 0;    ///< extra fences paid publishing marks
};

class CheckpointManager {
 public:
  /// Reserves the checkpoint raw region (metadata_words) from the pool and
  /// durably initializes generation 0 unless the pool attached to an
  /// existing image (then recover() adopts the durable state instead).
  /// `alloc` (may be null) is quiesced during checkpoints so a truncated
  /// bitmap never outlives an armed intent record it made redundant.
  CheckpointManager(PmemPool& pool, TxAllocator* alloc);

  CheckpointManager(const CheckpointManager&) = delete;
  CheckpointManager& operator=(const CheckpointManager&) = delete;

  /// Raw persistent words of checkpoint metadata for a pool of
  /// `capacity_words` (the generation word's line + the dirty-line bitmap,
  /// line-padded). Pool sizing adds this to raw-region budgets when
  /// checkpointing is enabled; disabled configurations allocate nothing
  /// and keep a byte-identical raw layout.
  static std::size_t metadata_words(std::size_t capacity_words);

  // ---- Writer side (persist phases) ------------------------------------
  /// Shared-mode guard a persist phase must hold from before its first
  /// mark() until after its closing fence. Checkpoints take the exclusive
  /// side, so holding this open is what "drain all persist phases" means.
  std::shared_lock<std::shared_mutex> persist_phase() {
    return std::shared_lock<std::shared_mutex>(mu_);
  }

  /// ORs the dirty bit covering word `a`'s record line into `tid`'s
  /// pending (bitmap word, bits) set, unless the shadow bitmap says the bit
  /// is already durable. Returns true when the caller owes a mark fence:
  /// stage_marks(), fence, then commit_marks(), all before staging any
  /// record store of the write set. Requires a persist_phase() guard.
  bool mark(int tid, gaddr_t a);

  /// Stages each of `tid`'s pending bitmap words once (an idempotent OR
  /// under the word's hashed lock) and queues its flush on `tid`'s own
  /// queue — even when another thread already staged the bits, because
  /// that thread's fence may come later than our record stores.
  void stage_marks(int tid);

  /// Publishes `tid`'s pending marks to the volatile shadow bitmap, one
  /// fetch_or per bitmap word, counting each newly published line once.
  /// Call only after the fence that made the stage_marks() flushes durable.
  void commit_marks(int tid);

  // ---- Checkpoint -------------------------------------------------------
  /// Runs one checkpoint on behalf of `tid`: drains persist phases
  /// (exclusive lock), durably idles armed allocator intents, truncates
  /// the dirty bitmap, and durably stores the next generation. Safe to
  /// call from any thread, under its own in-range tid (the TM checks it),
  /// between its own transactions; concurrent committers block only for
  /// the duration.
  void checkpoint(int tid);

  std::uint64_t generation() const { return gen_.load(std::memory_order_acquire); }
  CheckpointStats stats() const;

  // ---- Recovery side (quiescent) ---------------------------------------
  /// True when the generation word carries its magic — the precondition
  /// for the bounded (bitmap-guided) revert pass. False for crash images
  /// predating the initialization fence; recovery then falls back to the
  /// full scan.
  bool durable_valid() const;
  std::uint64_t durable_generation() const;
  /// Raw index (= persistent word index) of the generation word.
  std::size_t generation_word_idx() const { return base_; }

  /// Durable dirty bit of record line `rec_line` (= a / 2 for word a).
  bool durable_dirty(std::size_t rec_line) const;
  /// Durable bitmap word `w`: the dirty bits of record lines [64w, 64w+64),
  /// so of words [kWordsPerBitmapWord * w, kWordsPerBitmapWord * (w + 1)).
  std::uint64_t durable_dirty_word(std::size_t w) const;
  std::size_t record_lines() const { return rec_lines_; }
  std::size_t bitmap_words() const { return bitmap_words_; }
  /// Raw index (= persistent word index) of bitmap word `w`.
  std::size_t bitmap_word_idx(std::size_t w) const { return bitmap_base_ + w; }
  /// Pool words whose record lines one bitmap word covers.
  static constexpr std::size_t kWordsPerBitmapWord = 128;

  /// Post-recovery adoption: loads the durable generation (or reseeds an
  /// invalid region), then runs one checkpoint so the recovered image
  /// starts a fresh generation with an empty dirty set — sound because
  /// recovery just made every record durably consistent.
  void recover(int tid);

 private:
  static constexpr std::uint64_t kGenMagic = 0x43504B31;  // "CPK1"
  static std::uint64_t pack_gen(std::uint64_t gen) {
    return (kGenMagic << 32) | (gen & 0xFFFFFFFFULL);
  }

  /// Clears the staged+durable bitmap, then durably stores `next_gen`;
  /// caller holds mu_ exclusively (or is quiescent recovery).
  void truncate_and_advance(int tid, std::uint64_t next_gen);

  PmemPool& pool_;
  TxAllocator* alloc_;
  std::size_t rec_lines_;
  std::size_t bitmap_words_;
  std::size_t base_;         // raw index: generation word
  std::size_t bitmap_base_;  // raw index: first bitmap word

  /// Persist phases shared, checkpoints exclusive.
  std::shared_mutex mu_;

  /// Volatile shadow of the durable bitmap: a set bit means the durable
  /// bit is known fenced, so writers skip re-publishing it.
  std::unique_ptr<std::atomic<std::uint64_t>[]> shadow_;

  /// Hashed spinlocks serializing staged read-modify-write of one bitmap
  /// word (slots of different threads share bitmap words), one per cache
  /// line so writers of different words do not bounce one line.
  static constexpr std::size_t kWordLocks = 64;
  std::unique_ptr<CacheLinePadded<std::atomic_flag>[]> word_locks_;

  /// One thread's write-barrier state. `words` holds the bitmap words and
  /// bits marked but not yet published to the shadow; owner-only between
  /// a persist phase's first mark() and its commit_marks(). The counters
  /// are bumped only by the owner (relaxed load and store) and summed by
  /// stats(), so the barrier adds no shared counter line.
  struct alignas(kCacheLineBytes) ThreadMarks {
    std::vector<std::pair<std::size_t, std::uint64_t>> words;
    std::atomic<std::uint64_t> marks{0};
    std::atomic<std::uint64_t> mark_fences{0};
  };
  std::unique_ptr<ThreadMarks[]> marks_;

  std::atomic<std::uint64_t> gen_{0};

  std::atomic<std::uint64_t> stat_checkpoints_{0};
  std::atomic<std::uint64_t> stat_lines_retired_{0};
};

}  // namespace nvhalt
