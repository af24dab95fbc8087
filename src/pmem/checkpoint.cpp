#include "pmem/checkpoint.hpp"

#include <bit>
#include <mutex>

#include "alloc/tx_allocator.hpp"

namespace nvhalt {

std::size_t CheckpointManager::metadata_words(std::size_t capacity_words) {
  const std::size_t rec_lines = (capacity_words + 1) / 2;
  const std::size_t bitmap_words = (rec_lines + 63) / 64;
  const std::size_t bitmap_padded =
      (bitmap_words + kWordsPerLine - 1) / kWordsPerLine * kWordsPerLine;
  // Generation word's line + bitmap.
  return kWordsPerLine + bitmap_padded;
}

CheckpointManager::CheckpointManager(PmemPool& pool, TxAllocator* alloc)
    : pool_(pool), alloc_(alloc) {
  rec_lines_ = (pool_.capacity_words() + 1) / 2;
  bitmap_words_ = (rec_lines_ + 63) / 64;
  base_ = pool_.alloc_raw(metadata_words(pool_.capacity_words()));
  bitmap_base_ = base_ + kWordsPerLine;

  shadow_ = std::make_unique<std::atomic<std::uint64_t>[]>(bitmap_words_);
  for (std::size_t w = 0; w < bitmap_words_; ++w)
    shadow_[w].store(0, std::memory_order_relaxed);
  word_locks_ = std::make_unique<CacheLinePadded<std::atomic_flag>[]>(kWordLocks);
  marks_ = std::make_unique<ThreadMarks[]>(kMaxThreads);

  if (pool_.attached_existing()) return;  // recover() adopts the durable state

  // Seed generation 0 durably. A crash before the fence leaves no magic
  // and recovery falls back to the full scan — never an unsound bounded
  // one.
  const int tid = 0;
  pool_.raw_store(tid, base_, pack_gen(0));
  pool_.flush_raw(tid, base_);
  pool_.fence(tid);
}

bool CheckpointManager::mark(int tid, gaddr_t a) {
  const std::size_t line = static_cast<std::size_t>(a) / 2;
  const std::size_t w = line / 64;
  const std::uint64_t bit = std::uint64_t{1} << (line % 64);
  if (shadow_[w].load(std::memory_order_acquire) & bit) return false;  // durably set

  // Write sets walk a node's words in order, so the word is usually the
  // last one pending.
  auto& words = marks_[tid].words;
  for (auto it = words.rbegin(); it != words.rend(); ++it) {
    if (it->first == w) {
      it->second |= bit;
      return true;
    }
  }
  words.emplace_back(w, bit);
  return true;
}

void CheckpointManager::stage_marks(int tid) {
  for (const auto& [w, bits] : marks_[tid].words) {
    // Idempotent OR, serialized per word: other threads mark other lines
    // of the same bitmap word concurrently.
    std::atomic_flag& lk = word_locks_[w % kWordLocks].value;
    while (lk.test_and_set(std::memory_order_acquire)) cpu_relax();
    const std::uint64_t cur = pool_.raw_load(bitmap_word_idx(w));
    if ((cur & bits) != bits) pool_.raw_store(tid, bitmap_word_idx(w), cur | bits);
    lk.clear(std::memory_order_release);

    // Always flush on OUR queue: another thread may have staged the bits,
    // but its fence can land after our record stores — durability of the
    // bits must ride a fence we control and order before our stores.
    pool_.flush_raw(tid, bitmap_word_idx(w));
  }
}

void CheckpointManager::commit_marks(int tid) {
  ThreadMarks& m = marks_[tid];
  if (m.words.empty()) return;
  std::uint64_t fresh = 0;
  for (const auto& [w, bits] : m.words)
    fresh += static_cast<std::uint64_t>(
        std::popcount(bits & ~shadow_[w].fetch_or(bits, std::memory_order_acq_rel)));
  m.words.clear();
  bump(m.marks, fresh);
  bump(m.mark_fences, 1);
}

void CheckpointManager::truncate_and_advance(int tid, std::uint64_t next_gen) {
  // (1) Truncation/compaction: clear the dirty-line bitmap. Sound even
  // half-done — persist phases are drained, so every bit cleared here
  // covered only durably-committed records the revert predicate skips.
  // The generation word still names the old generation, so a crash
  // anywhere below recovers from it.
  std::uint64_t retired = 0;
  for (std::size_t w = 0; w < bitmap_words_; ++w) {
    const std::uint64_t v = pool_.raw_load(bitmap_word_idx(w));
    if (v == 0) continue;
    retired += static_cast<std::uint64_t>(std::popcount(v));
    pool_.raw_store(tid, bitmap_word_idx(w), 0);
    pool_.flush_raw(tid, bitmap_word_idx(w));
  }
  pool_.fence(tid);

  // (2) Advance the generation: one word, so it cannot tear.
  pool_.raw_store(tid, base_, pack_gen(next_gen));
  pool_.flush_raw(tid, base_);
  pool_.fence(tid);

  for (std::size_t w = 0; w < bitmap_words_; ++w)
    shadow_[w].store(0, std::memory_order_relaxed);
  for (int t = 0; t < kMaxThreads; ++t) marks_[t].words.clear();
  gen_.store(next_gen, std::memory_order_release);
  stat_checkpoints_.fetch_add(1, std::memory_order_relaxed);
  stat_lines_retired_.fetch_add(retired, std::memory_order_relaxed);
}

void CheckpointManager::checkpoint(int tid) {
  std::unique_lock<std::shared_mutex> x(mu_);
  // Persist phases are drained: every armed allocator intent belongs to a
  // transaction whose apply is durably fenced, so idling the records is
  // pure truncation (recovery would only have re-applied them).
  if (alloc_ != nullptr) alloc_->quiesce_intents(tid);
  truncate_and_advance(tid, gen_.load(std::memory_order_relaxed) + 1);
}

CheckpointStats CheckpointManager::stats() const {
  CheckpointStats s;
  s.checkpoints = stat_checkpoints_.load(std::memory_order_relaxed);
  s.lines_retired = stat_lines_retired_.load(std::memory_order_relaxed);
  for (int t = 0; t < kMaxThreads; ++t) {
    s.marks += marks_[t].marks.load(std::memory_order_relaxed);
    s.mark_fences += marks_[t].mark_fences.load(std::memory_order_relaxed);
  }
  return s;
}

bool CheckpointManager::durable_valid() const {
  return (pool_.raw_load(base_) >> 32) == kGenMagic;
}

std::uint64_t CheckpointManager::durable_generation() const {
  return pool_.raw_load(base_) & 0xFFFFFFFFULL;
}

bool CheckpointManager::durable_dirty(std::size_t rec_line) const {
  return (durable_dirty_word(rec_line / 64) >> (rec_line % 64)) & 1;
}

std::uint64_t CheckpointManager::durable_dirty_word(std::size_t w) const {
  return pool_.raw_load(bitmap_word_idx(w));
}

void CheckpointManager::recover(int tid) {
  // Quiescent: adopt the durable generation (or restart at 0 when the
  // crash predates initialization), then retire the recovered delta as a
  // fresh generation — recovery just reverted or confirmed every dirty
  // record, so the next crash starts from an empty dirty set.
  const std::uint64_t gen = durable_valid() ? durable_generation() : 0;
  gen_.store(gen, std::memory_order_relaxed);
  truncate_and_advance(tid, gen + 1);
}

}  // namespace nvhalt
