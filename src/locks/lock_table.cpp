#include "locks/lock_table.hpp"

namespace nvhalt {

LockSpace::LockSpace(LockMode mode, std::size_t table_entries, std::size_t capacity_words)
    : mode_(mode),
      contention_(mode == LockMode::kTable ? table_entries
                                           : ContentionTable::kMaxStripes) {
  if (mode_ == LockMode::kTable) {
    if (table_entries == 0 || (table_entries & (table_entries - 1)) != 0)
      throw TmLogicError("lock table size must be a power of two");
    mask_ = table_entries - 1;
    table_ = map_zeroed_array<PaddedLockEntry>(table_entries);
    table_raw_ = table_.get();
  } else {
    colocated_count_ = capacity_words;
    colocated_ = map_zeroed_array<LockEntry>(capacity_words);
    colocated_raw_ = colocated_.get();
  }
}

void LockSpace::reset() {
  if (mode_ == LockMode::kTable) {
    for (std::size_t i = 0; i <= mask_; ++i) {
      table_[i].s.store(0, std::memory_order_relaxed);
      table_[i].h.store(0, std::memory_order_relaxed);
    }
  } else {
    for (std::size_t i = 0; i < colocated_count_; ++i) {
      colocated_[i].s.store(0, std::memory_order_relaxed);
      colocated_[i].h.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace nvhalt
