// Lock placement strategies (paper Sec. 4, "Fine-Grained Locks").
//
// NV-HALT / NV-HALT-SP use a fixed-size hashed lock table as in TL2:
// multiple addresses may map to one lock, but user data layout is
// unaffected. NV-HALT-CL colocates one lock with every word, which lets
// the (simulated) cache fetch the lock together with the data — in this
// codebase that is modelled by giving the colocated lock the same
// conflict-tracking line as its word (see SimHtm::canonical).
#pragma once

#include <cstdint>

#include "locks/contention.hpp"
#include "locks/versioned_lock.hpp"
#include "util/common.hpp"
#include "util/mapped_array.hpp"

namespace nvhalt {

enum class LockMode { kTable, kColocated };

/// Maps addresses to versioned locks under either placement strategy.
class LockSpace {
 public:
  /// `table_entries` must be a power of two; used only in kTable mode.
  /// `capacity_words` sizes the colocated array in kColocated mode.
  LockSpace(LockMode mode, std::size_t table_entries, std::size_t capacity_words);

  LockSpace(const LockSpace&) = delete;
  LockSpace& operator=(const LockSpace&) = delete;

  LockMode mode() const { return mode_; }

  /// Resolves the lock protecting address `a`. Table mode is the likely
  /// branch: every TM except NV-HALT-CL uses it, and the hw fast path
  /// resolves a lock per access, so the colocated test must not cost the
  /// common case a mispredict (raw pointers, not unique_ptr loads, below).
  ///
  /// Table mode hashes the *cache line* of `a`, not the word: conflict
  /// tracking (and real HTM) is line-granular anyway, so per-word locks
  /// bought no extra concurrency — same-line writers already abort each
  /// other — while costing a sequential scan one fresh lock stripe per
  /// word. With line hashing a node scan resolves one lock entry per
  /// line, which the fast path's lock memo then touches exactly once.
  LockRef ref(gaddr_t a) {
    if (NVHALT_LIKELY(mode_ == LockMode::kTable)) {
      const std::size_t i = hash(a / kWordsPerLine) & mask_;
      LockEntry& e = table_raw_[i];
      return LockRef{&e.s, &e.h, htm::loc_lock(i)};
    }
    LockEntry& e = colocated_raw_[a];
    return LockRef{&e.s, &e.h, htm::loc_colock(a)};
  }

  /// Clears all locks (recovery: locks are volatile metadata). Contention
  /// tallies are deliberately preserved — they are diagnostics of the run,
  /// not lock state; reset them via contention().reset().
  void reset();

  std::size_t table_entries() const { return mask_ + 1; }

  /// Per-stripe contention observatory over this lock space. In table mode
  /// a stripe is the lock-table index (hash-reduced when the table exceeds
  /// ContentionTable::kMaxStripes); colocated entries hash-reduce too.
  ContentionTable& contention() { return contention_; }
  const ContentionTable& contention() const { return contention_; }

  /// The contention stripe covering address `a` — same mapping ref() uses,
  /// reduced to the table size, so attribution and locking agree.
  std::size_t contention_stripe(gaddr_t a) const {
    if (NVHALT_LIKELY(mode_ == LockMode::kTable))
      return (hash(a / kWordsPerLine) & mask_) % contention_.stripes();
    return hash(a) % contention_.stripes();
  }

  /// Stripe of a lock by its sLock word pointer — for attribution sites
  /// (TL2 revalidation) that recorded the lock but not the address.
  std::size_t contention_stripe_of_lock(const std::atomic<std::uint64_t>* lock_s) const {
    const auto* p = reinterpret_cast<const char*>(lock_s);
    if (NVHALT_LIKELY(mode_ == LockMode::kTable)) {
      const auto* b = reinterpret_cast<const char*>(table_raw_);
      return (static_cast<std::size_t>(p - b) / sizeof(PaddedLockEntry)) %
             contention_.stripes();
    }
    const auto* b = reinterpret_cast<const char*>(colocated_raw_);
    return hash(static_cast<gaddr_t>(static_cast<std::size_t>(p - b) / sizeof(LockEntry))) %
           contention_.stripes();
  }

 private:
  static std::size_t hash(gaddr_t a) {
    std::uint64_t x = a * 0x9E3779B97F4A7C15ULL;
    return static_cast<std::size_t>(x >> 24);
  }

  LockMode mode_;
  ContentionTable contention_;
  std::size_t mask_ = 0;
  std::size_t colocated_count_ = 0;
  // Table entries are padded to a cache line each (they are shared by many
  // addresses); colocated entries are dense, as they would be in memory.
  // Both arrays are mappings of their own (util/mapped_array.hpp): the
  // 2^16-entry table is 4 MiB and the colocated array 16 bytes per word,
  // large enough to want huge pages.
  struct alignas(kCacheLineBytes) PaddedLockEntry : LockEntry {};
  MappedArray<PaddedLockEntry> table_;
  MappedArray<LockEntry> colocated_;
  // Cached .get() of whichever array is active, so ref() dereferences one
  // raw pointer instead of reloading through the unique_ptr each access.
  PaddedLockEntry* table_raw_ = nullptr;
  LockEntry* colocated_raw_ = nullptr;
};

}  // namespace nvhalt
