// Transactional chained hashmap, matching the paper's microbenchmark
// (Sec. 5, Fig. 8 row 2): a fixed number of buckets (the paper uses one
// million), separate chaining, and remove operations that *mark nodes
// empty* rather than freeing them — insert reuses an empty node in the
// chain. Works against any TransactionalMemory.
#pragma once

#include <vector>

#include "api/tm.hpp"

namespace nvhalt {

class TmHashMap {
 public:
  /// Keys must be nonzero (0 is the empty-node sentinel).
  static constexpr word_t kEmptyKey = 0;

  /// Creates a fresh map with `buckets` (power of two) chains inside the
  /// TM's pool, recording its root in pool root slot `root_slot`.
  TmHashMap(TransactionalMemory& tm, std::size_t buckets, int root_slot = 0);

  /// Attaches to a map previously created in `root_slot` (post-recovery).
  static TmHashMap attach(TransactionalMemory& tm, int root_slot = 0);

  // ---- Self-contained transactional operations -------------------------
  /// Inserts (key, val); returns false if the key was already present
  /// (value left unchanged, set semantics as in the paper's benchmark).
  bool insert(int tid, word_t key, word_t val);

  /// Removes key; returns false if absent.
  bool remove(int tid, word_t key);

  /// Returns true and sets *out (if non-null) when key is present.
  bool contains(int tid, word_t key, word_t* out = nullptr);

  // ---- Composable operations (inside a caller transaction) --------------
  bool insert_in(Tx& tx, word_t key, word_t val);
  bool remove_in(Tx& tx, word_t key);
  bool contains_in(Tx& tx, word_t key, word_t* out = nullptr);

  /// Non-transactional full walk (quiescent): number of live keys.
  std::size_t size_slow() const;

  /// Enumerates all allocator blocks (bucket array + every node, including
  /// empty-marked ones) for recovery (paper Sec. 4's live-block iterator).
  std::vector<LiveBlock> collect_live_blocks() const;

  std::size_t buckets() const { return buckets_; }
  gaddr_t bucket_array() const { return array_; }

 private:
  TmHashMap(TransactionalMemory& tm, gaddr_t array, std::size_t buckets);

  // Node layout: [key][val][next]; allocated as kNodeWords.
  static constexpr std::size_t kNodeWords = 3;

  std::size_t bucket_of(word_t key) const {
    std::uint64_t x = key * 0x9E3779B97F4A7C15ULL;
    x ^= x >> 29;
    return static_cast<std::size_t>(x) & (buckets_ - 1);
  }

  TransactionalMemory& tm_;
  gaddr_t array_;
  std::size_t buckets_;
};

}  // namespace nvhalt
