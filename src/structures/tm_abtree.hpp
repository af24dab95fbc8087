// Transactional (a,b)-tree with a=4, b=16, matching the paper's
// microbenchmark (Sec. 5, Fig. 8 row 1).
//
// B+-tree organisation: internal nodes hold up to b-1 separator keys and up
// to b children; leaves hold up to b (key, value) entries; every key lives
// in a leaf. Updates use top-down preemptive restructuring — full children
// are split and minimal children are fixed (borrow/merge) while descending
// — so one transaction never needs a retained parent stack and its write
// set stays small (good for the hardware path's capacity limits). Updates
// involve "expensive rebalancing operations" exactly as the paper notes,
// which is what drives hardware aborts in the update-heavy workloads.
#pragma once

#include <vector>

#include "api/tm.hpp"

namespace nvhalt {

class TmAbTree {
 public:
  static constexpr std::size_t kA = 4;   // min children / min leaf entries
  static constexpr std::size_t kB = 16;  // max children / max leaf entries

  /// Creates an empty tree in the TM's pool, rooted at `root_slot`.
  TmAbTree(TransactionalMemory& tm, int root_slot = 2);

  /// Attaches to a tree previously created at `root_slot` (post-recovery).
  static TmAbTree attach(TransactionalMemory& tm, int root_slot = 2);

  // ---- Self-contained transactional operations -------------------------
  bool insert(int tid, word_t key, word_t val);  // false if key present
  bool remove(int tid, word_t key);              // false if key absent
  bool contains(int tid, word_t key, word_t* out = nullptr);

  // ---- Composable operations (inside a caller transaction) --------------
  bool insert_in(Tx& tx, word_t key, word_t val);
  bool remove_in(Tx& tx, word_t key);
  bool contains_in(Tx& tx, word_t key, word_t* out = nullptr);

  /// Transactionally collects all (key, value) pairs with lo <= key <= hi,
  /// in ascending key order — a consistent range snapshot.
  std::vector<std::pair<word_t, word_t>> range(int tid, word_t lo, word_t hi);
  void range_in(Tx& tx, word_t lo, word_t hi,
                std::vector<std::pair<word_t, word_t>>& out) const;

  // ---- Quiescent whole-tree helpers -------------------------------------
  std::size_t size_slow() const;
  /// Validates the (a,b)-tree invariants (fill bounds, key ordering,
  /// uniform leaf depth); returns false and fills `why` on violation.
  bool validate_slow(std::string* why = nullptr) const;
  /// In-order key dump (tests).
  std::vector<word_t> keys_slow() const;
  /// Live allocator blocks (every node) for recovery.
  std::vector<LiveBlock> collect_live_blocks() const;

 private:
  TmAbTree(TransactionalMemory& tm, int root_slot, bool attach);

  // Node layout (word offsets). Internal nodes: meta, keys[kB-1],
  // children[kB] -> 32 words. Leaves: meta, keys[kB], vals[kB] -> 33 words.
  // meta packs [leaf:1][count:63]; for internal nodes count = #children.
  static constexpr std::size_t kMeta = 0;
  static constexpr std::size_t kKeys = 1;                       // both kinds
  static constexpr std::size_t kChildren = kKeys + (kB - 1);    // internal
  static constexpr std::size_t kVals = kKeys + kB;              // leaf
  static constexpr std::size_t kInternalWords = 1 + (kB - 1) + kB;  // 32
  static constexpr std::size_t kLeafWords = 1 + kB + kB;            // 33

  static word_t meta_make(bool leaf, std::size_t count) {
    return (static_cast<word_t>(count) << 1) | (leaf ? 1 : 0);
  }
  static bool meta_leaf(word_t m) { return (m & 1) != 0; }
  static std::size_t meta_count(word_t m) { return static_cast<std::size_t>(m >> 1); }

  gaddr_t root_of(Tx& tx) const { return tx.read(root_ptr_); }

  // Descent helpers; all operate inside the caller's transaction.
  gaddr_t new_leaf(Tx& tx) const;
  gaddr_t new_internal(Tx& tx) const;
  void split_child(Tx& tx, gaddr_t parent, std::size_t idx) const;
  void fix_child(Tx& tx, gaddr_t parent, std::size_t idx) const;

  // Non-transactional recursion helpers (quiescent).
  void walk_count(gaddr_t node, std::size_t& n) const;
  bool check_node(gaddr_t node, word_t lo, word_t hi, bool has_lo, bool has_hi, int depth,
                  int& leaf_depth, std::string* why) const;

  TransactionalMemory& tm_;
  int root_slot_;
  gaddr_t root_ptr_;  // pool word holding the root node address
};

}  // namespace nvhalt
