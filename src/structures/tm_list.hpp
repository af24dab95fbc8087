// Transactional sorted singly-linked list. Small, easy to reason about —
// used by tests (long read chains stress read-set validation) and the
// examples. Nodes are freed through the transactional allocator, which
// exercises the commit/abort hooks the paper's Sec. 4 motivates.
#pragma once

#include <vector>

#include "api/tm.hpp"

namespace nvhalt {

class TmList {
 public:
  /// Creates an empty list rooted at pool root slot `root_slot`.
  TmList(TransactionalMemory& tm, int root_slot = 4);

  /// Attaches to an existing list (post-recovery).
  static TmList attach(TransactionalMemory& tm, int root_slot = 4);

  bool insert(int tid, word_t key, word_t val);
  bool remove(int tid, word_t key);
  bool contains(int tid, word_t key, word_t* out = nullptr);

  bool insert_in(Tx& tx, word_t key, word_t val);
  bool remove_in(Tx& tx, word_t key);
  bool contains_in(Tx& tx, word_t key, word_t* out = nullptr);

  /// Sum of all values, in one transaction (snapshot consistency tests).
  word_t sum_values(int tid);

  std::size_t size_slow() const;
  std::vector<LiveBlock> collect_live_blocks() const;

 private:
  TmList(TransactionalMemory& tm, int root_slot, bool attach);

  static constexpr std::size_t kNodeWords = 3;  // [key][val][next]

  TransactionalMemory& tm_;
  int root_slot_;
  gaddr_t head_ptr_;  // pool word holding the first node address
};

}  // namespace nvhalt
