// Transactional bounded FIFO queue (ring buffer). Not part of the paper's
// evaluation; included as an additional substrate consumer exercising
// multi-word transactions with head/tail contention, and used by tests and
// the examples.
#pragma once

#include <vector>

#include "api/tm.hpp"

namespace nvhalt {

class TmQueue {
 public:
  /// Creates a queue with `capacity` slots (power of two), rooted at pool
  /// root slot `root_slot`.
  TmQueue(TransactionalMemory& tm, std::size_t capacity, int root_slot = 6);

  /// Attaches to an existing queue (post-recovery).
  static TmQueue attach(TransactionalMemory& tm, int root_slot = 6);

  /// Enqueues v; returns false when full.
  bool enqueue(int tid, word_t v);
  /// Dequeues into *out; returns false when empty.
  bool dequeue(int tid, word_t* out);

  bool enqueue_in(Tx& tx, word_t v);
  bool dequeue_in(Tx& tx, word_t* out);

  /// Size observed in its own transaction.
  std::size_t size(int tid);

  std::size_t size_slow() const;
  std::size_t capacity() const { return capacity_; }
  std::vector<LiveBlock> collect_live_blocks() const;

 private:
  TmQueue(TransactionalMemory& tm, int root_slot, bool attach, std::size_t capacity);

  // Header layout: [head][tail][capacity]; buffer follows separately.
  static constexpr std::size_t kHead = 0;
  static constexpr std::size_t kTail = 1;
  static constexpr std::size_t kCap = 2;
  static constexpr std::size_t kHeaderWords = 3;

  TransactionalMemory& tm_;
  int root_slot_;
  gaddr_t header_;
  gaddr_t buffer_;
  std::size_t capacity_;
};

}  // namespace nvhalt
