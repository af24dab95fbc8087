#include "structures/tm_queue.hpp"

namespace nvhalt {

TmQueue::TmQueue(TransactionalMemory& tm, int root_slot, bool attach, std::size_t capacity)
    : tm_(tm), root_slot_(root_slot) {
  if (attach) {
    header_ = tm_.pool().load_root(root_slot_);
    buffer_ = tm_.pool().load_root(root_slot_ + 1);
    if (header_ == kNullAddr || buffer_ == kNullAddr)
      throw TmLogicError("no queue at this root slot");
    capacity_ = tm_.pool().load(header_ + kCap);
  } else {
    if (capacity == 0 || (capacity & (capacity - 1)) != 0)
      throw TmLogicError("queue capacity must be a power of two");
    capacity_ = capacity;
    header_ = tm_.allocator().raw_alloc(0, kHeaderWords);
    buffer_ = capacity <= 128 ? tm_.allocator().raw_alloc(0, capacity)
                              : tm_.allocator().raw_alloc_large(capacity);
    tm_.pool().store_root_persist(0, root_slot_, header_);
    tm_.pool().store_root_persist(0, root_slot_ + 1, buffer_);
    // Install the header durably so attach() after a crash sees a
    // consistent (empty) queue.
    tm_.run(0, [&](Tx& tx) {
      tx.write(header_ + kHead, 0);
      tx.write(header_ + kTail, 0);
      tx.write(header_ + kCap, capacity_);
    });
  }
}

TmQueue::TmQueue(TransactionalMemory& tm, std::size_t capacity, int root_slot)
    : TmQueue(tm, root_slot, /*attach=*/false, capacity) {}

TmQueue TmQueue::attach(TransactionalMemory& tm, int root_slot) {
  return TmQueue(tm, root_slot, /*attach=*/true, 0);
}

bool TmQueue::enqueue_in(Tx& tx, word_t v) {
  const word_t head = tx.read(header_ + kHead);
  const word_t tail = tx.read(header_ + kTail);
  if (tail - head == capacity_) return false;  // full
  tx.write(buffer_ + (tail & (capacity_ - 1)), v);
  tx.write(header_ + kTail, tail + 1);
  return true;
}

bool TmQueue::dequeue_in(Tx& tx, word_t* out) {
  const word_t head = tx.read(header_ + kHead);
  const word_t tail = tx.read(header_ + kTail);
  if (head == tail) return false;  // empty
  if (out != nullptr) *out = tx.read(buffer_ + (head & (capacity_ - 1)));
  tx.write(header_ + kHead, head + 1);
  return true;
}

bool TmQueue::enqueue(int tid, word_t v) {
  bool r = false;
  tm_.run(tid, [&](Tx& tx) { r = enqueue_in(tx, v); });
  return r;
}

bool TmQueue::dequeue(int tid, word_t* out) {
  bool r = false;
  tm_.run(tid, [&](Tx& tx) { r = dequeue_in(tx, out); });
  return r;
}

std::size_t TmQueue::size(int tid) {
  std::size_t n = 0;
  tm_.run(tid, TxMode::kReadOnly, [&](Tx& tx) {
    n = static_cast<std::size_t>(tx.read(header_ + kTail) - tx.read(header_ + kHead));
  });
  return n;
}

std::size_t TmQueue::size_slow() const {
  const PmemPool& pool = tm_.pool();
  return static_cast<std::size_t>(pool.load(header_ + kTail) - pool.load(header_ + kHead));
}

std::vector<LiveBlock> TmQueue::collect_live_blocks() const {
  return {{header_, kHeaderWords}, {buffer_, static_cast<std::uint32_t>(capacity_)}};
}

}  // namespace nvhalt
