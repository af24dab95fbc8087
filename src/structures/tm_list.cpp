#include "structures/tm_list.hpp"

namespace nvhalt {

TmList::TmList(TransactionalMemory& tm, int root_slot, bool attach)
    : tm_(tm), root_slot_(root_slot) {
  if (attach) {
    head_ptr_ = tm_.pool().load_root(root_slot_);
    if (head_ptr_ == kNullAddr) throw TmLogicError("no list at this root slot");
  } else {
    head_ptr_ = tm_.allocator().raw_alloc(0, 1);
    tm_.pool().store_root_persist(0, root_slot_, head_ptr_);
  }
}

TmList::TmList(TransactionalMemory& tm, int root_slot) : TmList(tm, root_slot, false) {}

TmList TmList::attach(TransactionalMemory& tm, int root_slot) {
  return TmList(tm, root_slot, true);
}

bool TmList::insert_in(Tx& tx, word_t key, word_t val) {
  gaddr_t prev = head_ptr_;  // word holding the "next" pointer to rewrite
  gaddr_t cur = tx.read(prev);
  while (cur != kNullAddr) {
    const word_t k = tx.read(cur);
    if (k == key) return false;
    if (k > key) break;
    prev = cur + 2;
    cur = tx.read(prev);
  }
  const gaddr_t node = tx.alloc(kNodeWords);
  tx.write(node + 0, key);
  tx.write(node + 1, val);
  tx.write(node + 2, cur);
  tx.write(prev, node);
  return true;
}

bool TmList::remove_in(Tx& tx, word_t key) {
  gaddr_t prev = head_ptr_;
  gaddr_t cur = tx.read(prev);
  while (cur != kNullAddr) {
    const word_t k = tx.read(cur);
    if (k == key) {
      tx.write(prev, tx.read(cur + 2));
      tx.free(cur, kNodeWords);
      return true;
    }
    if (k > key) return false;
    prev = cur + 2;
    cur = tx.read(prev);
  }
  return false;
}

bool TmList::contains_in(Tx& tx, word_t key, word_t* out) {
  for (gaddr_t cur = tx.read(head_ptr_); cur != kNullAddr; cur = tx.read(cur + 2)) {
    const word_t k = tx.read(cur);
    if (k == key) {
      if (out != nullptr) *out = tx.read(cur + 1);
      return true;
    }
    if (k > key) return false;
  }
  return false;
}

bool TmList::insert(int tid, word_t key, word_t val) {
  bool r = false;
  tm_.run(tid, [&](Tx& tx) { r = insert_in(tx, key, val); });
  return r;
}

bool TmList::remove(int tid, word_t key) {
  bool r = false;
  tm_.run(tid, [&](Tx& tx) { r = remove_in(tx, key); });
  return r;
}

bool TmList::contains(int tid, word_t key, word_t* out) {
  bool r = false;
  tm_.run(tid, TxMode::kReadOnly, [&](Tx& tx) { r = contains_in(tx, key, out); });
  return r;
}

word_t TmList::sum_values(int tid) {
  word_t sum = 0;
  tm_.run(tid, TxMode::kReadOnly, [&](Tx& tx) {
    sum = 0;
    for (gaddr_t cur = tx.read(head_ptr_); cur != kNullAddr; cur = tx.read(cur + 2))
      sum += tx.read(cur + 1);
  });
  return sum;
}

std::size_t TmList::size_slow() const {
  const PmemPool& pool = tm_.pool();
  std::size_t n = 0;
  for (gaddr_t cur = pool.load(head_ptr_); cur != kNullAddr; cur = pool.load(cur + 2)) ++n;
  return n;
}

std::vector<LiveBlock> TmList::collect_live_blocks() const {
  const PmemPool& pool = tm_.pool();
  std::vector<LiveBlock> live;
  live.push_back({head_ptr_, 1});
  for (gaddr_t cur = pool.load(head_ptr_); cur != kNullAddr; cur = pool.load(cur + 2))
    live.push_back({cur, kNodeWords});
  return live;
}

}  // namespace nvhalt
