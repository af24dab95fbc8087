#include "structures/tm_skiplist.hpp"

namespace nvhalt {

TmSkipList::TmSkipList(TransactionalMemory& tm, int root_slot, std::uint64_t seed, bool attach)
    : tm_(tm), root_slot_(root_slot) {
  rngs_.resize(kMaxThreads);
  for (int t = 0; t < kMaxThreads; ++t)
    rngs_[static_cast<std::size_t>(t)].rng.reseed(seed + static_cast<std::uint64_t>(t) * 77);
  if (attach) {
    head_ = tm_.pool().load_root(root_slot_);
    if (head_ == kNullAddr) throw TmLogicError("no skiplist at this root slot");
  } else {
    head_ = tm_.allocator().raw_alloc(0, node_words(kMaxLevel));
    tm_.pool().store_root_persist(0, root_slot_, head_);
    tm_.run(0, [&](Tx& tx) {
      tx.write(head_ + kKey, 0);
      tx.write(head_ + kVal, 0);
      tx.write(head_ + kHeight, kMaxLevel);
      for (std::size_t l = 0; l < kMaxLevel; ++l) tx.write(head_ + kNext + l, kNullAddr);
    });
  }
}

TmSkipList::TmSkipList(TransactionalMemory& tm, int root_slot, std::uint64_t seed)
    : TmSkipList(tm, root_slot, seed, /*attach=*/false) {}

TmSkipList TmSkipList::attach(TransactionalMemory& tm, int root_slot, std::uint64_t seed) {
  return TmSkipList(tm, root_slot, seed, /*attach=*/true);
}

std::size_t TmSkipList::random_height(int tid) {
  std::size_t h = 1;
  // The height draw is outside transactional state on purpose: retried
  // attempts may draw different heights, which is harmless (the draw only
  // happens when the insert will add a node).
  while (h < kMaxLevel && (rngs_[static_cast<std::size_t>(tid)].rng.next() & 1) != 0) ++h;
  return h;
}

bool TmSkipList::contains_in(Tx& tx, word_t key, word_t* out) {
  gaddr_t pred = head_;
  for (std::size_t l = kMaxLevel; l-- > 0;) {
    for (;;) {
      const gaddr_t next = tx.read(pred + kNext + l);
      if (next == kNullAddr || tx.read(next + kKey) >= key) break;
      pred = next;
    }
  }
  const gaddr_t cand = tx.read(pred + kNext + 0);
  if (cand != kNullAddr && tx.read(cand + kKey) == key) {
    if (out != nullptr) *out = tx.read(cand + kVal);
    return true;
  }
  return false;
}

bool TmSkipList::insert_in(Tx& tx, int tid, word_t key, word_t val) {
  if (key == 0) throw TmLogicError("key 0 is reserved for the skiplist sentinel");
  gaddr_t preds[kMaxLevel];
  gaddr_t pred = head_;
  for (std::size_t l = kMaxLevel; l-- > 0;) {
    for (;;) {
      const gaddr_t next = tx.read(pred + kNext + l);
      if (next == kNullAddr || tx.read(next + kKey) >= key) break;
      pred = next;
    }
    preds[l] = pred;
  }
  const gaddr_t cand = tx.read(preds[0] + kNext + 0);
  if (cand != kNullAddr && tx.read(cand + kKey) == key) return false;

  const std::size_t height = random_height(tid);
  const gaddr_t node = tx.alloc(node_words(height));
  tx.write(node + kKey, key);
  tx.write(node + kVal, val);
  tx.write(node + kHeight, height);
  for (std::size_t l = 0; l < height; ++l) {
    tx.write(node + kNext + l, tx.read(preds[l] + kNext + l));
    tx.write(preds[l] + kNext + l, node);
  }
  return true;
}

bool TmSkipList::remove_in(Tx& tx, word_t key) {
  gaddr_t preds[kMaxLevel];
  gaddr_t pred = head_;
  for (std::size_t l = kMaxLevel; l-- > 0;) {
    for (;;) {
      const gaddr_t next = tx.read(pred + kNext + l);
      if (next == kNullAddr || tx.read(next + kKey) >= key) break;
      pred = next;
    }
    preds[l] = pred;
  }
  const gaddr_t victim = tx.read(preds[0] + kNext + 0);
  if (victim == kNullAddr || tx.read(victim + kKey) != key) return false;

  const std::size_t height = tx.read(victim + kHeight);
  for (std::size_t l = 0; l < height; ++l) {
    // preds[l] precedes the victim at every level the victim occupies.
    if (tx.read(preds[l] + kNext + l) == victim)
      tx.write(preds[l] + kNext + l, tx.read(victim + kNext + l));
  }
  tx.free(victim, node_words(height));
  return true;
}

bool TmSkipList::insert(int tid, word_t key, word_t val) {
  bool r = false;
  tm_.run(tid, [&](Tx& tx) { r = insert_in(tx, tid, key, val); });
  return r;
}

bool TmSkipList::remove(int tid, word_t key) {
  bool r = false;
  tm_.run(tid, [&](Tx& tx) { r = remove_in(tx, key); });
  return r;
}

bool TmSkipList::contains(int tid, word_t key, word_t* out) {
  bool r = false;
  tm_.run(tid, TxMode::kReadOnly, [&](Tx& tx) { r = contains_in(tx, key, out); });
  return r;
}

std::size_t TmSkipList::size_slow() const {
  const PmemPool& pool = tm_.pool();
  std::size_t n = 0;
  for (gaddr_t cur = pool.load(head_ + kNext); cur != kNullAddr; cur = pool.load(cur + kNext))
    ++n;
  return n;
}

bool TmSkipList::validate_slow(std::string* why) const {
  const PmemPool& pool = tm_.pool();
  auto fail = [&](const std::string& msg) {
    if (why != nullptr) *why = msg;
    return false;
  };
  // Level 0: strictly sorted.
  word_t prev = 0;
  for (gaddr_t cur = pool.load(head_ + kNext); cur != kNullAddr;
       cur = pool.load(cur + kNext)) {
    const word_t k = pool.load(cur + kKey);
    if (k <= prev) return fail("level-0 keys unsorted at " + std::to_string(cur));
    const std::size_t h = pool.load(cur + kHeight);
    if (h == 0 || h > kMaxLevel) return fail("bad height at " + std::to_string(cur));
    prev = k;
  }
  // Every higher level must be a (sorted) subsequence of level 0.
  for (std::size_t l = 1; l < kMaxLevel; ++l) {
    gaddr_t lower = pool.load(head_ + kNext + 0);
    for (gaddr_t cur = pool.load(head_ + kNext + l); cur != kNullAddr;
         cur = pool.load(cur + kNext + l)) {
      while (lower != kNullAddr && lower != cur) lower = pool.load(lower + kNext + 0);
      if (lower == kNullAddr)
        return fail("level " + std::to_string(l) + " node not on level 0: " +
                    std::to_string(cur));
      if (pool.load(cur + kHeight) <= l)
        return fail("node on level above its height: " + std::to_string(cur));
    }
  }
  return true;
}

std::vector<word_t> TmSkipList::keys_slow() const {
  const PmemPool& pool = tm_.pool();
  std::vector<word_t> out;
  for (gaddr_t cur = pool.load(head_ + kNext); cur != kNullAddr; cur = pool.load(cur + kNext))
    out.push_back(pool.load(cur + kKey));
  return out;
}

std::vector<LiveBlock> TmSkipList::collect_live_blocks() const {
  const PmemPool& pool = tm_.pool();
  std::vector<LiveBlock> live;
  live.push_back({head_, static_cast<std::uint32_t>(node_words(kMaxLevel))});
  for (gaddr_t cur = pool.load(head_ + kNext); cur != kNullAddr; cur = pool.load(cur + kNext)) {
    const std::size_t h = pool.load(cur + kHeight);
    live.push_back({cur, static_cast<std::uint32_t>(node_words(h))});
  }
  return live;
}

}  // namespace nvhalt
