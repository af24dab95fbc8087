#include "htm/sim_htm.hpp"

#include <thread>

#include "htm/htm_tls.hpp"

namespace nvhalt::htm {

namespace {

// Transaction lifecycle states, packed into the low 2 bits of the status
// word; the rest is the transaction epoch. The epoch disambiguates stale
// conflict-table registrations from a thread's earlier transactions.
enum : std::uint64_t { kIdle = 0, kActive = 1, kCommitting = 2, kAborted = 3 };

inline std::uint64_t pack_status(std::uint64_t epoch, std::uint64_t state) {
  return (epoch << 2) | state;
}
inline std::uint64_t status_state(std::uint64_t s) { return s & 3; }
inline std::uint64_t status_epoch(std::uint64_t s) { return s >> 2; }

struct Tls {
  SimHtm* htm = nullptr;
  int tid = -1;
  bool in_txn = false;
};
thread_local Tls g_tls;

}  // namespace

bool in_hw_txn() { return g_tls.in_txn; }

void abort_on_flush() {
  if (!g_tls.in_txn || g_tls.htm == nullptr)
    throw TmLogicError("abort_on_flush outside a hardware transaction");
  g_tls.htm->abort_current_flush();
}

/// Sentinel meaning "memo slot empty"; no real line is all-ones.
inline constexpr std::uint64_t kNoLine = ~std::uint64_t{0};

struct alignas(kCacheLineBytes) SimHtm::Context {
  std::atomic<std::uint64_t> status{pack_status(0, kIdle)};
  std::uint64_t epoch = 0;  // owner's private copy of the current epoch

  // Last-line/last-stripe memo (two entries: data lines, metadata lines).
  // A hit means this transaction already registered the line's stripe and
  // counted the line against capacity, so a repeated access skips the
  // stripe hash, both set probes and all conflict-table traffic. Writer
  // entries additionally record that we hold the stripe's writer tag, which
  // subsumes reader registration: nothing can publish to the line without
  // dooming us first.
  std::uint64_t memo_line[2] = {kNoLine, kNoLine};
  std::uint32_t memo_stripe[2] = {0, 0};
  bool memo_writer[2] = {false, false};

  struct WriteEnt {
    LocId loc;
    std::atomic<std::uint64_t>* target;
    std::uint64_t val;
  };
  std::vector<WriteEnt> write_entries;
  SmallIndexMap write_index;
  std::vector<std::uint32_t> read_stripes;   // reader bits we set
  std::vector<std::uint32_t> write_stripes;  // writer tags we registered
  SmallSet read_stripe_set;                  // stripes already registered
  SmallSet read_lines;
  SmallSet write_lines;
  std::vector<std::uint8_t> l1_set_count;

  Xoshiro256 rng;
  HtmStats stats;
};

SimHtm::SimHtm(const HtmConfig& cfg)
    : cfg_(cfg), spurious_enabled_(cfg.spurious_abort_prob > 0.0), table_(cfg.stripe_count) {
  ctx_ = std::make_unique<Context[]>(kMaxThreads);
  for (int t = 0; t < kMaxThreads; ++t) {
    ctx_[t].rng.reseed(cfg_.seed * 0x100000001B3ULL + static_cast<std::uint64_t>(t));
    ctx_[t].l1_set_count.assign(static_cast<std::size_t>(cfg_.l1_sets), 0);
  }
}

SimHtm::~SimHtm() = default;

bool SimHtm::thread_in_txn(int tid) const {
  return status_state(ctx_[tid].status.load(std::memory_order_acquire)) != kIdle;
}

void SimHtm::begin(int tid) {
  Context& c = ctx_[tid];
  if (g_tls.in_txn) throw TmLogicError("nested hardware transactions are not supported");
  ++c.epoch;
  c.write_entries.clear();
  c.write_index.clear();
  c.read_stripes.clear();
  c.write_stripes.clear();
  c.read_stripe_set.clear();
  c.read_lines.clear();
  c.write_lines.clear();
  c.memo_line[0] = c.memo_line[1] = kNoLine;
  c.memo_writer[0] = c.memo_writer[1] = false;
  std::fill(c.l1_set_count.begin(), c.l1_set_count.end(), std::uint8_t{0});
  c.stats.begins++;
  // Release (down from seq_cst): the store only needs to be visible to
  // threads that later observe one of our conflict-table registrations;
  // those are seq_cst RMWs sequenced after it, so any thread that reads a
  // registration acquires this store along with it.
  c.status.store(pack_status(c.epoch, kActive), std::memory_order_release);
  g_tls = Tls{this, tid, true};
}

void SimHtm::cleanup(int tid, bool committed) {
  Context& c = ctx_[tid];
  const std::uint64_t my_tag = WriterTag::tx(tid, c.epoch);
  for (const std::uint32_t s : c.write_stripes) {
    std::uint64_t expected = my_tag;
    // A non-transactional RMW may have stolen the stripe after aborting us;
    // in that case the thief releases it. acq_rel (down from seq_cst): the
    // release half publishes our committed values to any thread that
    // observes the cleared tag with an acquire load (neutralize / claim).
    table_.stripe(s).writer.compare_exchange_strong(expected, WriterTag::kNone,
                                                    std::memory_order_acq_rel);
  }
  for (const std::uint32_t s : c.read_stripes) table_.remove_reader(s, tid);
  // Release (down from seq_cst): pairs with the acquire status loads in
  // neutralize_writer_for_load / claim_stripe_nontx — a thread that sees
  // kIdle for this epoch sees every value we published before it.
  c.status.store(pack_status(c.epoch, kIdle), std::memory_order_release);
  if (committed) c.stats.commits++;
  g_tls.in_txn = false;
}

void SimHtm::do_abort(int tid, AbortCause cause, std::uint8_t code) {
  Context& c = ctx_[tid];
  c.stats.aborts[static_cast<std::size_t>(cause)]++;
  cleanup(tid, /*committed=*/false);
  throw HtmAbort{cause, code};
}

void SimHtm::abort_current_flush() {
  do_abort(g_tls.tid, AbortCause::kFlush);
}

void SimHtm::check_self(int tid) {
  // Relaxed (down from seq_cst): only our own status word is read, and the
  // one case where timeliness matters — a conflicting writer doomed us and
  // then published — is ordered by the writer's release publication store
  // plus our acquire data load: its abort-CAS on our status is sequenced
  // before its value store, so once our data load returns the published
  // value, this load is guaranteed to observe kAborted.
  Context& c = ctx_[tid];
  const std::uint64_t s = c.status.load(std::memory_order_relaxed);
  if (NVHALT_UNLIKELY(status_state(s) == kAborted)) do_abort(tid, AbortCause::kConflict);
}

void SimHtm::maybe_spurious(int tid) {
  if (ctx_[tid].rng.next_bool(cfg_.spurious_abort_prob))
    do_abort(tid, AbortCause::kSpurious);
}

void SimHtm::xabort(int tid, std::uint8_t code) { do_abort(tid, AbortCause::kExplicit, code); }

void SimHtm::cancel(int tid) {
  if (!g_tls.in_txn) return;
  Context& c = ctx_[tid];
  c.stats.aborts[static_cast<std::size_t>(AbortCause::kExplicit)]++;
  cleanup(tid, /*committed=*/false);
}

// Cold path of load(): first transactional access to `line`. Registers the
// reader bit, performs the eager conflict check, counts the line against
// read capacity and installs the memo entry.
void SimHtm::register_read_line(Context& c, int tid, std::uint64_t line, std::size_t mi) {
  const std::uint32_t s =
      line == c.memo_line[mi] ? c.memo_stripe[mi] : table_.stripe_of(line);
  if (c.read_stripe_set.insert(s)) {
    // First touch of this stripe: register the reader bit and perform the
    // eager conflict check. Later touches can skip both — any writer that
    // registers afterwards must scan the reader bits and abort us through
    // our status word, which the post-load check observes. Both the
    // fetch_or and the writer load stay seq_cst: they form the store-load
    // ("Dekker") pair with a writer's tag-CAS + reader-mask scan, and
    // weakening either side could let both conflict checks miss each other.
    table_.add_reader(s, tid);
    c.read_stripes.push_back(s);
    const std::uint64_t w = table_.stripe(s).writer.load(std::memory_order_seq_cst);
    if (w != WriterTag::kNone && w != WriterTag::tx(tid, c.epoch))
      do_abort(tid, AbortCause::kConflict);
  }
  if (c.read_lines.insert(line) && c.read_lines.size() > cfg_.max_read_lines)
    do_abort(tid, AbortCause::kCapacity);
  c.memo_line[mi] = line;
  c.memo_stripe[mi] = s;
  c.memo_writer[mi] = false;
}

// Cold path of store(): first written access to `line`. Claims the stripe's
// writer tag, aborts conflicting readers, counts the line against the L1
// write-set shape and installs a writer memo entry.
void SimHtm::register_write_line(Context& c, int tid, std::uint64_t line, std::size_t mi) {
  const std::uint32_t s =
      line == c.memo_line[mi] ? c.memo_stripe[mi] : table_.stripe_of(line);
  const std::uint64_t my_tag = WriterTag::tx(tid, c.epoch);
  // Relaxed peek (down from seq_cst): purely an optimization to skip the
  // CAS when we already own the stripe via another line hashing onto it;
  // the seq_cst CAS below is the authoritative conflict check.
  std::uint64_t w = table_.stripe(s).writer.load(std::memory_order_relaxed);
  if (w != my_tag) {
    if (w != WriterTag::kNone) do_abort(tid, AbortCause::kConflict);
    if (!table_.stripe(s).writer.compare_exchange_strong(w, my_tag, std::memory_order_seq_cst))
      do_abort(tid, AbortCause::kConflict);
    c.write_stripes.push_back(s);
    abort_readers_on_stripe(s, tid);
  }
  if (c.write_lines.insert(line)) {
    const std::size_t set =
        static_cast<std::size_t>(line) & static_cast<std::size_t>(cfg_.l1_sets - 1);
    if (++c.l1_set_count[set] > cfg_.l1_ways) do_abort(tid, AbortCause::kCapacity);
  }
  c.memo_line[mi] = line;
  c.memo_stripe[mi] = s;
  c.memo_writer[mi] = true;
}

std::uint64_t SimHtm::load(int tid, LocId loc, const std::atomic<std::uint64_t>* target) {
  Context& c = ctx_[tid];
  if (NVHALT_UNLIKELY(spurious_enabled_)) maybe_spurious(tid);

  // The write buffer is keyed by the backing word: distinct words may share
  // a LocId line (e.g. a colocated lock and its data word), but each must
  // buffer separately. Read-only transactions skip the probe entirely.
  if (c.write_entries.size() != 0) {
    const std::uint32_t found = c.write_index.find(reinterpret_cast<std::uintptr_t>(target));
    if (found != SmallIndexMap::kNotFound) return c.write_entries[found].val;
  }

  const std::uint64_t line = line_of(loc);
  const std::size_t mi = memo_index(line);
  // Memo hit: the line's stripe is already registered (as reader, or as
  // writer — holding the writer tag subsumes reader registration, since
  // nothing can publish to the line without dooming us first) and the line
  // is already counted against capacity.
  if (NVHALT_UNLIKELY(line != c.memo_line[mi])) register_read_line(c, tid, line, mi);

  // Acquire (down from seq_cst): pairs with the release publication stores
  // in commit() and nontx_store — reading a published value also makes the
  // publisher's earlier abort-CAS on our status visible to check_self.
  const std::uint64_t v = target->load(std::memory_order_acquire);
  // Single fused self-check (was one at entry + one post-access): if a
  // writer aborted us after our registration check, the value may stem
  // from its publication; never return it.
  check_self(tid);
  return v;
}

void SimHtm::store(int tid, LocId loc, std::atomic<std::uint64_t>* target, std::uint64_t val) {
  Context& c = ctx_[tid];
  if (NVHALT_UNLIKELY(spurious_enabled_)) maybe_spurious(tid);

  const std::uint32_t found = c.write_index.find(reinterpret_cast<std::uintptr_t>(target));
  if (found != SmallIndexMap::kNotFound) {
    // Buffered overwrite: no shared-memory effect, so no self-check needed;
    // a doomed transaction's buffer is discarded at its (failing) commit.
    c.write_entries[found].val = val;
    return;
  }

  const std::uint64_t line = line_of(loc);
  const std::size_t mi = memo_index(line);
  // A read-memo entry is not enough for a store: writer registration must
  // still claim the stripe tag, so only a writer memo hit skips the slow
  // path (which also upgrades the memo in place).
  if (NVHALT_UNLIKELY(line != c.memo_line[mi] || !c.memo_writer[mi]))
    register_write_line(c, tid, line, mi);

  c.write_index.insert(reinterpret_cast<std::uintptr_t>(target),
                       static_cast<std::uint32_t>(c.write_entries.size()));
  c.write_entries.push_back({loc, target, val});
  check_self(tid);
}

bool SimHtm::store_prev(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                        std::uint64_t val, std::uint64_t* prev) {
  Context& c = ctx_[tid];
  if (NVHALT_UNLIKELY(spurious_enabled_)) maybe_spurious(tid);

  const std::uint32_t found = c.write_index.find(reinterpret_cast<std::uintptr_t>(target));
  if (found != SmallIndexMap::kNotFound) {
    c.write_entries[found].val = val;
    return false;
  }

  const std::uint64_t line = line_of(loc);
  const std::size_t mi = memo_index(line);
  if (NVHALT_UNLIKELY(line != c.memo_line[mi] || !c.memo_writer[mi]))
    register_write_line(c, tid, line, mi);

  // Pre-image read under our own writer registration: nothing can publish
  // to the line without dooming us first, and check_self below rejects a
  // value that stems from a writer that doomed us after the registration.
  if (prev != nullptr) *prev = target->load(std::memory_order_acquire);

  c.write_index.insert(reinterpret_cast<std::uintptr_t>(target),
                       static_cast<std::uint32_t>(c.write_entries.size()));
  c.write_entries.push_back({loc, target, val});
  check_self(tid);
  return true;
}

void SimHtm::commit(int tid) {
  Context& c = ctx_[tid];
  std::uint64_t expected = pack_status(c.epoch, kActive);
  // The successful CAS to kCommitting is the transaction's atomic commit
  // point; after it no other thread may abort us. Stays seq_cst: it races
  // against abort-CASes from writers and non-transactional accessors, and
  // it must be ordered before the publication stores below.
  if (!c.status.compare_exchange_strong(expected, pack_status(c.epoch, kCommitting),
                                        std::memory_order_seq_cst)) {
    do_abort(tid, AbortCause::kConflict);
  }
  // Publish buffered writes while our writer registrations are still held:
  // transactional readers self-abort on our registration and
  // non-transactional readers wait for it, so publication is atomic.
  // Release (down from seq_cst): a reader that acquires any published value
  // thereby sees every abort-CAS we issued before publishing (check_self's
  // doom-propagation argument) and every earlier value in the buffer
  // (publication-order visibility for non-transactional readers).
  for (const Context::WriteEnt& e : c.write_entries)
    e.target->store(e.val, std::memory_order_release);
  cleanup(tid, /*committed=*/true);
}

void SimHtm::abort_reader(int r) {
  Context& rc = ctx_[r];
  const std::uint64_t s = rc.status.load(std::memory_order_seq_cst);
  if (status_state(s) != kActive) return;  // committing readers already serialized
  std::uint64_t expected = s;
  rc.status.compare_exchange_strong(expected, pack_status(status_epoch(s), kAborted),
                                    std::memory_order_seq_cst);
}

void SimHtm::abort_readers_on_stripe(std::uint32_t stripe_idx, int self_tid) {
  Stripe& st = table_.stripe(stripe_idx);
  for (int word = 0; word < kReaderMaskWords; ++word) {
    std::uint64_t mask = st.readers[word].load(std::memory_order_seq_cst);
    while (mask != 0) {
      const int bit = __builtin_ctzll(mask);
      mask &= mask - 1;
      const int r = word * 64 + bit;
      if (r != self_tid) abort_reader(r);
    }
  }
}

void SimHtm::neutralize_writer_for_load(std::uint32_t stripe_idx, int self_tid) {
  Stripe& st = table_.stripe(stripe_idx);
  int spins = 0;
  for (;;) {
    // Acquire (down from seq_cst): observing the tag cleared (the owner's
    // acq_rel cleanup CAS) makes the owner's published values visible to
    // the caller's subsequent acquire data load. A racing registration we
    // miss here is benign: the writer has not published yet (publication
    // needs kCommitting), so the value we go on to read is the committed
    // pre-state and we linearize before that writer.
    const std::uint64_t w = st.writer.load(std::memory_order_acquire);
    if (w == WriterTag::kNone) return;
    if (WriterTag::is_nontx(w)) {
      // Another thread's brief non-transactional RMW; wait it out.
      if (++spins > 64) std::this_thread::yield(); else cpu_relax();
      continue;
    }
    const int owner = WriterTag::tid(w);
    if (owner == self_tid) return;  // our own stale tag cannot publish
    Context& oc = ctx_[owner];
    // Acquire: pairs with the owner's release kIdle store in cleanup, so
    // seeing a finished epoch implies its publication is fully visible.
    const std::uint64_t s = oc.status.load(std::memory_order_acquire);
    if (status_epoch(s) != WriterTag::epoch(w)) continue;  // stale; re-read stripe
    switch (status_state(s)) {
      case kActive: {
        // RTM: a non-transactional access to a line in a transaction's
        // write set aborts the transaction.
        std::uint64_t expected = s;
        oc.status.compare_exchange_strong(
            expected, pack_status(status_epoch(s), kAborted), std::memory_order_seq_cst);
        continue;
      }
      case kCommitting:
        // Publication in flight; it is atomic, so wait for it to finish.
        if (++spins > 64) std::this_thread::yield(); else cpu_relax();
        continue;
      case kAborted:
        return;  // will never publish; safe to access
      default:
        continue;  // kIdle with matching epoch: cleanup raced us; re-read
    }
  }
}

std::uint64_t SimHtm::claim_stripe_nontx(std::uint32_t stripe_idx, int tid) {
  Stripe& st = table_.stripe(stripe_idx);
  const std::uint64_t my_tag = WriterTag::nontx(tid);
  int spins = 0;
  for (;;) {
    std::uint64_t w = st.writer.load(std::memory_order_seq_cst);
    if (w == WriterTag::kNone) {
      if (st.writer.compare_exchange_strong(w, my_tag, std::memory_order_seq_cst)) return my_tag;
      continue;
    }
    if (WriterTag::is_nontx(w)) {
      if (++spins > 64) std::this_thread::yield(); else cpu_relax();
      continue;
    }
    const int owner = WriterTag::tid(w);
    Context& oc = ctx_[owner];
    const std::uint64_t s = oc.status.load(std::memory_order_seq_cst);
    if (status_epoch(s) != WriterTag::epoch(w)) {
      // Stale transactional tag: the owner finished long ago; steal it.
      if (st.writer.compare_exchange_strong(w, my_tag, std::memory_order_seq_cst)) return my_tag;
      continue;
    }
    switch (status_state(s)) {
      case kActive: {
        std::uint64_t expected = s;
        oc.status.compare_exchange_strong(
            expected, pack_status(status_epoch(s), kAborted), std::memory_order_seq_cst);
        continue;  // owner now aborted; next round steals the tag
      }
      case kCommitting:
        if (++spins > 64) std::this_thread::yield(); else cpu_relax();
        continue;
      case kAborted: {
        // Owner will not publish; take over its registration (its cleanup
        // CAS will simply fail and move on).
        if (st.writer.compare_exchange_strong(w, my_tag, std::memory_order_seq_cst)) return my_tag;
        continue;
      }
      default:
        continue;
    }
  }
}

void SimHtm::release_stripe_nontx(std::uint32_t stripe_idx, std::uint64_t tag) {
  std::uint64_t expected = tag;
  // Acq_rel (down from seq_cst): release publishes the data operation that
  // happened under the claim to the next claimer's acquire/seq_cst loads;
  // nothing after the release needs ordering against it.
  table_.stripe(stripe_idx).writer.compare_exchange_strong(expected, WriterTag::kNone,
                                                           std::memory_order_acq_rel);
}

std::uint64_t SimHtm::nontx_load(int tid, LocId loc, const std::atomic<std::uint64_t>* target) {
  if (g_tls.in_txn) throw TmLogicError("non-transactional access inside a hardware transaction");
  const std::uint32_t s = table_.stripe_of(line_of(loc));
  neutralize_writer_for_load(s, tid);
  // Acquire (down from seq_cst): pairs with the release publication stores
  // in commit() and the release claim-drop in release_stripe_nontx, making
  // everything the writer did visible once we read its value.
  return target->load(std::memory_order_acquire);
}

void SimHtm::nontx_store(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                         std::uint64_t val) {
  if (g_tls.in_txn) throw TmLogicError("non-transactional access inside a hardware transaction");
  const std::uint32_t s = table_.stripe_of(line_of(loc));
  const std::uint64_t tag = claim_stripe_nontx(s, tid);
  abort_readers_on_stripe(s, tid);
  // Release (down from seq_cst): observers load with acquire; mutual
  // exclusion against other writers is carried by the stripe claim, not by
  // this store's order.
  target->store(val, std::memory_order_release);
  release_stripe_nontx(s, tag);
}

void SimHtm::nontx_store_cached(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                                std::uint64_t val, NontxClaim& claim) {
  if (g_tls.in_txn) throw TmLogicError("non-transactional access inside a hardware transaction");
  const std::uint32_t s = table_.stripe_of(line_of(loc));
  if (!claim.held || claim.stripe != s) {
    if (claim.held) release_stripe_nontx(claim.stripe, claim.tag);
    claim.held = false;  // not held while claim_stripe_nontx spins
    claim.tag = claim_stripe_nontx(s, tid);
    claim.stripe = s;
    claim.htm = this;
    claim.held = true;
    abort_readers_on_stripe(s, tid);
  }
  // Release (same as nontx_store): observers load with acquire; exclusion
  // against other writers is carried by the held stripe claim.
  target->store(val, std::memory_order_release);
}

void SimHtm::nontx_claim_release(NontxClaim& claim) {
  if (!claim.held) return;
  release_stripe_nontx(claim.stripe, claim.tag);
  claim.held = false;
}

bool SimHtm::nontx_cas(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                       std::uint64_t& expected, std::uint64_t desired) {
  if (g_tls.in_txn) throw TmLogicError("non-transactional access inside a hardware transaction");
  const std::uint32_t s = table_.stripe_of(line_of(loc));
  const std::uint64_t tag = claim_stripe_nontx(s, tid);
  abort_readers_on_stripe(s, tid);
  // Stays seq_cst: this CAS *is* the lock/clock operation callers build
  // their own protocols on (versioned locks, SPHT global lock); they are
  // entitled to full sequential consistency from it.
  const bool ok = target->compare_exchange_strong(expected, desired, std::memory_order_seq_cst);
  release_stripe_nontx(s, tag);
  return ok;
}

std::uint64_t SimHtm::nontx_fetch_add(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                                      std::uint64_t delta) {
  if (g_tls.in_txn) throw TmLogicError("non-transactional access inside a hardware transaction");
  const std::uint32_t s = table_.stripe_of(line_of(loc));
  const std::uint64_t tag = claim_stripe_nontx(s, tid);
  abort_readers_on_stripe(s, tid);
  // Stays seq_cst: the global-clock bump other threads order against.
  const std::uint64_t prev = target->fetch_add(delta, std::memory_order_seq_cst);
  release_stripe_nontx(s, tag);
  return prev;
}

HtmStats SimHtm::aggregate_stats() const {
  HtmStats agg;
  for (int t = 0; t < kMaxThreads; ++t) agg.add(ctx_[t].stats);
  return agg;
}

void SimHtm::reset_stats() {
  for (int t = 0; t < kMaxThreads; ++t) ctx_[t].stats.reset();
}

void SimHtm::reset() {
  // Force-clear: after a simulated crash, threads died mid-transaction and
  // their statuses/registrations are stale. Only valid quiescently.
  for (int t = 0; t < kMaxThreads; ++t) {
    Context& c = ctx_[t];
    c.status.store(pack_status(status_epoch(c.status.load(std::memory_order_relaxed)), kIdle),
                   std::memory_order_relaxed);
  }
  table_.reset();
}

}  // namespace nvhalt::htm
