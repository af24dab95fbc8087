// NV-HALT software fallback path (paper Fig. 1, plus the NV-HALT-SP
// changes of Fig. 7): a TL2-style commit-time-locking STM with deferred
// (buffered) writes and Trinity undo-record persistence performed while
// the write-set locks are held. Fig. 1 revalidates the full read set on
// every read; by default we instead revalidate only when the global
// commit sequence has moved since the transaction's
// last validated snapshot — O(1) per read in the common case, same
// opacity guarantee (docs/PROTOCOLS.md, "Snapshot-extension read
// validation"; validate_every_read restores the literal protocol).
#include <algorithm>

#include "core/nvhalt_internal.hpp"

namespace nvhalt {

/// Tx handle for one software-path attempt.
class NvHaltSwTx final : public Tx {
 public:
  NvHaltSwTx(NvHaltTm& tm, NvHaltTm::ThreadCtx& ctx, int tid)
      : tm_(tm), ctx_(ctx), tid_(tid) {}

  word_t read(gaddr_t a) override {
    telemetry::trace2(telemetry::EventKind::kRead, tid_, a);
    // Read-own-writes: the write set is buffered until commit.
    const std::uint32_t found = ctx_.wr_index.find(a);
    if (found != htm::SmallIndexMap::kNotFound) return ctx_.wrset[found].val;

    LockRef lk = tm_.locks_.ref(a);
    // TL2-style stable read: value sandwiched between two identical,
    // unlocked lock snapshots. A locked or changed lock means a concurrent
    // conflicting writer — abort (weak progressiveness permits this).
    const std::uint64_t l1 = tm_.htm_.nontx_load(tid_, lk.loc, lk.s);
    if (lockword::is_locked(l1)) {
      tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
      throw TxConflictAbort{};
    }
    const word_t val = tm_.htm_.nontx_load(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a));
    std::uint64_t h = 0;
    if (tm_.strong_)
      h = tm_.htm_.nontx_load(tid_, lk.loc, lk.h);
    const std::uint64_t l2 = tm_.htm_.nontx_load(tid_, lk.loc, lk.s);
    if (l1 != l2) {
      tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
      throw TxConflictAbort{};
    }

    ctx_.rdset.push_back({a, lk.s, lk.h, lk.loc, l1, h});
    if (NVHALT_UNLIKELY(tm_.cfg_.validate_every_read)) {
      // Fig. 1: "The read set is revalidated on each read" — this is what
      // keeps every snapshot a doomed transaction sees consistent (opacity).
      if (!validate_rdset()) throw TxConflictAbort{};
      return val;
    }
    // Common case: every writer bumps commit_seq before releasing its
    // locks, and values written under a held lock are unreadable (the
    // sandwich above aborts), so an unchanged commit_seq proves no writer
    // published between the last validated snapshot and now — the snapshot
    // extends to this read for free. Only when the sequence moved do we pay
    // the full revalidation, extending the snapshot to the pre-validation
    // sequence value on success.
    // Plain acquire load: no hardware transaction tracks the sequence
    // (htm_types.hpp), and acquire pairs with the writer's seq_cst bump.
    const std::uint64_t seq = tm_.commit_seq_.value.load(std::memory_order_acquire);
    if (NVHALT_UNLIKELY(seq != ctx_.validated_seq)) {
      if (!validate_rdset()) throw TxConflictAbort{};
      ctx_.validated_seq = seq;
      telemetry::trace1(telemetry::EventKind::kSwExtend, tid_, seq);
    }
    return val;
  }

  void write(gaddr_t a, word_t v) override {
    telemetry::trace2(telemetry::EventKind::kWrite, tid_, a);
    const std::uint32_t found = ctx_.wr_index.find(a);
    if (found != htm::SmallIndexMap::kNotFound) {
      ctx_.wrset[found].val = v;
      return;
    }
    LockRef lk = tm_.locks_.ref(a);
    // Encounter-time check: the lock must be free now; its version is the
    // CAS expectation at commit (Fig. 1 / Sec. 3.2).
    const std::uint64_t l = tm_.htm_.nontx_load(tid_, lk.loc, lk.s);
    if (lockword::is_locked(l)) {
      tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
      throw TxConflictAbort{};
    }
    ctx_.wr_index.insert(a, static_cast<std::uint32_t>(ctx_.wrset.size()));
    ctx_.wrset.push_back({a, v, lk.s, lk.h, lk.loc, l});
  }

  gaddr_t alloc(std::size_t nwords) override { return tm_.alloc_.tx_alloc(tid_, nwords); }
  void free(gaddr_t a, std::size_t nwords) override { tm_.alloc_.tx_free(tid_, a, nwords); }
  bool on_hw_path() const override { return false; }

  /// Read-set validation: every entry must still carry its encounter-time
  /// lock word, or be locked by this thread with exactly one intervening
  /// acquire (our own commit-time acquisition).
  bool validate_rdset() const {
    telemetry::trace1(telemetry::EventKind::kSwValidate, tid_, ctx_.rdset.size());
    for (const auto& e : ctx_.rdset) {
      const std::uint64_t cur = tm_.htm_.nontx_load(tid_, e.lock_loc, e.lock_s);
      if (cur == e.seen_s) continue;
      if (lockword::is_locked(cur) && lockword::owner(cur) == tid_ &&
          lockword::version(cur) == lockword::version(e.seen_s) + 1)
        continue;
      // Attribute the validation failure to the stripe whose lock moved.
      tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(e.addr));
      return false;
    }
    return true;
  }

  /// Fig. 7 foundHtxConflict: any hVer movement in the read set betrays a
  /// concurrent hardware transaction.
  bool found_htx_conflict() const {
    for (const auto& e : ctx_.rdset) {
      if (tm_.htm_.nontx_load(tid_, e.lock_loc, e.lock_h) != e.seen_h) return true;
    }
    return false;
  }

  /// Commit-time protocol. Throws TxConflictAbort on failure after
  /// releasing anything acquired.
  void commit() {
    if (ctx_.wrset.empty()) {
      if (tm_.alloc_.has_pending(tid_)) {
        // No data words written, but the transaction allocated or freed:
        // the allocator effects still need the arm → marker → apply
        // durability sequence (no locks to hold — reads were validated at
        // read time, and the effects are per-thread allocator state).
        ctx_.persist_buf.clear();
        tm_.undo_.commit(tid_, ctx_, ctx_.persist_buf, &tm_.htm_);
        return;
      }
      ctx_.stats.read_only_commits++;
      return;  // read-only: validated on every read, nothing to persist
    }

    if (tm_.strong_) {
      // Fixed-order acquisition (TL2-style) is half of strong
      // progressiveness: opposing lock orders can no longer deadlock-abort
      // each other forever. Sequential structure updates already produce
      // address-sorted write sets, so check before sorting.
      const auto by_addr = [](const auto& x, const auto& y) { return x.addr < y.addr; };
      if (!std::is_sorted(ctx_.wrset.begin(), ctx_.wrset.end(), by_addr))
        std::sort(ctx_.wrset.begin(), ctx_.wrset.end(), by_addr);
    }

    acquire_locks();

    bool validated = false;
    if (tm_.strong_) {
      // Fig. 7: a successful CAS on gClock means no software writer
      // committed since TxStart, so sLock validation can be skipped; only
      // hardware transactions (which never touch gClock) must be checked,
      // via the hVer halves of the read locks.
      std::uint64_t expected = ctx_.rv;
      // gClock is software-path-only state (htm_types.hpp): plain seq_cst
      // CAS/fetch_add keep the Fig. 7 ordering without conflict-table cost.
      if (tm_.gclock_.value.compare_exchange_strong(expected, ctx_.rv + 1,
                                                    std::memory_order_seq_cst)) {
        if (found_htx_conflict()) {
          release_acquired();
          throw TxConflictAbort{};
        }
        validated = true;
      }
    }
    if (!validated) {
      if (!validate_rdset()) {
        release_acquired();
        throw TxConflictAbort{};
      }
      if (tm_.strong_) {
        // Deviation from Fig. 7 (documented in DESIGN.md): a writer whose
        // gClock CAS failed still advances the clock after validating, so
        // that a successful CAS by another transaction genuinely implies
        // "no concurrent software writer" — otherwise the skip-validation
        // branch would be unsound.
        tm_.gclock_.value.fetch_add(1, std::memory_order_seq_cst);
      }
    }

    // Point of no return: locks held, reads valid. Persist + apply.
    ctx_.persist_buf.clear();
    for (const auto& w : ctx_.wrset)
      ctx_.persist_buf.push_back({w.addr, tm_.pool_.load(w.addr), w.val});
    tm_.undo_.commit(tid_, ctx_, ctx_.persist_buf, &tm_.htm_);

    // Publication point for the read-validation cache: the bump must
    // happen before any lock release, so a reader whose sandwich read
    // observes our released lock is guaranteed to also observe the moved
    // commit_seq and revalidate (docs/PROTOCOLS.md).
    tm_.commit_seq_.value.fetch_add(1, std::memory_order_seq_cst);

    release_acquired();
  }

 private:
  void acquire_locks() {
    ctx_.lock_dedupe.clear();
    ctx_.acquired.clear();
    for (std::uint32_t i = 0; i < ctx_.wrset.size(); ++i) {
      auto& w = ctx_.wrset[i];
      // Several addresses may share one lock (table mode): the first entry
      // acquires it; later entries must have seen the same version.
      const std::uint64_t key = reinterpret_cast<std::uintptr_t>(w.lock_s);
      const std::uint32_t holder = ctx_.lock_dedupe.find(key);
      if (holder != htm::SmallIndexMap::kNotFound) {
        if (ctx_.wrset[holder].seen_s != w.seen_s) {
          release_acquired();
          throw TxConflictAbort{};
        }
        continue;
      }
      std::uint64_t expected = w.seen_s;
      if (!tm_.htm_.nontx_cas(tid_, w.lock_loc, w.lock_s, expected,
                              lockword::acquired(w.seen_s, tid_))) {
        tm_.locks_.contention().on_cas_fail(tm_.locks_.contention_stripe(w.addr));
        release_acquired();
        throw TxConflictAbort{};
      }
      ctx_.lock_dedupe.insert(key, i);
      ctx_.acquired.push_back(i);
    }
    telemetry::trace1(telemetry::EventKind::kLockAcquire, tid_, ctx_.acquired.size());
  }

  void release_acquired() {
    for (const std::uint32_t i : ctx_.acquired) {
      const auto& w = ctx_.wrset[i];
      const std::uint64_t held = lockword::acquired(w.seen_s, tid_);
      tm_.htm_.nontx_store(tid_, w.lock_loc, w.lock_s, lockword::released(held));
    }
    ctx_.acquired.clear();
  }

  NvHaltTm& tm_;
  NvHaltTm::ThreadCtx& ctx_;
  int tid_;
};

NvHaltTm::AttemptResult NvHaltTm::attempt_sw(int tid, TxBody body) {
  // Reclamation epoch: the quiescent refresh keeps this thread's
  // persistent reservation current, so no node this transaction may read
  // can be recycled under it (alloc/ebr.hpp).
  alloc_.epochs().quiesce(tid);
  ThreadCtx& ctx = ctx_[tid];
  ctx.rdset.clear();
  ctx.wrset.clear();
  ctx.wr_index.clear();
  if (strong_)
    ctx.rv = gclock_.value.load(std::memory_order_seq_cst);  // TxStart (Fig. 7)
  // Initial validation snapshot: the empty read set is trivially valid at
  // the commit_seq value read here.
  if (!cfg_.validate_every_read)
    ctx.validated_seq = commit_seq_.value.load(std::memory_order_acquire);

  NvHaltSwTx tx(*this, ctx, tid);
  try {
    body(tx);
    tx.commit();
  } catch (const TxConflictAbort&) {
    alloc_.on_abort(tid);
    ctx.stats.sw_aborts++;
    return AttemptResult::kAborted;
  } catch (const TxUserAbort&) {
    alloc_.on_abort(tid);
    ctx.stats.user_aborts++;
    return AttemptResult::kUserAborted;
  } catch (...) {
    // Foreign exception (e.g. SimulatedPowerFailure): transaction state is
    // abandoned, volatile metadata will be reset by recovery.
    alloc_.on_abort(tid);
    throw;
  }
  alloc_.on_commit(tid);
  ctx.stats.commits++;
  ctx.stats.sw_commits++;
  return AttemptResult::kCommitted;
}

}  // namespace nvhalt
