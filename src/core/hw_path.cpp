// NV-HALT hardware fast path (paper Fig. 5): hardware-assisted locking.
//
// Reads subscribe to the address's versioned lock and xabort if it is held
// by another thread (needed both for opacity against the lock-based
// software path — Fig. 3 — and to avoid observing non-durable data).
// Writes *acquire* the lock inside the hardware transaction; the lock
// becomes visible atomically at xend and stays held afterwards, protecting
// the modified addresses while the post-transaction code persists the undo
// log, bumps the thread's persistent version number, and only then releases
// the locks (Sec. 3.4). This is what Fig. 4 shows is missing from a
// metadata-read-only fast path in the persistent setting.
#include "core/nvhalt_internal.hpp"

namespace nvhalt {

/// Tx handle for one hardware-path attempt. All accesses run inside the
/// simulated hardware transaction; aborts unwind via htm::HtmAbort.
class NvHaltHwTx final : public Tx {
 public:
  NvHaltHwTx(NvHaltTm& tm, NvHaltTm::ThreadCtx& ctx, int tid)
      : tm_(tm),
        ctx_(ctx),
        tid_(tid),
        // Config is immutable for the TM's lifetime; cache the per-access
        // policy bits as plain bools so each read/write pays one register
        // test instead of re-deriving the policy from config fields.
        check_locks_(tm.cfg_.hw_read_check_locks),
        acquire_locks_(tm.cfg_.persist_hw_txns && tm.cfg_.hw_acquire_locks),
        persisting_(tm.cfg_.persist_hw_txns),
        strong_(tm.strong_) {}

  word_t read(gaddr_t a) override {
    telemetry::trace2(telemetry::EventKind::kRead, tid_, a);
    if (check_locks_) {
      LockRef lk = tm_.locks_.ref(a);
      // Lock memo hit: this attempt already subscribed to and checked this
      // lock word; the cached value is still what a re-load would return
      // (any foreign change dooms us), and it already passed the
      // locked-by-other test, so skip both.
      if (lk.s != ctx_.hw_lock_memo) {
        const std::uint64_t w = tm_.htm_.load(tid_, lk.loc, lk.s);
        if (lockword::locked_by_other(w, tid_)) {
          // Contention cells are plain diagnostics outside the simulated
          // transaction's tracked footprint, so the increment survives the
          // xabort below.
          tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
          tm_.htm_.xabort(tid_, kHwLockedAbortCode);
        }
        ctx_.hw_lock_memo = lk.s;
        ctx_.hw_lock_memo_word = w;
      }
    }
    return tm_.htm_.load(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a));
  }

  void write(gaddr_t a, word_t v) override {
    telemetry::trace2(telemetry::EventKind::kWrite, tid_, a);
    if (acquire_locks_) {
      LockRef lk = tm_.locks_.ref(a);
      // Memo hit where the cached word shows us as owner: nothing to do.
      // (A memo hit from the read path may still show the lock free — we
      // must acquire it below; the memoized word doubles as the pre-image.)
      std::uint64_t w;
      if (lk.s == ctx_.hw_lock_memo) {
        w = ctx_.hw_lock_memo_word;
      } else {
        w = tm_.htm_.load(tid_, lk.loc, lk.s);
        ctx_.hw_lock_memo = lk.s;
        ctx_.hw_lock_memo_word = w;
      }
      if (!lockword::is_locked(w)) {
        // htmAcquireLock (Fig. 7): bump sLockVer; SP also bumps hLockVer.
        const std::uint64_t acq = lockword::acquired(w, tid_);
        tm_.htm_.store(tid_, lk.loc, lk.s, acq);
        ctx_.hw_lock_memo_word = acq;
        if (strong_) {
          const std::uint64_t hv = tm_.htm_.load(tid_, lk.loc, lk.h);
          tm_.htm_.store(tid_, lk.loc, lk.h, hv + 1);
        }
        ctx_.hw_locks.push_back({lk, acq});
      } else if (lockword::owner(w) != tid_) {
        tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
        tm_.htm_.xabort(tid_, kHwLockedAbortCode);
      }
    }
    ctx_.hw_wrote = true;
    if (persisting_) {
      // Undo log: record the pre-transaction value on first write, read
      // out of the fused store (one write-buffer probe for both).
      word_t old;
      if (tm_.htm_.store_prev(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a), v, &old))
        ctx_.hw_undo.push_back({a, old});
    } else {
      tm_.htm_.store(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a), v);
    }
  }

  gaddr_t alloc(std::size_t nwords) override { return tm_.alloc_.tx_alloc(tid_, nwords); }
  void free(gaddr_t a, std::size_t nwords) override { tm_.alloc_.tx_free(tid_, a, nwords); }
  bool on_hw_path() const override { return true; }

 private:
  NvHaltTm& tm_;
  NvHaltTm::ThreadCtx& ctx_;
  int tid_;
  const bool check_locks_;
  const bool acquire_locks_;
  const bool persisting_;
  const bool strong_;
};

NvHaltTm::AttemptResult NvHaltTm::attempt_hw(int tid, TxBody body) {
  // Reclamation epoch: the quiescent refresh keeps this thread's
  // persistent reservation current, so no node this transaction may read
  // can be recycled under it (alloc/ebr.hpp).
  alloc_.epochs().quiesce(tid);
  ThreadCtx& ctx = ctx_[tid];
  ctx.hw_undo.clear();
  ctx.hw_locks.clear();
  ctx.hw_wrote = false;
  ctx.hw_lock_memo = nullptr;  // lock words may change between attempts

  htm_.begin(tid);
  NvHaltHwTx tx(*this, ctx, tid);
  try {
    body(tx);
    htm_.commit(tid);  // xend
  } catch (const htm::HtmAbort& a) {
    htm_.cancel(tid);  // no-op if SimHtm already cleaned up; needed for
                       // HtmAbort raised outside the simulator (allocator)
    alloc_.on_abort(tid);
    ctx.record_hw_abort(tid, a.cause, a.code);
    return AttemptResult::kAborted;
  } catch (const TxUserAbort&) {
    htm_.cancel(tid);
    alloc_.on_abort(tid);
    ctx.stats.user_aborts++;
    return AttemptResult::kUserAborted;
  } catch (...) {
    htm_.cancel(tid);
    alloc_.on_abort(tid);
    throw;
  }

  // The hardware transaction committed: its writes and lock acquisitions
  // are visible. Persist the write set under those locks (flushes must
  // happen outside the transaction — they would have aborted it).
  if (!ctx.hw_locks.empty())
    telemetry::trace1(telemetry::EventKind::kLockAcquire, tid, ctx.hw_locks.size());
  if (cfg_.persist_hw_txns && (!ctx.hw_undo.empty() || alloc_.has_pending(tid))) {
    ctx.persist_buf.clear();
    for (const auto& u : ctx.hw_undo)
      ctx.persist_buf.push_back({u.addr, u.old, pool_.load(u.addr)});
    undo_.commit(tid, ctx, ctx.persist_buf, &htm_);
  }

  // This hardware transaction published lock acquisitions at xend: bump
  // the global commit sequence before releasing them so software readers'
  // validation snapshots are invalidated no later than the writes become
  // sandwich-readable (docs/PROTOCOLS.md). Plain seq_cst fetch_add: no
  // hardware transaction ever tracks the sequence (htm_types.hpp), so
  // conflict-table traffic for it would model nothing.
  if (!ctx.hw_locks.empty())
    commit_seq_.value.fetch_add(1, std::memory_order_seq_cst);

  // Release the hardware-acquired locks; data is durable now. A held lock
  // cannot have changed since xend (acquire CASes expect an unlocked
  // pre-image), so release from the recorded acquisition word.
  htm::SimHtm::NontxClaim claim;
  for (const ThreadCtx::HwLockEnt& hl : ctx.hw_locks)
    htm_.nontx_store_cached(tid, hl.lk.loc, hl.lk.s, lockword::released(hl.acq), claim);
  htm_.nontx_claim_release(claim);

  alloc_.on_commit(tid);
  ctx.stats.commits++;
  ctx.stats.hw_commits++;
  if (!ctx.hw_wrote) ctx.stats.read_only_commits++;
  return AttemptResult::kCommitted;
}

}  // namespace nvhalt
