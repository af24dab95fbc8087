// NV-HALT read-only fast path (docs/PROTOCOLS.md "Read-only fast path",
// DESIGN.md Sec. 11): two engines for transactions the caller hints
// TxMode::kReadOnly.
//
// Software engine (NvHaltRoSwTx, TL2-style snapshot reads): samples the
// global commit sequence at begin and performs *raw* acquire loads of pool
// words and lock words — no SimHtm bookkeeping, no read-set entries beyond
// one record per unique lock line, no lock acquisitions, and a commit that
// does nothing at all (every read is validated as it happens). This is the
// same per-read cost class as Trinity's plain loads, which is what lets the
// read-heavy cells compete. Soundness of the raw loads rests on the
// publication order both writer paths share: a writer's lock transition is
// (a) sequenced before its data stores and (b) every published data value
// is a release store, so a reader whose acquire load returns a new value is
// guaranteed to observe the writer's lock word as locked-or-advanced on the
// *subsequent* lock check — a stale value can never pair with a clean lock
// word. The commit-sequence check extends the snapshot across lines exactly
// as the general software path does (docs/PROTOCOLS.md).
//
// Hardware engine (NvHaltRoHwTx, invisible readers): a real hardware
// transaction whose data reads are conflict-tracked as usual but which
// never subscribes to lock lines during the body. Unique lock lines are
// recorded (O(unique lines), reusing the per-line memo trick) and checked
// in one batch immediately before xend: any held lock aborts the attempt.
// The deferred check preserves the durability invariant — a committed-but-
// not-yet-persisted writer still holds its locks, so its non-durable values
// cannot be returned — while making the reader invisible to the writer's
// lock *release*, which on the eager per-read protocol dooms every
// concurrent reader of the line for no semantic reason.
//
// Neither engine writes: a body that writes (or allocates/frees) is demoted
// to the general retry loop, which re-runs it from scratch on the ordinary
// paths. Neither engine bumps the commit sequence, acquires a lock, or
// emits a single journal record/flush/fence — asserted by tests/ro_path_test.
#include "core/nvhalt_internal.hpp"

namespace nvhalt {

namespace {

/// Snapshot attempts, then invisible-reader hardware attempts, a read-only
/// transaction makes before it demotes to the general retry loop.
constexpr int kRoSwAttempts = 4;
constexpr int kRoHwAttempts = 2;

/// One bit of the per-attempt membership filter for a lock pointer.
/// LockEntry is 16 bytes, so >> 4 strips the always-zero low bits; the
/// Fibonacci multiply spreads table neighbours across the 64 positions.
inline std::uint64_t filter_bit(const std::atomic<std::uint64_t>* lock_s) {
  const std::uint64_t h =
      (reinterpret_cast<std::uintptr_t>(lock_s) >> 4) * 0x9E3779B97F4A7C15ull;
  return std::uint64_t{1} << (h >> 58);
}

/// Hybrid unique-line lookup (ThreadCtx::kRoLinearScanMax). Most lookups
/// are first accesses, so the filter answers them in one bit test; on a
/// (possible) hit, a linear pointer scan of ro_set while it is short — the
/// whole vector is a couple of cache-hot lines, cheaper than hashing for
/// the typical footprint — and the hash index once it has taken over.
/// Templated on the context type so the helpers need no friend access.
template <class Ctx>
std::uint32_t find_line(Ctx& ctx, const std::atomic<std::uint64_t>* lock_s) {
  if (NVHALT_LIKELY((ctx.ro_filter & filter_bit(lock_s)) == 0))
    return htm::SmallIndexMap::kNotFound;
  if (NVHALT_LIKELY(!ctx.ro_indexed)) {
    for (std::uint32_t i = 0; i < ctx.ro_set.size(); ++i)
      if (ctx.ro_set[i].lock_s == lock_s) return i;
    return htm::SmallIndexMap::kNotFound;
  }
  return ctx.ro_index.find(reinterpret_cast<std::uintptr_t>(lock_s));
}

/// Appends a unique line, migrating the whole set into ro_index in one
/// sweep the first time it outgrows the linear-scan threshold.
template <class Ctx, class Ref>
void record_line(Ctx& ctx, const Ref& lk, std::uint64_t seen) {
  ctx.ro_filter |= filter_bit(lk.s);
  if (NVHALT_UNLIKELY(ctx.ro_indexed)) {
    ctx.ro_index.insert(reinterpret_cast<std::uintptr_t>(lk.s),
                        static_cast<std::uint32_t>(ctx.ro_set.size()));
  }
  ctx.ro_set.push_back({lk.s, lk.loc, seen});
  if (NVHALT_UNLIKELY(!ctx.ro_indexed && ctx.ro_set.size() > Ctx::kRoLinearScanMax)) {
    ctx.ro_index.clear();
    for (std::uint32_t i = 0; i < ctx.ro_set.size(); ++i)
      ctx.ro_index.insert(reinterpret_cast<std::uintptr_t>(ctx.ro_set[i].lock_s), i);
    ctx.ro_indexed = true;
  }
}

}  // namespace

/// Tx handle for one read-only software (snapshot) attempt.
class NvHaltRoSwTx final : public Tx {
 public:
  NvHaltRoSwTx(NvHaltTm& tm, NvHaltTm::ThreadCtx& ctx, int tid)
      : tm_(tm), ctx_(ctx), tid_(tid) {}

  word_t read(gaddr_t a) override {
    telemetry::trace2(telemetry::EventKind::kRead, tid_, a);
    LockRef lk = tm_.locks_.ref(a);

    // Memo hit: this attempt already established the line's pre-image
    // (seen_s). A post-value lock check against it suffices — if the value
    // is new, publication order forces the lock load to observe the
    // writer's transition, which cannot equal the pre-image. No snapshot
    // extension either: an unchanged lock word means the value returned is
    // the one the line held at the last full validation, so the read adds
    // no information the snapshot does not already cover. Only a *new*
    // line (below) can extend the read set and needs check_seq().
    if (NVHALT_LIKELY(lk.s == ctx_.ro_memo_lock)) {
      const word_t val = tm_.pool_.word_ptr(a)->load(std::memory_order_acquire);
      if (lk.s->load(std::memory_order_acquire) != ctx_.ro_memo_seen)
        throw TxConflictAbort{};
      return val;
    }

    const std::uint32_t found = find_line(ctx_, lk.s);
    if (found != htm::SmallIndexMap::kNotFound) {
      // Known line, different memo: same post-value check, refresh memo.
      const std::uint64_t seen = ctx_.ro_set[found].seen_s;
      const word_t val = tm_.pool_.word_ptr(a)->load(std::memory_order_acquire);
      if (lk.s->load(std::memory_order_acquire) != seen) throw TxConflictAbort{};
      ctx_.ro_memo_lock = lk.s;
      ctx_.ro_memo_seen = seen;
      return val;
    }

    // First access to this lock line: no pre-image yet, so the value must
    // be sandwiched between two identical unlocked lock snapshots (a
    // single post-value load could match a writer that acquired, published
    // and released entirely between the value load and the lock load).
    const std::uint64_t l1 = lk.s->load(std::memory_order_acquire);
    if (lockword::is_locked(l1)) throw TxConflictAbort{};
    const word_t val = tm_.pool_.word_ptr(a)->load(std::memory_order_acquire);
    if (lk.s->load(std::memory_order_acquire) != l1) throw TxConflictAbort{};

    record_line(ctx_, lk, l1);
    ctx_.ro_memo_lock = lk.s;
    ctx_.ro_memo_seen = l1;
    check_seq();
    return val;
  }

  void write(gaddr_t, word_t) override { throw TxRoDemote{}; }
  gaddr_t alloc(std::size_t) override { throw TxRoDemote{}; }
  void free(gaddr_t, std::size_t) override { throw TxRoDemote{}; }
  bool on_hw_path() const override { return false; }

 private:
  /// TL2 snapshot extension: while the global commit sequence is unchanged
  /// no writer has published since the last validation, so the whole
  /// snapshot (every recorded line) is still consistent. When it moved,
  /// revalidate every line's pre-image and extend the snapshot to the
  /// sequence value read *before* validating.
  void check_seq() {
    const std::uint64_t seq = tm_.commit_seq_.value.load(std::memory_order_acquire);
    if (NVHALT_LIKELY(seq == ctx_.ro_seq)) return;
    for (const auto& e : ctx_.ro_set)
      if (e.lock_s->load(std::memory_order_acquire) != e.seen_s) throw TxConflictAbort{};
    ctx_.ro_seq = seq;
    telemetry::trace1(telemetry::EventKind::kSwExtend, tid_, seq);
  }

  NvHaltTm& tm_;
  NvHaltTm::ThreadCtx& ctx_;
  int tid_;
};

/// Tx handle for one read-only (invisible-reader) hardware attempt.
class NvHaltRoHwTx final : public Tx {
 public:
  NvHaltRoHwTx(NvHaltTm& tm, NvHaltTm::ThreadCtx& ctx, int tid)
      : tm_(tm), ctx_(ctx), tid_(tid) {}

  word_t read(gaddr_t a) override {
    telemetry::trace2(telemetry::EventKind::kRead, tid_, a);
    LockRef lk = tm_.locks_.ref(a);
    // Record the lock line for the pre-commit batch check without loading
    // it (loading would subscribe the line and make this reader visible —
    // any writer's release would doom us). One entry per unique line.
    if (lk.s != ctx_.ro_memo_lock) {
      if (find_line(ctx_, lk.s) == htm::SmallIndexMap::kNotFound)
        record_line(ctx_, lk, 0);
      ctx_.ro_memo_lock = lk.s;
    }
    return tm_.htm_.load(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a));
  }

  void write(gaddr_t, word_t) override { tm_.htm_.xabort(tid_, kRoDemoteAbortCode); }
  gaddr_t alloc(std::size_t) override { tm_.htm_.xabort(tid_, kRoDemoteAbortCode); }
  void free(gaddr_t, std::size_t) override { tm_.htm_.xabort(tid_, kRoDemoteAbortCode); }
  bool on_hw_path() const override { return true; }

 private:
  NvHaltTm& tm_;
  NvHaltTm::ThreadCtx& ctx_;
  int tid_;
};

NvHaltTm::RoAttemptOutcome NvHaltTm::attempt_ro_sw(int tid, TxBody body) {
  // The snapshot engine reads lock-free: the epoch reservation is the
  // only thing standing between this reader and a concurrent free+recycle
  // of a node it is about to read (alloc/ebr.hpp).
  alloc_.epochs().quiesce(tid);
  ThreadCtx& ctx = ctx_[tid];
  ctx.ro_set.clear();
  ctx.ro_filter = 0;
  ctx.ro_indexed = false;
  ctx.ro_memo_lock = nullptr;
  // Initial snapshot: the empty read set is trivially valid here.
  ctx.ro_seq = commit_seq_.value.load(std::memory_order_acquire);

  NvHaltRoSwTx tx(*this, ctx, tid);
  try {
    body(tx);
  } catch (const TxConflictAbort&) {
    ctx.record_ro_abort(tid, telemetry::RoAbortCause::kRoValidation);
    return RoAttemptOutcome::kAborted;
  } catch (const TxRoDemote&) {
    ctx.record_ro_abort(tid, telemetry::RoAbortCause::kRoDemotion);
    return RoAttemptOutcome::kDemoted;
  } catch (const TxUserAbort&) {
    ctx.stats.user_aborts++;
    return RoAttemptOutcome::kUserAborted;
  }
  // Commit is a no-op: every read was validated against the snapshot as it
  // happened, nothing was locked, nothing needs persisting. No allocator
  // hooks either — alloc/free demote before recording anything.
  ctx.stats.commits++;
  ctx.stats.ro_commits++;
  ctx.stats.read_only_commits++;
  telemetry::trace1(telemetry::EventKind::kRoCommit, tid, ctx.ro_set.size());
  return RoAttemptOutcome::kCommitted;
}

NvHaltTm::RoAttemptOutcome NvHaltTm::attempt_ro_hw(int tid, TxBody body) {
  // Invisible readers subscribe nothing until the pre-commit batch check:
  // the epoch reservation keeps freed nodes from being recycled
  // mid-snapshot.
  alloc_.epochs().quiesce(tid);
  ThreadCtx& ctx = ctx_[tid];
  ctx.ro_set.clear();
  ctx.ro_filter = 0;
  ctx.ro_indexed = false;
  ctx.ro_memo_lock = nullptr;

  htm_.begin(tid);
  NvHaltRoHwTx tx(*this, ctx, tid);
  try {
    body(tx);
    // Deferred lock validation: each recorded line is loaded (subscribing
    // it from here to xend) and must be unlocked. A held lock means a
    // writer between xend and durability — its values must not escape this
    // transaction. An already-released lock means the writer's data is
    // durable, and eager conflict detection has vouched for the snapshot.
    for (const auto& e : ctx.ro_set) {
      if (lockword::is_locked(htm_.load(tid, e.lock_loc, e.lock_s)))
        htm_.xabort(tid, kHwLockedAbortCode);
    }
    htm_.commit(tid);  // xend
  } catch (const htm::HtmAbort& a) {
    htm_.cancel(tid);
    if (a.code == kRoDemoteAbortCode) {
      ctx.record_ro_abort(tid, telemetry::RoAbortCause::kRoDemotion);
      return RoAttemptOutcome::kDemoted;
    }
    ctx.record_ro_abort(tid, telemetry::RoAbortCause::kRoValidation);
    return RoAttemptOutcome::kAborted;
  } catch (const TxUserAbort&) {
    htm_.cancel(tid);
    ctx.stats.user_aborts++;
    return RoAttemptOutcome::kUserAborted;
  } catch (...) {
    htm_.cancel(tid);
    throw;
  }
  ctx.stats.commits++;
  ctx.stats.ro_commits++;
  ctx.stats.read_only_commits++;
  telemetry::trace1(telemetry::EventKind::kRoCommit, tid, ctx.ro_set.size());
  return RoAttemptOutcome::kCommitted;
}

NvHaltTm::RoAttemptOutcome NvHaltTm::run_ro(int tid, TxBody body) {
  ThreadCtx& ctx = ctx_[tid];

  // Snapshot attempts first: they are the cheaper engine (no HTM machinery
  // at all) and in the common low-write-rate regime they commit on the
  // first try. The hardware engine mops up footprints whose lines churn
  // just enough to keep defeating the snapshot check.
  int attempt = 0;
  for (int i = 0; i < kRoSwAttempts; ++i, ++attempt) {
    telemetry::trace1(telemetry::EventKind::kRoAttempt, tid,
                      static_cast<std::uint64_t>(attempt));
    const RoAttemptOutcome r = attempt_ro_sw(tid, body);
    if (r != RoAttemptOutcome::kAborted) return r;
    runtime::backoff(ctx.rng, i + 1);
  }
  for (int i = 0; i < kRoHwAttempts; ++i, ++attempt) {
    telemetry::trace1(telemetry::EventKind::kRoAttempt, tid,
                      static_cast<std::uint64_t>(attempt));
    const RoAttemptOutcome r = attempt_ro_hw(tid, body);
    if (r != RoAttemptOutcome::kAborted) return r;
    runtime::backoff(ctx.rng, i + 1);
  }
  return RoAttemptOutcome::kDemoted;
}

NvHaltTm::RoAttemptOutcome NvHaltTm::attempt_ro_sw_once(int tid, TxBody body) {
  registry().ensure_registered(tid);
  ensure_pver(pool_, tid, ctx_[tid]);
  return attempt_ro_sw(tid, body);
}

NvHaltTm::RoAttemptOutcome NvHaltTm::attempt_ro_hw_once(int tid, TxBody body) {
  registry().ensure_registered(tid);
  ensure_pver(pool_, tid, ctx_[tid]);
  return attempt_ro_hw(tid, body);
}

}  // namespace nvhalt
