// NV-HALT read-only fast path (docs/PROTOCOLS.md "Read-only fast path",
// DESIGN.md Sec. 11): one snapshot engine for transactions the caller
// hints TxMode::kReadOnly.
//
// NvHaltRoSwTx (TL2-style snapshot reads) samples the global commit
// sequence at begin and performs *raw* acquire loads of pool words and
// lock words — no SimHtm bookkeeping, no read-set entries beyond one
// record per unique lock line, no lock acquisitions, and a commit that
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
// The engine never writes: a body that writes (or allocates/frees) is
// demoted to the general retry loop, which re-runs it from scratch on the
// ordinary paths, and so is a transaction whose snapshot attempts all fail
// validation. The engine never bumps the commit sequence, acquires a lock,
// or emits a single journal record/flush/fence — asserted by
// tests/ro_path_test.
#include "core/nvhalt_internal.hpp"

namespace nvhalt {

namespace {

/// Snapshot attempts a read-only transaction makes before it demotes to
/// the general retry loop.
constexpr int kRoSwAttempts = 4;

/// One bit of the per-attempt membership filter for a lock pointer.
/// LockEntry is 16 bytes, so >> 4 strips the always-zero low bits; the
/// Fibonacci multiply spreads table neighbours across the 64 positions.
inline std::uint64_t filter_bit(const std::atomic<std::uint64_t>* lock_s) {
  const std::uint64_t h =
      (reinterpret_cast<std::uintptr_t>(lock_s) >> 4) * 0x9E3779B97F4A7C15ull;
  return std::uint64_t{1} << (h >> 58);
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

    const std::uint32_t found = find_line(lk.s);
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

    record_line(lk.s, l1);
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
  /// Hybrid unique-line lookup (ThreadCtx::kRoLinearScanMax). Most lookups
  /// are first accesses, so the filter answers them in one bit test; on a
  /// (possible) hit, a linear pointer scan of ro_set while it is short — the
  /// whole vector is a couple of cache-hot lines, cheaper than hashing for
  /// the typical footprint — and the hash index once it has taken over.
  std::uint32_t find_line(const std::atomic<std::uint64_t>* lock_s) const {
    if (NVHALT_LIKELY((ctx_.ro_filter & filter_bit(lock_s)) == 0))
      return htm::SmallIndexMap::kNotFound;
    if (NVHALT_LIKELY(!ctx_.ro_indexed)) {
      for (std::uint32_t i = 0; i < ctx_.ro_set.size(); ++i)
        if (ctx_.ro_set[i].lock_s == lock_s) return i;
      return htm::SmallIndexMap::kNotFound;
    }
    return ctx_.ro_index.find(reinterpret_cast<std::uintptr_t>(lock_s));
  }

  /// Appends a unique line, migrating the whole set into ro_index in one
  /// sweep the first time it outgrows the linear-scan threshold.
  void record_line(std::atomic<std::uint64_t>* lock_s, std::uint64_t seen) {
    ctx_.ro_filter |= filter_bit(lock_s);
    if (NVHALT_UNLIKELY(ctx_.ro_indexed)) {
      ctx_.ro_index.insert(reinterpret_cast<std::uintptr_t>(lock_s),
                           static_cast<std::uint32_t>(ctx_.ro_set.size()));
    }
    ctx_.ro_set.push_back({lock_s, seen});
    if (NVHALT_UNLIKELY(!ctx_.ro_indexed &&
                        ctx_.ro_set.size() > NvHaltTm::ThreadCtx::kRoLinearScanMax)) {
      ctx_.ro_index.clear();
      for (std::uint32_t i = 0; i < ctx_.ro_set.size(); ++i)
        ctx_.ro_index.insert(reinterpret_cast<std::uintptr_t>(ctx_.ro_set[i].lock_s), i);
      ctx_.ro_indexed = true;
    }
  }

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

NvHaltTm::RoAttemptOutcome NvHaltTm::run_ro(int tid, TxBody body) {
  ThreadCtx& ctx = ctx_[tid];

  // In the common low-write-rate regime the first snapshot commits. A
  // footprint whose lines keep moving under it demotes to the general
  // loop after kRoSwAttempts validation failures.
  for (int i = 0; i < kRoSwAttempts; ++i) {
    telemetry::trace1(telemetry::EventKind::kRoAttempt, tid, static_cast<std::uint64_t>(i));
    const RoAttemptOutcome r = attempt_ro_sw(tid, body);
    if (r != RoAttemptOutcome::kAborted) return r;
    runtime::backoff(ctx.rng, i + 1);
  }
  return RoAttemptOutcome::kDemoted;
}

NvHaltTm::RoAttemptOutcome NvHaltTm::attempt_ro_sw_once(int tid, TxBody body) {
  check_tid(tid);
  ensure_pver(pool_, tid, ctx_[tid]);
  return attempt_ro_sw(tid, body);
}

}  // namespace nvhalt
