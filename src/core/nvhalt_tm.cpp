#include "core/nvhalt_tm.hpp"

#include <algorithm>

#include "core/nvhalt_internal.hpp"
#include "pmem/checkpoint.hpp"
#include "pmem/crash_sim.hpp"

namespace nvhalt {

NvHaltTm::NvHaltTm(TmKind kind, const NvHaltConfig& cfg, PmemPool& pool, htm::SimHtm& htm,
                   TxAllocator& alloc)
    : runtime::TmRuntime(kMaxThreads, {.htm_attempts = cfg.htm_attempts,
                                       .max_sw_retries = cfg.max_sw_retries}),
      cfg_(cfg),
      strong_(kind == TmKind::kNvHaltSp),
      ro_routing_(cfg.persist_hw_txns && cfg.hw_acquire_locks && !cfg.validate_every_read),
      pool_(pool),
      htm_(htm),
      alloc_(alloc),
      locks_(kind == TmKind::kNvHaltCl ? LockMode::kColocated : LockMode::kTable,
             cfg.lock_table_entries, pool.capacity_words()),
      ctx_(kMaxThreads) {
  if (kind == TmKind::kTrinity || kind == TmKind::kSpht)
    throw TmLogicError("NvHaltTm: not an NV-HALT kind");
  gclock_.value.store(0, std::memory_order_relaxed);
  commit_seq_.value.store(0, std::memory_order_relaxed);
  for (int t = 0; t < ctx_.size(); ++t) {
    ctx_[t].rng.reseed(0xC0FFEE + static_cast<std::uint64_t>(t));
    ctx_[t].reserve_scratch();
  }
  // TM-managed allocator: persistent metadata, epoch-based reclamation
  // bounded by this registry, and crash recovery from the pool alone.
  alloc_.attach_registry(&registry_);
  // Checkpoint/compaction: reserves its raw region only when enabled, so
  // the default configuration keeps a byte-identical pool layout.
  if (cfg_.checkpoint) ckpt_ = std::make_unique<CheckpointManager>(pool_, &alloc_);
  // Flight recorder: same conditional-reservation discipline. Allocated
  // after the checkpoint region so both subsystems keep stable raw offsets.
  if (cfg_.flight_recorder) {
    frec_ = std::make_unique<telemetry::FlightRecorder>(pool_);
    for (int t = 0; t < ctx_.size(); ++t) ctx_[t].recorder = frec_.get();
  }
}

NvHaltTm::~NvHaltTm() = default;

const char* NvHaltTm::name() const {
  if (strong_) return "NV-HALT-SP";
  return locks_.mode() == LockMode::kColocated ? "NV-HALT-CL" : "NV-HALT";
}

TmStats NvHaltTm::stats() const { return runtime::aggregate_thread_stats(ctx_); }

void NvHaltTm::reset_stats() {
  runtime::reset_thread_stats(ctx_);
  locks_.contention().reset();
}

telemetry::TmTelemetry NvHaltTm::telemetry() const {
  return runtime::aggregate_thread_telemetry(ctx_);
}

void NvHaltTm::persist_and_bump_pver(int tid, ThreadCtx& ctx) {
  // Trinity-style persistence under held locks (Sec. 3.2): write each
  // record (old value, {tid, pVerNum}, new value), flush it, and update the
  // volatile word; one fence makes the whole write set durable, then the
  // thread's persistent version number is advanced and persisted, marking
  // the transaction durably committed. Only afterwards may locks be
  // released (done by the caller), preserving the invariant that an
  // address is non-durable only while locked.
  ctx.tel.write_set_size.record(ctx.persist_buf.size());
  // Checkpointing: hold the persist-phase guard across the whole phase
  // (checkpoints drain these), and durably publish the dirty bit of every
  // record line this write set touches BEFORE any record store is staged —
  // the write-barrier invariant bounded recovery rests on. Lines already
  // durably marked this generation cost nothing (shadow bitmap).
  std::shared_lock<std::shared_mutex> persist_phase;
  if (ckpt_) {
    persist_phase = ckpt_->persist_phase();
    bool need_fence = false;
    for (const ThreadCtx::PersistEnt& e : ctx.persist_buf)
      need_fence |= ckpt_->mark(tid, e.addr);
    if (need_fence) {
      pool_.fence(tid);
      ckpt_->commit_marks(tid);
    }
  }
  // Allocator intent record: armed under this transaction's pre-bump
  // pVerNum and flushed with the write set, so it is durable before the
  // marker can be. Recovery replays it iff pver crossed the arm id.
  alloc_.persist_arm(tid, ctx.pver);
  // Structure updates write runs of words within a node's cache lines, so
  // consecutive entries usually share a conflict-table stripe: the cached
  // claim turns the per-word claim/abort-scan/release round into one round
  // per run (see SimHtm::nontx_store_cached for why holding the tag across
  // the run is equivalent).
  htm::SimHtm::NontxClaim claim;
  for (const ThreadCtx::PersistEnt& e : ctx.persist_buf) {
    pool_.record_write(tid, e.addr, e.old, e.val, ctx.pver);
    pool_.flush_record(tid, e.addr);
    htm_.nontx_store_cached(tid, htm::loc_pool(e.addr), pool_.word_ptr(e.addr), e.val, claim);
  }
  htm_.nontx_claim_release(claim);
  // Allocator intent + write-set fence are in flight: note both in the
  // flight recorder so a postmortem names the pending persist work. The
  // records ride the very fence below.
  if (alloc_.has_pending(tid))
    ctx.fr(tid, telemetry::EventKind::kAllocArm);
  ctx.fr(tid, telemetry::EventKind::kFence, 0xFF,
         static_cast<std::uint16_t>(
             std::min<std::size_t>(ctx.persist_buf.size(), 0xFFFF)));
  pool_.fence(tid);
  ++ctx.pver;
  pool_.store_pver(tid, ctx.pver);
  pool_.flush_pver(tid);
  // Allocation-bitmap apply rides the marker's fence: apply-durable
  // implies marker-durable (enqueue order), and recovery re-normalizes
  // the still-armed record idempotently either way.
  const bool applied = alloc_.has_pending(tid);
  alloc_.persist_apply(tid);
  if (applied) ctx.fr(tid, telemetry::EventKind::kAllocApply);
  pool_.fence(tid);
}

bool NvHaltTm::checkpoint(int tid) {
  if (!ckpt_) return false;
  ckpt_->checkpoint(tid);
  if (frec_) {
    ctx_[tid].fr(tid, telemetry::EventKind::kCheckpoint, 0xFF,
                 static_cast<std::uint16_t>(ckpt_->generation() & 0xFFFF));
    pool_.fence(tid);
  }
  return true;
}

bool NvHaltTm::run_registered(int tid, TxMode mode, TxBody body) {
  ThreadCtx& ctx = ctx_[tid];
  ensure_pver(pool_, tid, ctx);

  // Read-only fast path: only the caller's TxMode::kReadOnly hint routes
  // here. Demotion (the body wrote) or exhausted RO attempts fall through
  // to the general loop.
  if (mode == TxMode::kReadOnly && ro_routing_) {
    switch (run_ro(tid, body)) {
      case RoAttemptOutcome::kCommitted:
        return true;
      case RoAttemptOutcome::kUserAborted:
        return false;
      case RoAttemptOutcome::kDemoted:
      case RoAttemptOutcome::kAborted:
        break;
    }
  }

  struct Env {
    NvHaltTm& tm;
    ThreadCtx& ctx;
    int tid;
    TxBody body;
    runtime::AttemptStatus attempt_hw() { return tm.attempt_hw(tid, body); }
    runtime::AttemptStatus attempt_sw() { return tm.attempt_sw(tid, body); }
    void before_hw_attempt() {}
    void crash_point() {
      if (auto* c = tm.pool_.crash_coordinator()) c->crash_point();
    }
  } env{*this, ctx, tid, body};

  return runtime::run_retry_loop(policy_, tid, ctx, env);
}

bool NvHaltTm::attempt_hw_once(int tid, TxBody body) {
  registry().ensure_registered(tid);
  ensure_pver(pool_, tid, ctx_[tid]);
  return attempt_hw(tid, body) == AttemptResult::kCommitted;
}

bool NvHaltTm::attempt_sw_once(int tid, TxBody body) {
  registry().ensure_registered(tid);
  ensure_pver(pool_, tid, ctx_[tid]);
  return attempt_sw(tid, body) == AttemptResult::kCommitted;
}

}  // namespace nvhalt
