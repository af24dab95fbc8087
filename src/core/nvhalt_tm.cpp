#include "core/nvhalt_tm.hpp"

#include "core/nvhalt_internal.hpp"
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
      ctx_(kMaxThreads),
      undo_(pool, alloc, cfg.checkpoint) {
  if (kind == TmKind::kTrinity || kind == TmKind::kSpht)
    throw TmLogicError("NvHaltTm: not an NV-HALT kind");
  gclock_.value.store(0, std::memory_order_relaxed);
  commit_seq_.value.store(0, std::memory_order_relaxed);
  for (int t = 0; t < ctx_.size(); ++t) {
    ctx_[t].rng.reseed(0xC0FFEE + static_cast<std::uint64_t>(t));
    ctx_[t].reserve_scratch();
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

bool NvHaltTm::checkpoint(int tid) {
  check_tid(tid);
  return undo_.checkpoint(tid);
}

void NvHaltTm::recover_data() {
  // Paper Sec. 3.5: revert every record whose persistent version number is
  // at or above its owner's durable pVerNum, rebuild the volatile image and
  // the allocator — the engine NV-HALT shares with Trinity.
  undo_.recover(/*rtid=*/0, cfg_.recovery_threads, cfg_.recovery_skip_nth_revert);

  // Volatile synchronization metadata did not survive; start clean. This
  // is safe precisely because recovery reverted every address whose lock
  // could have been held at the crash.
  locks_.reset();
  htm_.reset();
  gclock_.value.store(0, std::memory_order_relaxed);
  commit_seq_.value.store(0, std::memory_order_relaxed);
  ctx_.for_each([](ThreadCtx& c) {
    c.pver_loaded = false;
    c.rdset.clear();
    c.wrset.clear();
    c.hw_undo.clear();
    c.hw_locks.clear();
    c.acquired.clear();
  });
}

bool NvHaltTm::run_checked(int tid, TxMode mode, TxBody body) {
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
  check_tid(tid);
  ensure_pver(pool_, tid, ctx_[tid]);
  return attempt_hw(tid, body) == AttemptResult::kCommitted;
}

bool NvHaltTm::attempt_sw_once(int tid, TxBody body) {
  check_tid(tid);
  ensure_pver(pool_, tid, ctx_[tid]);
  return attempt_sw(tid, body) == AttemptResult::kCommitted;
}

}  // namespace nvhalt
