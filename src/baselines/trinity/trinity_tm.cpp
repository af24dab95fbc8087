#include "baselines/trinity/trinity_tm.hpp"

#include <algorithm>
#include <vector>

#include "htm/small_map.hpp"
#include "pmem/crash_sim.hpp"
#include "runtime/per_thread.hpp"

namespace nvhalt {

/// Stats, RNG and the pver cache live in the shared runtime::TxThreadState
/// base; this adds Trinity's TL2 scratch and the write set staged for the
/// undo-record engine.
struct alignas(kCacheLineBytes) TrinityTm::ThreadCtx : runtime::TxThreadState {
  struct ReadEnt {
    std::atomic<std::uint64_t>* lock_s;
    std::uint64_t seen;  // sandwich snapshot (unlocked, version <= rv)
  };
  struct WriteEnt {
    gaddr_t addr;
    word_t val;
    std::atomic<std::uint64_t>* lock_s;
  };
  std::vector<ReadEnt> rdset;
  std::vector<WriteEnt> wrset;
  htm::SmallIndexMap wr_index;                    // gaddr -> wrset index
  htm::SmallIndexMap lock_dedupe;                 // lock ptr -> first wrset index
  std::vector<std::atomic<std::uint64_t>*> held;  // locks acquired this commit
  std::vector<UndoRecords::Entry> persist_buf;    // the write set UndoRecords::commit persists
  std::uint64_t rv = 0;
};

TrinityTm::TrinityTm(const TrinityConfig& cfg, PmemPool& pool, TxAllocator& alloc)
    // Pure STM: no hardware attempts, software retries until commit.
    : runtime::TmRuntime(kMaxThreads, runtime::PathPolicy{}),
      cfg_(cfg),
      pool_(pool),
      alloc_(alloc),
      locks_(LockMode::kTable, cfg.lock_table_entries, pool.capacity_words()),
      ctx_(kMaxThreads),
      undo_(pool, alloc, cfg.checkpoint) {
  gv_.value.store(0, std::memory_order_relaxed);
  for (int t = 0; t < ctx_.size(); ++t) {
    ctx_[t].rng.reseed(0x7121717 + static_cast<std::uint64_t>(t));
    // Pre-size per-transaction scratch so the steady state never
    // reallocates on the hot path.
    ctx_[t].rdset.reserve(256);
    ctx_[t].wrset.reserve(64);
    ctx_[t].held.reserve(64);
    ctx_[t].persist_buf.reserve(64);
  }
}

TrinityTm::~TrinityTm() = default;

bool TrinityTm::checkpoint(int tid) {
  check_tid(tid);
  return undo_.checkpoint(tid);
}

/// Tx handle for one TL2 attempt.
class TrinityTx final : public Tx {
 public:
  TrinityTx(TrinityTm& tm, TrinityTm::ThreadCtx& ctx, int tid)
      : tm_(tm), ctx_(ctx), tid_(tid) {}

  word_t read(gaddr_t a) override {
    telemetry::trace2(telemetry::EventKind::kRead, tid_, a);
    const std::uint32_t found = ctx_.wr_index.find(a);
    if (found != htm::SmallIndexMap::kNotFound) return ctx_.wrset[found].val;

    LockRef lk = tm_.locks_.ref(a);
    // TL2 read: value sandwiched by identical lock snapshots that are
    // unlocked with version <= rv — i.e. written before we started.
    const std::uint64_t l1 = lk.s->load(std::memory_order_seq_cst);
    if (lockword::is_locked(l1) || lockword::version(l1) > ctx_.rv) {
      tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
      throw TxConflictAbort{};
    }
    const word_t val = tm_.pool_.word_ptr(a)->load(std::memory_order_seq_cst);
    const std::uint64_t l2 = lk.s->load(std::memory_order_seq_cst);
    if (l1 != l2) {
      tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
      throw TxConflictAbort{};
    }
    ctx_.rdset.push_back({lk.s, l1});
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
    if (lockword::is_locked(lk.s->load(std::memory_order_seq_cst))) {
      tm_.locks_.contention().on_abort(tm_.locks_.contention_stripe(a));
      throw TxConflictAbort{};
    }
    ctx_.wr_index.insert(a, static_cast<std::uint32_t>(ctx_.wrset.size()));
    ctx_.wrset.push_back({a, v, lk.s});
  }

  gaddr_t alloc(std::size_t nwords) override { return tm_.alloc_.tx_alloc(tid_, nwords); }
  void free(gaddr_t a, std::size_t nwords) override { tm_.alloc_.tx_free(tid_, a, nwords); }
  bool on_hw_path() const override { return false; }

  void commit() {
    if (ctx_.wrset.empty()) {
      if (tm_.alloc_.has_pending(tid_)) {
        // No data words written, but the transaction allocated or freed:
        // the allocator effects still need the arm → marker → apply
        // durability sequence (no locks needed — reads were validated at
        // read time, and the effects are per-thread allocator state).
        ctx_.persist_buf.clear();
        tm_.undo_.commit(tid_, ctx_, ctx_.persist_buf, nullptr);
        return;
      }
      ctx_.stats.read_only_commits++;
      return;  // per-read validation suffices for read-only transactions
    }

    // Fixed-order lock acquisition => strong progressiveness (Sec. 2.1.1).
    std::sort(ctx_.wrset.begin(), ctx_.wrset.end(),
              [](const auto& x, const auto& y) { return x.addr < y.addr; });

    ctx_.lock_dedupe.clear();
    ctx_.held.clear();
    for (std::uint32_t i = 0; i < ctx_.wrset.size(); ++i) {
      auto& w = ctx_.wrset[i];
      const std::uint64_t key = reinterpret_cast<std::uintptr_t>(w.lock_s);
      if (ctx_.lock_dedupe.find(key) != htm::SmallIndexMap::kNotFound) continue;
      std::uint64_t cur = w.lock_s->load(std::memory_order_seq_cst);
      // Commit-time (encounter-free) acquisition: lock must be free with a
      // version not beyond rv (otherwise our buffered value may be stale).
      if (lockword::is_locked(cur) || lockword::version(cur) > ctx_.rv ||
          !w.lock_s->compare_exchange_strong(cur, lockword::make(lockword::version(cur), true, tid_),
                                             std::memory_order_seq_cst)) {
        tm_.locks_.contention().on_cas_fail(tm_.locks_.contention_stripe(w.addr));
        release_held_at_rollback();  // restore pre-acquire versions
        throw TxConflictAbort{};
      }
      ctx_.lock_dedupe.insert(key, i);
      ctx_.held.push_back(w.lock_s);
    }

    const std::uint64_t wv = gv_fetch_add();
    if (wv != ctx_.rv + 1) {
      // Clock moved: revalidate the read set under the held locks.
      for (const auto& e : ctx_.rdset) {
        const std::uint64_t cur = e.lock_s->load(std::memory_order_seq_cst);
        const bool self_held = lockword::is_locked(cur) && lockword::owner(cur) == tid_;
        if (!self_held &&
            (lockword::is_locked(cur) || lockword::version(cur) > ctx_.rv)) {
          tm_.locks_.contention().on_abort(
              tm_.locks_.contention_stripe_of_lock(e.lock_s));
          release_held_at_rollback();
          throw TxConflictAbort{};
        }
        if (self_held && lockword::version(cur) > ctx_.rv) {
          tm_.locks_.contention().on_abort(
              tm_.locks_.contention_stripe_of_lock(e.lock_s));
          release_held_at_rollback();
          throw TxConflictAbort{};
        }
      }
    }

    // Persist with undo records while the locks are held, then apply.
    telemetry::trace1(telemetry::EventKind::kLockAcquire, tid_, ctx_.held.size());
    ctx_.persist_buf.clear();
    for (const auto& w : ctx_.wrset)
      ctx_.persist_buf.push_back({w.addr, tm_.pool_.load(w.addr), w.val});
    tm_.undo_.commit(tid_, ctx_, ctx_.persist_buf, nullptr);

    // Release with version wv: readers that started before us see
    // version > rv and abort/revalidate.
    for (auto* lock : ctx_.held)
      lock->store(lockword::make(wv, false, 0), std::memory_order_seq_cst);
    ctx_.held.clear();
  }

 private:
  std::uint64_t gv_fetch_add() {
    return tm_.gv_.value.fetch_add(1, std::memory_order_seq_cst) + 1;
  }

  /// Releases locks acquired so far, restoring their pre-acquire version
  /// (acquisition kept the version and set the lock bit, so clearing the
  /// bit restores the exact prior word).
  void release_held_at_rollback() {
    for (auto* lock : ctx_.held) {
      const std::uint64_t cur = lock->load(std::memory_order_seq_cst);
      lock->store(lockword::make(lockword::version(cur), false, 0), std::memory_order_seq_cst);
    }
    ctx_.held.clear();
  }

  TrinityTm& tm_;
  TrinityTm::ThreadCtx& ctx_;
  int tid_;
};

TrinityTm::AttemptResult TrinityTm::attempt(int tid, TxBody body) {
  // Reclamation epoch: the quiescent refresh keeps this thread's
  // persistent reservation current, so no node this transaction may read
  // can be recycled under it (alloc/ebr.hpp).
  alloc_.epochs().quiesce(tid);
  ThreadCtx& ctx = ctx_[tid];
  ctx.rdset.clear();
  ctx.wrset.clear();
  ctx.wr_index.clear();
  ctx.rv = gv_.value.load(std::memory_order_seq_cst);

  TrinityTx tx(*this, ctx, tid);
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
    alloc_.on_abort(tid);
    throw;
  }
  alloc_.on_commit(tid);
  ctx.stats.commits++;
  ctx.stats.sw_commits++;
  return AttemptResult::kCommitted;
}

bool TrinityTm::run_checked(int tid, TxMode mode, TxBody body) {
  (void)mode;  // no read-only fast path: Trinity reads are already plain loads
  ThreadCtx& ctx = ctx_[tid];
  ensure_pver(pool_, tid, ctx);

  struct Env {
    TrinityTm& tm;
    int tid;
    TxBody body;
    runtime::AttemptStatus attempt_hw() { return runtime::AttemptStatus::kAborted; }
    runtime::AttemptStatus attempt_sw() { return tm.attempt(tid, body); }
    void before_hw_attempt() {}
    void crash_point() {
      if (auto* c = tm.pool_.crash_coordinator()) c->crash_point();
    }
  } env{*this, tid, body};

  return runtime::run_retry_loop(policy_, tid, ctx, env);
}

void TrinityTm::recover_data() {
  undo_.recover(/*rtid=*/0, cfg_.recovery_threads);
  locks_.reset();
  gv_.value.store(0, std::memory_order_relaxed);
  ctx_.for_each([](ThreadCtx& c) { c.pver_loaded = false; });
}

TmStats TrinityTm::stats() const { return runtime::aggregate_thread_stats(ctx_); }

void TrinityTm::reset_stats() {
  runtime::reset_thread_stats(ctx_);
  locks_.contention().reset();
}

}  // namespace nvhalt
