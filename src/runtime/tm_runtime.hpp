// TmRuntime: the shared runtime base of all five TMs.
//
// Owns the pieces the TMs used to hand-roll independently:
//   * the one thread-id range check, [0, max_threads) (kMaxThreads, or
//     SphtConfig::max_threads), shared by run(), each TM's checkpoint() and
//     NV-HALT's single-attempt test hooks,
//   * the PathPolicy driving the unified retry loop
//     (runtime/retry_policy.hpp), fixed when the TM is constructed,
//   * the run(tid, mode, body) entry point: range check, then dispatch
//     into the TM's run_checked.
//
// A TM derives from TmRuntime, keeps its per-thread contexts in a
// PerThread<Ctx> whose Ctx derives from TxThreadState, implements
// run_checked by handing its attempt primitives to run_retry_loop
// through a small Env adapter, and overrides recover_data() with its own
// recovery.
#pragma once

#include <string>

#include "api/tm.hpp"
#include "runtime/per_thread.hpp"
#include "runtime/retry_policy.hpp"

namespace nvhalt::runtime {

class TmRuntime : public TransactionalMemory {
 public:
  using TransactionalMemory::run;

  bool run(int tid, TxMode mode, TxBody body) final {
    check_tid(tid);
    return run_checked(tid, mode, body);
  }

 protected:
  TmRuntime(int max_threads, const PathPolicy& policy)
      : policy_(policy), max_threads_(max_threads) {}

  /// Throws TmLogicError unless tid is in [0, max_threads): every per-thread
  /// array (contexts, pVerNum slots, flush queues, SPHT logs) has at least
  /// that many entries.
  void check_tid(int tid) const {
    if (NVHALT_UNLIKELY(static_cast<unsigned>(tid) >= static_cast<unsigned>(max_threads_)))
      throw_tid_out_of_range(tid, max_threads_);
  }

  /// Runs one transaction on a range-checked tid (the unified retry loop
  /// with this TM's attempt primitives plugged in). `mode` is the caller's
  /// access-pattern hint; TMs without a read-only fast path ignore it.
  virtual bool run_checked(int tid, TxMode mode, TxBody body) = 0;

  /// Lazily loads a slot's persistent version number from the pool header
  /// (reset by recovery via TxThreadState::pver_loaded).
  static void ensure_pver(PmemPool& pool, int tid, TxThreadState& ts) {
    if (!ts.pver_loaded) {
      ts.pver = pool.load_pver(tid);
      ts.pver_loaded = true;
    }
  }

  /// Built once from the TM's config; the loop reads it unsynchronized.
  const PathPolicy policy_;

 private:
  /// Out of line, so a check costs its caller one compare and branch.
  [[noreturn, gnu::cold, gnu::noinline]] static void throw_tid_out_of_range(int tid,
                                                                           int max_threads) {
    throw TmLogicError("thread id " + std::to_string(tid) + " out of range [0, " +
                       std::to_string(max_threads) + ")");
  }

  const int max_threads_;
};

}  // namespace nvhalt::runtime
