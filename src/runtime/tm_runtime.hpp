// TmRuntime: the shared runtime base of all five TMs.
//
// Owns the pieces the TMs used to hand-roll independently:
//   * a ThreadRegistry (dynamic registration, slot reuse, dense-tid
//     compatibility shim),
//   * the PathPolicy driving the unified retry loop
//     (runtime/retry_policy.hpp), fixed when the TM is constructed,
//   * the run(tid, body) entry point: registry bounds check / slot pinning,
//     then dispatch into the TM's run_registered.
//
// A TM derives from TmRuntime, keeps its per-thread contexts in a
// PerThread<Ctx> whose Ctx derives from TxThreadState, implements
// run_registered by handing its attempt primitives to run_retry_loop
// through a small Env adapter, and overrides recover_data() with its own
// recovery.
#pragma once

#include "api/tm.hpp"
#include "runtime/per_thread.hpp"
#include "runtime/retry_policy.hpp"
#include "runtime/thread_registry.hpp"

namespace nvhalt::runtime {

class TmRuntime : public TransactionalMemory {
 public:
  ThreadRegistry& registry() final { return registry_; }

  using TransactionalMemory::run;

  bool run(int tid, TxBody body) final {
    registry_.ensure_registered(tid);
    return run_registered(tid, TxMode::kUpdate, body);
  }

  bool run(int tid, TxMode mode, TxBody body) final {
    registry_.ensure_registered(tid);
    return run_registered(tid, mode, body);
  }

 protected:
  TmRuntime(int registry_capacity, const PathPolicy& policy)
      : registry_(registry_capacity), policy_(policy) {}

  /// Runs one transaction on a registered slot (the unified retry loop with
  /// this TM's attempt primitives plugged in). `mode` is the caller's
  /// access-pattern hint; TMs without a read-only fast path ignore it.
  virtual bool run_registered(int tid, TxMode mode, TxBody body) = 0;

  /// Lazily loads a slot's persistent version number from the pool header
  /// (reset by recovery via TxThreadState::pver_loaded).
  static void ensure_pver(PmemPool& pool, int tid, TxThreadState& ts) {
    if (!ts.pver_loaded) {
      ts.pver = pool.load_pver(tid);
      ts.pver_loaded = true;
    }
  }

  ThreadRegistry registry_;
  /// Built once from the TM's config; the loop reads it unsynchronized.
  const PathPolicy policy_;
};

}  // namespace nvhalt::runtime
