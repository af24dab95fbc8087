// TmRuntime: the shared runtime base of all five TMs.
//
// Owns the pieces the TMs used to hand-roll independently:
//   * a ThreadRegistry (dynamic registration, slot reuse, dense-tid
//     compatibility shim),
//   * the PathPolicy driving the unified retry loop
//     (runtime/retry_policy.hpp), fixed when the TM is constructed,
//   * the run(tid, body) entry point: registry bounds check / slot pinning,
//     then dispatch into the TM's run_registered,
//   * the persistent flight recorder (telemetry/flight_recorder.hpp): its
//     raw region, the per-slot wiring, and its place around recovery —
//     recover_data() decodes the crash image's postmortem before the TM's
//     own recovery writes anything and re-arms the recorder after it.
//
// A TM derives from TmRuntime, keeps its per-thread contexts in a
// PerThread<Ctx> whose Ctx derives from TxThreadState, and implements
// run_registered by handing its attempt primitives to run_retry_loop
// through a small Env adapter.
#pragma once

#include <memory>

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

  /// Postmortem first — a read-only decode of the durable rings (torn
  /// tails are counted and skipped; decode never throws, so recovery cannot
  /// fail on recorder corruption) — then the TM's recovery, then the
  /// recorder cursors are reseeded past the decoded history with a durable
  /// kRecovery record, the first of the new epoch.
  void recover_data() final {
    if (frec_)
      last_postmortem_ = std::make_unique<telemetry::PostmortemReport>(frec_->postmortem());
    recover_state();
    if (frec_) frec_->on_recover(0);
  }

  const telemetry::PostmortemReport* last_postmortem() const final {
    return last_postmortem_.get();
  }

  /// Flight recorder, or null when the TM's config leaves it off.
  telemetry::FlightRecorder* flight_recorder() { return frec_.get(); }

 protected:
  TmRuntime(int registry_capacity, const PathPolicy& policy)
      : registry_(registry_capacity), policy_(policy) {}

  /// Runs one transaction on a registered slot (the unified retry loop with
  /// this TM's attempt primitives plugged in). `mode` is the caller's
  /// access-pattern hint; TMs without a read-only fast path ignore it.
  virtual bool run_registered(int tid, TxMode mode, TxBody body) = 0;

  /// The TM's own post-crash recovery on serial tid 0 (quiescent): restore
  /// the volatile image from the durable state, rebuild the allocator from
  /// its persistent metadata, and reset this TM's volatile metadata.
  virtual void recover_state() = 0;

  /// Reserves the recorder's raw region and wires it into every slot. A TM
  /// calls this after its own raw reservations, so the recorder always
  /// sits last in the raw layout; the disabled default reserves nothing.
  template <typename Ctx>
  void enable_flight_recorder(PmemPool& pool, PerThread<Ctx>& ctx) {
    frec_ = std::make_unique<telemetry::FlightRecorder>(pool);
    ctx.for_each([this](Ctx& c) { c.recorder = frec_.get(); });
  }

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

 private:
  std::unique_ptr<telemetry::FlightRecorder> frec_;
  /// Postmortem decoded by the most recent recover_data().
  std::unique_ptr<telemetry::PostmortemReport> last_postmortem_;
};

}  // namespace nvhalt::runtime
