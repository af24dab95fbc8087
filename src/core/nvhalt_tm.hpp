// NV-HALT: Non-Volatile Hardware Assisted Locking Transactions.
//
// The paper's primary contribution (Sec. 3): a two-path persistent HyTM in
// which hardware transactions are used mainly to *read and acquire the
// fine-grained versioned locks* that protect data. Locks acquired inside a
// hardware transaction become visible atomically at xend and remain held
// afterwards, protecting the modified addresses while they are persisted
// with Trinity-style colocated undo records (core/undo_records.hpp, the
// engine NV-HALT shares with the Trinity baseline); only then are they
// released.
// The software fallback path is a TL2-style commit-time-locking STM whose
// write set is persisted the same way while its locks are held, so an
// address can be non-durable only while its lock is held — the invariant
// the whole persistence scheme rests on.
//
// Variants (paper Sec. 3.6, 4), selected by the TmKind the TM is built as:
//   * weak progressive  (TmKind::kNvHalt) — Fig. 1 + Fig. 5
//   * strong progressive (TmKind::kNvHaltSp, "NV-HALT-SP") — Fig. 7: sorted
//     write-set acquisition, a global software clock whose successful CAS
//     lets commits skip sLock validation, and a per-lock hVer bumped only
//     by hardware transactions so software commits can detect them.
//   * colocated locks (TmKind::kNvHaltCl, "NV-HALT-CL") —
//     LockMode::kColocated, weak progressive.
//
// NV-HALT is O(1)-abortable (weak/strong) progressive: each transaction
// runs at most `htm_attempts` hardware attempts, then the progressive
// software path until it commits or voluntarily aborts.
#pragma once

#include <atomic>
#include <memory>

#include "api/tm.hpp"
#include "core/undo_records.hpp"
#include "htm/sim_htm.hpp"
#include "htm/small_map.hpp"
#include "locks/lock_table.hpp"
#include "runtime/tm_runtime.hpp"
#include "util/rng.hpp"

namespace nvhalt {

struct NvHaltConfig {
  std::size_t lock_table_entries = std::size_t{1} << 16;

  /// C in "C-abortable": hardware attempts before falling back.
  int htm_attempts = 10;

  /// Ablation class 3 (NO-PERSISTENT-HTXN): when false, the hardware path
  /// performs no lock acquisition, no undo logging and no post-xend
  /// persistence — volatile-only hardware transactions.
  bool persist_hw_txns = true;

  // Debug knobs for the paper's counterexample executions. Production
  // configurations leave both true.
  /// Fig. 2 vs Fig. 3: hardware reads subscribe to the address's lock.
  bool hw_read_check_locks = true;
  /// Fig. 4: hardware writes acquire the lock (and hold it past xend).
  bool hw_acquire_locks = true;

  /// Bound on software-path retries; < 0 means retry until commit
  /// (progressive). Tests use small bounds to assert abort behaviour.
  int max_sw_retries = -1;

  /// Fig. 1 revalidates the full read set on every software read — O(n^2)
  /// in reads. By default the software path instead revalidates only when
  /// the global commit sequence has moved since the transaction's last
  /// validated snapshot, which preserves opacity (docs/PROTOCOLS.md) and is
  /// O(1) per read in the common case. Set true to restore the paper's
  /// literal per-read revalidation (A/B comparison, counterexample tests).
  bool validate_every_read = false;

  /// Test-only fault injection: recover_data() skips the Nth undo-record
  /// revert it would otherwise apply (-1 = disabled). The crash-prefix
  /// enumeration checker's mutation test uses this to prove a broken
  /// recovery is caught with a replayable (trace, prefix, seed) triple.
  int recovery_skip_nth_revert = -1;

  /// Checkpoint/compaction (DESIGN.md Sec. 13): maintain a persistent
  /// dirty-line bitmap so checkpoint(tid) can retire accumulated revert
  /// obligations and recovery scans only the delta since the last
  /// checkpoint. Off by default — the checkpoint raw region is allocated
  /// only when enabled, so disabled configurations keep a byte-identical
  /// pool layout.
  bool checkpoint = false;

  /// Recovery worker pool size (parallel record revert + image rebuild).
  /// 1 reproduces the serial recovery path exactly; any count yields a
  /// byte-identical recovered image.
  int recovery_threads = 1;
};

class NvHaltTm final : public runtime::TmRuntime {
 public:
  /// `kind` is one of the three NV-HALT kinds; it fixes the progress
  /// variant and the lock layout.
  NvHaltTm(TmKind kind, const NvHaltConfig& cfg, PmemPool& pool, htm::SimHtm& htm,
           TxAllocator& alloc);
  ~NvHaltTm() override;

  bool checkpoint(int tid) override;

  /// Undo-record recovery (paper Sec. 3.5), then a reset of this TM's
  /// volatile synchronization metadata.
  void recover_data() override;

  PmemPool& pool() override { return pool_; }
  TxAllocator& allocator() override { return alloc_; }
  const char* name() const override;
  TmStats stats() const override;
  void reset_stats() override;
  const ContentionTable* contention() const override { return &locks_.contention(); }

  const NvHaltConfig& config() const { return cfg_; }
  /// The undo-record durability engine (persist, checkpoint, recovery).
  UndoRecords& undo_records() { return undo_; }
  /// Checkpoint subsystem, or null when cfg.checkpoint is off (tests).
  CheckpointManager* checkpoint_manager() { return undo_.checkpoint_manager(); }
  htm::SimHtm& htm() { return htm_; }
  LockSpace& locks() { return locks_; }
  std::uint64_t gclock() const { return gclock_.value.load(std::memory_order_acquire); }
  std::uint64_t commit_seq() const { return commit_seq_.value.load(std::memory_order_acquire); }

  /// Exposed for scripted counterexample tests: run exactly one hardware
  /// (resp. software) attempt. Returns true on commit; throws
  /// TxConflictAbort / htm::HtmAbort on conflict per path semantics.
  bool attempt_hw_once(int tid, TxBody body);
  bool attempt_sw_once(int tid, TxBody body);

  /// Outcome of one read-only fast-path attempt (the snapshot engine never
  /// throws to the caller; demotion/abort is folded into the result).
  enum class RoAttemptOutcome { kCommitted, kAborted, kDemoted, kUserAborted };

  /// Exposed for scripted counterexample tests: run exactly one read-only
  /// snapshot attempt.
  RoAttemptOutcome attempt_ro_sw_once(int tid, TxBody body);

 protected:
  /// The unified retry loop (runtime/retry_policy.hpp) with this TM's
  /// hardware/software attempts plugged in, preceded by the read-only
  /// fast path when the caller hinted TxMode::kReadOnly.
  bool run_checked(int tid, TxMode mode, TxBody body) override;

 private:
  friend class NvHaltSwTx;
  friend class NvHaltHwTx;
  friend class NvHaltRoSwTx;

  struct ThreadCtx;

  using AttemptResult = runtime::AttemptStatus;
  AttemptResult attempt_hw(int tid, TxBody body);
  AttemptResult attempt_sw(int tid, TxBody body);

  /// Read-only fast path (core/ro_path.cpp). attempt_ro_sw is one
  /// TL2-style snapshot attempt (zero lock acquisitions, zero journal
  /// traffic, no hardware transaction). run_ro makes a fixed number of
  /// them and reports kDemoted when all are exhausted (or the body turned
  /// out to write).
  RoAttemptOutcome attempt_ro_sw(int tid, TxBody body);
  RoAttemptOutcome run_ro(int tid, TxBody body);

  NvHaltConfig cfg_;
  /// NV-HALT-SP (Fig. 7) rather than the weak-progressive protocol.
  const bool strong_;
  /// Whether TxMode::kReadOnly reaches the snapshot engine. Its validation
  /// leans on the production locking discipline (hardware writers acquire,
  /// and hold through persistence, the locks the snapshot engine validates
  /// against), and validate_every_read exists to measure the general
  /// software path, so the ablation and counterexample configurations
  /// send every transaction down the general loop.
  const bool ro_routing_;
  PmemPool& pool_;
  htm::SimHtm& htm_;
  TxAllocator& alloc_;
  LockSpace locks_;

  /// Global software clock (NV-HALT-SP only). Accessed through the HTM
  /// simulator so hardware transactions could in principle subscribe to it
  /// (they never do: avoiding that bottleneck is the point of hVer).
  CacheLinePadded<std::atomic<std::uint64_t>> gclock_;

  /// Global commit sequence (htm::kCommitSeqLoc): bumped by every writer —
  /// software commits and lock-publishing hardware commits — before its
  /// locks are released. Software reads snapshot it to make common-case
  /// read validation O(1) (docs/PROTOCOLS.md). Volatile: reset on recovery.
  CacheLinePadded<std::atomic<std::uint64_t>> commit_seq_;

  runtime::PerThread<ThreadCtx> ctx_;

  /// Undo records, pVerNum markers and (when cfg_.checkpoint) the
  /// checkpoint region; constructed after the allocator's metadata.
  UndoRecords undo_;
};

}  // namespace nvhalt
