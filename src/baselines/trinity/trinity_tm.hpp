// Trinity baseline (paper Sec. 2.1.2): the state-of-the-art persistent STM
// the paper compares against — TL2 concurrency control combined with
// Trinity's colocated undo-record persistence ("TrinityVR-TL2").
//
// TL2 (Dice/Shalev/Shavit): a global version clock; each transaction reads
// it at start (rv). Reads are valid when the protecting versioned lock is
// unlocked with version <= rv, sandwiching the value read. Writes are
// buffered; at commit the write-set locks are acquired in a fixed order
// (which is what gives TL2 strong progressiveness), the clock is advanced
// (wv), the read set is validated unless wv == rv + 1, the writes are
// performed, and the locks are released with version wv.
//
// Persistence: identical Trinity record mechanism as NV-HALT's software
// path — per-word {cur, old, pver} records flushed while the write-set
// locks are held, then the thread's persistent version number is advanced
// and persisted. (The original Trinity uses a global sequence number
// coupled with its flat-combining/TL2 integration; the per-thread version
// scheme is the generalization the paper itself adopts for NV-HALT and is
// what makes concurrent disjoint writers durably recoverable. Documented
// in DESIGN.md.)
//
// Trinity is a pure STM: no hardware path, so its memory accesses use
// plain atomics rather than the HTM simulator.
#pragma once

#include <atomic>
#include <memory>

#include "api/tm.hpp"
#include "locks/lock_table.hpp"
#include "runtime/tm_runtime.hpp"
#include "telemetry/flight_recorder.hpp"
#include "util/common.hpp"

namespace nvhalt {

class CheckpointManager;

struct TrinityConfig {
  std::size_t lock_table_entries = std::size_t{1} << 16;

  /// Checkpoint/compaction (DESIGN.md Sec. 13): same dirty-line bitmap +
  /// generation watermark as NV-HALT (the persistence mechanism is
  /// identical). Off by default; the raw region is allocated only when
  /// enabled so the pool layout stays byte-identical otherwise.
  bool checkpoint = false;

  /// Recovery worker pool size; any count recovers a byte-identical image.
  int recovery_threads = 1;

  /// Persistent flight recorder (telemetry/flight_recorder.hpp). Same
  /// conditional-reservation discipline as `checkpoint`: the recorder raw
  /// region exists only when enabled, records are written only at
  /// NVHALT_TELEMETRY >= 1.
  bool flight_recorder = false;
};

class TrinityTm final : public runtime::TmRuntime {
 public:
  TrinityTm(const TrinityConfig& cfg, PmemPool& pool, TxAllocator& alloc);
  ~TrinityTm() override;

  void recover_data() override;
  void rebuild_allocator(std::span<const LiveBlock> live) override;
  bool checkpoint(int tid) override;

  /// Checkpoint subsystem, or null when cfg.checkpoint is off (tests).
  CheckpointManager* checkpoint_manager() { return ckpt_.get(); }

  PmemPool& pool() override { return pool_; }
  TxAllocator& allocator() override { return alloc_; }
  const char* name() const override { return "Trinity"; }
  TmStats stats() const override;
  void reset_stats() override;
  telemetry::TmTelemetry telemetry() const override;
  const ContentionTable* contention() const override { return &locks_.contention(); }
  const telemetry::PostmortemReport* last_postmortem() const override {
    return last_postmortem_.get();
  }

  /// Flight recorder, or null when cfg.flight_recorder is off.
  telemetry::FlightRecorder* flight_recorder() { return frec_.get(); }

  std::uint64_t gv() const { return gv_.value.load(std::memory_order_acquire); }

 protected:
  /// Software-only instantiation of the unified retry loop (htm_attempts
  /// is pinned to 0: Trinity has no hardware path).
  bool run_registered(int tid, TxMode mode, TxBody body) override;

 private:
  friend class TrinityTx;
  struct ThreadCtx;

  using AttemptResult = runtime::AttemptStatus;
  AttemptResult attempt(int tid, TxBody body);

  TrinityConfig cfg_;
  PmemPool& pool_;
  TxAllocator& alloc_;
  LockSpace locks_;
  std::unique_ptr<CheckpointManager> ckpt_;  // only when cfg_.checkpoint
  std::unique_ptr<telemetry::FlightRecorder> frec_;  // only when cfg_.flight_recorder
  std::unique_ptr<telemetry::PostmortemReport> last_postmortem_;
  CacheLinePadded<std::atomic<std::uint64_t>> gv_;  // TL2 global version clock
  runtime::PerThread<ThreadCtx> ctx_;
};

}  // namespace nvhalt
