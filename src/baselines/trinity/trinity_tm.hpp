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
// Persistence: the undo-record engine NV-HALT uses (core/undo_records.hpp)
// — per-word {cur, old, pver} records flushed while the write-set locks
// are held, then the thread's persistent version number is advanced and
// persisted; the same code persists, checkpoints and recovers both TMs.
// (The original Trinity uses a global sequence number
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
#include "core/undo_records.hpp"
#include "locks/lock_table.hpp"
#include "runtime/tm_runtime.hpp"
#include "util/common.hpp"

namespace nvhalt {

struct TrinityConfig {
  std::size_t lock_table_entries = std::size_t{1} << 16;

  /// Checkpoint/compaction (DESIGN.md Sec. 13): the same dirty-line bitmap +
  /// generation watermark as NV-HALT (one engine persists both). Off by
  /// default; the raw region is allocated only when enabled so the pool
  /// layout stays byte-identical otherwise.
  bool checkpoint = false;

  /// Recovery worker pool size; any count recovers a byte-identical image.
  int recovery_threads = 1;
};

class TrinityTm final : public runtime::TmRuntime {
 public:
  TrinityTm(const TrinityConfig& cfg, PmemPool& pool, TxAllocator& alloc);
  ~TrinityTm() override;

  bool checkpoint(int tid) override;

  /// Undo-record recovery, then a reset of the TL2 clock and locks.
  void recover_data() override;

  /// The undo-record durability engine (persist, checkpoint, recovery).
  UndoRecords& undo_records() { return undo_; }
  /// Checkpoint subsystem, or null when cfg.checkpoint is off (tests).
  CheckpointManager* checkpoint_manager() { return undo_.checkpoint_manager(); }

  PmemPool& pool() override { return pool_; }
  TxAllocator& allocator() override { return alloc_; }
  const char* name() const override { return "Trinity"; }
  TmStats stats() const override;
  void reset_stats() override;
  const ContentionTable* contention() const override { return &locks_.contention(); }

  std::uint64_t gv() const { return gv_.value.load(std::memory_order_acquire); }

 protected:
  /// Software-only instantiation of the unified retry loop (htm_attempts
  /// is pinned to 0: Trinity has no hardware path).
  bool run_checked(int tid, TxMode mode, TxBody body) override;

 private:
  friend class TrinityTx;
  struct ThreadCtx;

  using AttemptResult = runtime::AttemptStatus;
  AttemptResult attempt(int tid, TxBody body);

  TrinityConfig cfg_;
  PmemPool& pool_;
  TxAllocator& alloc_;
  LockSpace locks_;
  CacheLinePadded<std::atomic<std::uint64_t>> gv_;  // TL2 global version clock
  runtime::PerThread<ThreadCtx> ctx_;
  UndoRecords undo_;
};

}  // namespace nvhalt
