// The undo-record durability engine NV-HALT and Trinity share (paper Sec.
// 2.1.2, 3.2, 3.5).
//
// Both TMs colocate the undo history with the data as per-word {cur, old,
// pver} records and persist a write set the same way while its locks are
// held: write each record, flush it, publish the new value, fence, then
// advance and persist the thread's persistent version number (pVerNum) —
// the durable commit marker. An address is therefore non-durable only
// while its lock is held, and recovery reverts exactly the records stamped
// at or above their owner's durable marker. Only the concurrency control
// differs between the two TMs; everything durable lives here, once:
//
//  * commit() is the whole persist phase, including the allocator's intent
//    arm/apply around the marker and the checkpoint write barrier;
//  * checkpoint() retires the accumulated revert obligations through the
//    CheckpointManager this engine owns when checkpointing is configured;
//  * recover() runs the record revert, the allocator metadata rebuild and
//    the checkpoint adoption, in that order, under one committed-ness
//    predicate.
//
// Recovery (DESIGN.md Sec. 13) is one pass over the carved heap, the
// words below TxAllocator::carved_end(): the allocator fences its segment
// watermark before it hands out any slot of a fresh segment, so no record
// past it was ever written. The pass rebuilds the volatile image from
// every carved record and applies the revert predicate. With a durably
// valid checkpoint region only record lines whose durable dirty bit is set
// can hold an in-flight record (the bit is fenced before any record store
// to the line is staged), so the pass goes one bitmap word (64 lines) at a
// time and sends only the dirty lines through the predicate; clean lines
// are copied from their records' cur. A checkpoint thus bounds the
// predicate, not the pass, which reads every carved record either way.
// Without a valid region each partition is one contiguous predicate run.
// The pass splits into contiguous partitions replayed by
// run_recovery_partitions workers; every write depends only on its own
// record, so the recovered image is byte-identical for any worker count
// (tests/recovery_parallel_test.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "util/common.hpp"

namespace nvhalt {

class CheckpointManager;
class PmemPool;
class TxAllocator;
namespace htm {
class SimHtm;
}
namespace runtime {
struct TxThreadState;
}

/// What one recover() revert pass did.
struct UndoRecoveryReport {
  bool bounded = false;             ///< dirty-bitmap-guided revert pass ran
  std::uint64_t lines_scanned = 0;  ///< carved record lines the revert predicate visited
  std::uint64_t reverts = 0;        ///< in-flight records reverted
  int workers_used = 1;
};

class UndoRecords {
 public:
  /// One write of a committing transaction: the word, its pre-transaction
  /// value (the undo half of the record) and the value being committed.
  struct Entry {
    gaddr_t addr;
    word_t old;
    word_t val;
  };

  /// `checkpoint` reserves and initializes the checkpoint raw region (the
  /// disabled default reserves nothing, keeping the pool layout unchanged).
  UndoRecords(PmemPool& pool, TxAllocator& alloc, bool checkpoint);
  ~UndoRecords();

  UndoRecords(const UndoRecords&) = delete;
  UndoRecords& operator=(const UndoRecords&) = delete;

  /// The persist phase of one transaction on `tid`, run while the write
  /// set's locks are held (the caller releases them afterwards):
  ///   1. under the checkpoint's persist-phase guard, durably publish the
  ///      dirty bit of every record line `writes` touches (one staged store
  ///      and flush per bitmap word not yet durable, one fence);
  ///   2. arm the allocator intent record under the pre-bump pVerNum;
  ///   3. per entry: record_write, flush_record, then publish the value
  ///      into the volatile image;
  ///   4. fence the write set;
  ///   5. advance `ts.pver`, store and flush the durable marker;
  ///   6. apply the allocator intents to the bitmaps, closing fence.
  /// An empty `writes` is the allocator-only commit (a transaction that
  /// allocated or freed but wrote nothing). `publish` is the HTM simulator
  /// whose conflict table must see the published values (NV-HALT: one
  /// cached claim per run of same-stripe stores), or null for plain
  /// seq_cst stores (Trinity, a pure STM).
  void commit(int tid, runtime::TxThreadState& ts, std::span<const Entry> writes,
              htm::SimHtm* publish);

  /// Runs one checkpoint on behalf of `tid`; false when checkpointing is
  /// not configured.
  bool checkpoint(int tid);

  /// Post-crash recovery on `rtid` (quiescent): reverts every carved
  /// record whose pver is at or above its owner's durable marker and
  /// rebuilds the volatile image of the carved heap, then normalizes the
  /// allocator metadata with the same committed-ness predicate, then
  /// adopts a fresh checkpoint generation.
  /// `skip_nth_revert` >= 0 is fault injection for the crash-enumeration
  /// mutation tests: that revert (in address order) is left torn, and the
  /// pass runs on one worker so the order is defined.
  UndoRecoveryReport recover(int rtid, int workers, int skip_nth_revert = -1);

  /// Checkpoint subsystem, or null when checkpointing is off.
  CheckpointManager* checkpoint_manager() { return ckpt_.get(); }

 private:
  PmemPool& pool_;
  TxAllocator& alloc_;
  std::unique_ptr<CheckpointManager> ckpt_;
};

}  // namespace nvhalt
