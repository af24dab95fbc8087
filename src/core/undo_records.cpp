#include "core/undo_records.hpp"

#include <algorithm>
#include <atomic>
#include <shared_mutex>
#include <vector>

#include "alloc/tx_allocator.hpp"
#include "htm/sim_htm.hpp"
#include "pmem/checkpoint.hpp"
#include "pmem/pmem_pool.hpp"
#include "runtime/per_thread.hpp"
#include "runtime/recovery_pool.hpp"

namespace nvhalt {

namespace {

/// Reverts every in-flight record among words [lo, hi) of record lines —
/// pver at or above its owner's durable marker — persisting each revert on
/// `tid`'s queue (idempotent, so a crash mid-recovery just means recovery
/// runs again), and stores the (possibly reverted) value into the volatile
/// image. `skip_nth` >= 0 leaves that in-flight record torn, counting in
/// `seen`. Returns the number of reverts.
std::uint64_t revert_words(PmemPool& pool, const std::uint64_t* durable_pver, int tid,
                           gaddr_t lo, gaddr_t hi, int skip_nth, int& seen) {
  // Word 0 is never handed out; an odd capacity leaves the last line half
  // used.
  hi = std::min<gaddr_t>(hi, pool.capacity_words());
  std::uint64_t n = 0;
  for (gaddr_t a = std::max<gaddr_t>(lo, 1); a < hi; ++a) {
    PRecord r = pool.read_record(a);
    if (record_in_flight(r, durable_pver) && (skip_nth < 0 || seen++ != skip_nth)) {
      pool.revert_record(tid, a);
      pool.flush_record(tid, a);
      r.cur = r.old;
      ++n;
    }
    pool.store(a, r.cur);
  }
  return n;
}

/// The revert pass and the volatile image rebuild over the whole pool.
/// Candidates: only durably dirty lines can hold an in-flight record while
/// the checkpoint region is valid; otherwise (no region, or the crash
/// predates its initialization fence) every record line.
UndoRecoveryReport revert_records(PmemPool& pool, CheckpointManager* ckpt,
                                  const std::uint64_t* durable_pver, int rtid, int workers,
                                  int skip_nth) {
  UndoRecoveryReport rep;
  rep.bounded = ckpt != nullptr && ckpt->durable_valid();
  std::vector<std::size_t> dirty;
  if (rep.bounded) {
    for (std::size_t line = 0; line < pool.record_lines(); ++line)
      if (ckpt->durable_dirty(line)) dirty.push_back(line);
  }
  rep.lines_scanned = rep.bounded ? dirty.size() : pool.record_lines();

  // One pass over the candidate lines: two words per dirty line, or every
  // line as one run of words. The fault hook counts reverts in address
  // order, which only a single worker defines.
  int seen = 0;
  std::atomic<std::uint64_t> reverts{0};
  rep.workers_used = runtime::run_recovery_partitions(
      rep.lines_scanned, skip_nth >= 0 ? 1 : workers, rtid,
      [&](int tid, std::size_t lo, std::size_t hi) {
        std::uint64_t n = 0;
        if (rep.bounded) {
          for (std::size_t i = lo; i < hi; ++i)
            n += revert_words(pool, durable_pver, tid, dirty[i] * 2, dirty[i] * 2 + 2, skip_nth,
                              seen);
        } else {
          n = revert_words(pool, durable_pver, tid, lo * 2, hi * 2, skip_nth, seen);
        }
        pool.fence(tid);
        reverts.fetch_add(n, std::memory_order_relaxed);
      });
  rep.reverts = reverts.load(std::memory_order_relaxed);

  // Clean lines still need their volatile image rebuilt — but their
  // records are durably committed, so no predicate and no persistence.
  if (rep.bounded) {
    runtime::run_recovery_partitions(
        pool.capacity_words() - 1, workers, rtid,
        [&](int /*tid*/, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            const gaddr_t a = static_cast<gaddr_t>(1 + i);
            if (ckpt->durable_dirty(static_cast<std::size_t>(a) / 2)) continue;
            pool.store(a, pool.read_record(a).cur);
          }
        });
  }
  return rep;
}

}  // namespace

UndoRecords::UndoRecords(PmemPool& pool, TxAllocator& alloc, bool checkpoint)
    : pool_(pool), alloc_(alloc) {
  if (checkpoint) ckpt_ = std::make_unique<CheckpointManager>(pool_, &alloc_);
}

UndoRecords::~UndoRecords() = default;

void UndoRecords::commit(int tid, runtime::TxThreadState& ts, std::span<const Entry> writes,
                         htm::SimHtm* publish) {
  ts.stats.write_set_size.record(writes.size());
  // Checkpointing: hold the persist-phase guard across the whole phase
  // (checkpoints drain these, so a checkpoint's intent quiesce cannot race
  // the arm below, even in an allocator-only commit), and durably publish
  // the dirty bit of every record line this write set touches BEFORE any
  // record store is staged — the write-barrier invariant bounded recovery
  // rests on. Lines already durably marked this generation cost nothing
  // (shadow bitmap).
  std::shared_lock<std::shared_mutex> persist_phase;
  if (ckpt_) {
    persist_phase = ckpt_->persist_phase();
    bool need_fence = false;
    for (const Entry& e : writes) need_fence |= ckpt_->mark(tid, e.addr);
    if (need_fence) {
      pool_.fence(tid);
      ckpt_->commit_marks(tid);
    }
  }
  // Allocator intent record: armed under this transaction's pre-bump
  // pVerNum and flushed with the write set, so it is durable before the
  // marker can be. Recovery replays it iff pver crossed the arm id.
  alloc_.persist_arm(tid, ts.pver);
  // Structure updates write runs of words within a node's cache lines, so
  // consecutive entries usually share a conflict-table stripe: the cached
  // claim turns the per-word claim/abort-scan/release round into one round
  // per run (see SimHtm::nontx_store_cached for why holding the tag across
  // the run is equivalent). The claim is released before the fence so
  // readers never wait out persistence latency: the record stores only
  // owe theirs, and the fence pays it.
  htm::SimHtm::NontxClaim claim;
  const std::uint64_t pver = pack_pver(tid, ts.pver);
  for (const Entry& e : writes) {
    pool_.record_write(tid, e.addr, e.old, e.val, pver);
    pool_.flush_record(tid, e.addr);
    if (publish != nullptr)
      publish->nontx_store_cached(tid, htm::loc_pool(e.addr), pool_.word_ptr(e.addr), e.val,
                                  claim);
    else
      pool_.word_ptr(e.addr)->store(e.val, std::memory_order_seq_cst);
  }
  if (publish != nullptr) publish->nontx_claim_release(claim);
  pool_.fence(tid);
  ++ts.pver;
  pool_.store_pver(tid, ts.pver);
  pool_.flush_pver(tid);
  // Allocation-bitmap apply rides the marker's fence: apply-durable
  // implies marker-durable (enqueue order), and recovery re-normalizes
  // the still-armed record idempotently either way.
  alloc_.persist_apply(tid);
  pool_.fence(tid);
}

bool UndoRecords::checkpoint(int tid) {
  if (!ckpt_) return false;
  ckpt_->checkpoint(tid);
  return true;
}

UndoRecoveryReport UndoRecords::recover(int rtid, int workers, int skip_nth_revert) {
  // Durable per-thread markers (staged == durable after PmemPool::crash()).
  std::uint64_t durable_pver[kMaxThreads];
  for (int t = 0; t < kMaxThreads; ++t) durable_pver[t] = pool_.load_pver(t);

  const UndoRecoveryReport rep =
      revert_records(pool_, ckpt_.get(), durable_pver, rtid, workers, skip_nth_revert);

  // Allocator state is reconstructed from the pool's own persistent
  // metadata: armed intent records are normalized (applied iff the owning
  // transaction's pre-bump pVerNum crossed the durable marker — the same
  // committed-ness predicate as the revert pass), then the bitmaps and
  // segment headers rebuild the volatile free lists. Crash-orphaned blocks
  // (allocated, never committed) are swept here.
  alloc_.recover_metadata(
      rtid, [&](int t, std::uint64_t seq) { return seq < durable_pver[t]; }, workers);

  // Retire the recovered delta as a fresh checkpoint generation so the
  // next crash starts from an empty dirty set (adopts the durable
  // generation, or reseeds a region the crash predated).
  if (ckpt_) ckpt_->recover(rtid);
  return rep;
}

}  // namespace nvhalt
