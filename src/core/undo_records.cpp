#include "core/undo_records.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <shared_mutex>

#include "alloc/tx_allocator.hpp"
#include "htm/sim_htm.hpp"
#include "pmem/checkpoint.hpp"
#include "pmem/pmem_pool.hpp"
#include "runtime/per_thread.hpp"
#include "runtime/recovery_pool.hpp"

namespace nvhalt {

namespace {

/// Reverts every in-flight record among words [lo, hi) — pver at or above
/// its owner's durable marker — persisting each revert on `tid`'s queue
/// (idempotent, so a crash mid-recovery just means recovery runs again),
/// and stores the (possibly reverted) value into the volatile image.
/// `skip_nth` >= 0 leaves that in-flight record torn, counting in `seen`.
/// Returns the number of reverts.
std::uint64_t revert_words(PmemPool& pool, const std::uint64_t* durable_pver, int tid,
                           gaddr_t lo, gaddr_t hi, int skip_nth, int& seen) {
  // Word 0 is never handed out.
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

/// Rebuilds the volatile image of words [lo, hi) from their records'
/// durably committed values: no predicate, no persistence.
void rebuild_words(PmemPool& pool, gaddr_t lo, gaddr_t hi) {
  for (gaddr_t a = std::max<gaddr_t>(lo, 1); a < hi; ++a) pool.store(a, pool.read_record(a).cur);
}

/// The revert pass and the volatile image rebuild, in one pass over the
/// words below `end`, the allocator's carved end: no record at or past it
/// was ever written, and lose_power() has already zeroed the volatile
/// image there. With a durably valid checkpoint region only lines whose
/// durable dirty bit is set can hold an in-flight record, so the pass walks
/// the carved heap one bitmap word (64 lines) at a time: a clean line is
/// rebuilt from its records' cur, a dirty one goes through revert_words.
/// Without one (checkpointing off, or a crash that predates the region's
/// seeding fence) each partition is one contiguous revert_words run.
UndoRecoveryReport revert_records(PmemPool& pool, CheckpointManager* ckpt,
                                  const std::uint64_t* durable_pver, gaddr_t end, int rtid,
                                  int workers, int skip_nth) {
  UndoRecoveryReport rep;
  rep.bounded = ckpt != nullptr && ckpt->durable_valid();
  // The fault hook counts reverts in address order, which only a single
  // worker defines.
  if (skip_nth >= 0) workers = 1;
  int seen = 0;
  std::atomic<std::uint64_t> reverts{0};
  if (!rep.bounded) {
    rep.lines_scanned = (end + 1) / 2;
    rep.workers_used = runtime::run_recovery_partitions(
        rep.lines_scanned, workers, rtid, [&](int tid, std::size_t lo, std::size_t hi) {
          const std::uint64_t n = revert_words(pool, durable_pver, tid, lo * 2,
                                               std::min<gaddr_t>(hi * 2, end), skip_nth, seen);
          pool.fence(tid);
          reverts.fetch_add(n, std::memory_order_relaxed);
        });
  } else {
    constexpr gaddr_t kSpan = CheckpointManager::kWordsPerBitmapWord;
    std::atomic<std::uint64_t> dirty_lines{0};
    // The last bitmap word walked is the one covering the carved end; no
    // line past it is dirty, since no record there was ever written.
    rep.workers_used = runtime::run_recovery_partitions(
        (end + kSpan - 1) / kSpan, workers, rtid, [&](int tid, std::size_t lo, std::size_t hi) {
          std::uint64_t n = 0, lines = 0;
          for (std::size_t w = lo; w < hi; ++w) {
            const gaddr_t base = static_cast<gaddr_t>(w) * kSpan;
            const gaddr_t top = std::min<gaddr_t>(base + kSpan, end);
            gaddr_t next = base;  // first word not yet rebuilt or reverted
            for (std::uint64_t dirty = ckpt->durable_dirty_word(w); dirty != 0;
                 dirty &= dirty - 1) {
              // First word of the lowest dirty line left in this bitmap word.
              const gaddr_t a = base + 2 * static_cast<gaddr_t>(std::countr_zero(dirty));
              rebuild_words(pool, next, a);
              n += revert_words(pool, durable_pver, tid, a, a + 2, skip_nth, seen);
              next = a + 2;
              ++lines;
            }
            rebuild_words(pool, next, top);
          }
          pool.fence(tid);
          reverts.fetch_add(n, std::memory_order_relaxed);
          dirty_lines.fetch_add(lines, std::memory_order_relaxed);
        });
    rep.lines_scanned = dirty_lines.load(std::memory_order_relaxed);
  }
  rep.reverts = reverts.load(std::memory_order_relaxed);
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
  // (shadow bitmap); the rest cost one staged store and one flush per
  // bitmap word, and one fence for the write set.
  std::shared_lock<std::shared_mutex> persist_phase;
  if (ckpt_) {
    persist_phase = ckpt_->persist_phase();
    bool need_fence = false;
    for (const Entry& e : writes) need_fence |= ckpt_->mark(tid, e.addr);
    if (need_fence) {
      ckpt_->stage_marks(tid);
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

  const UndoRecoveryReport rep = revert_records(pool_, ckpt_.get(), durable_pver,
                                                alloc_.carved_end(), rtid, workers,
                                                skip_nth_revert);

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
