// SPHT log replay and recovery.
//
// The persistent logs are redo logs: the NVM heap image lags and must be
// brought up to date by replaying records in timestamp order (only up to
// the persistent marker). Replay is last-writer-wins per address, applied
// over disjoint address partitions by the shared recovery worker pool
// (runtime::run_recovery_partitions) — the paper reports this phase
// scales poorly and uses 16 threads. One body serves a full log, a
// checkpoint and recovery.
#include <algorithm>
#include <chrono>
#include <thread>
#include <unordered_map>
#include <vector>

#include "baselines/spht/spht_tm.hpp"
#include "runtime/recovery_pool.hpp"

namespace nvhalt {

namespace {
/// Must match the global-lock LocId in spht_tm.cpp.
constexpr htm::LocId kGlLoc = htm::make_loc(htm::LocKind::kGlobal, 0x3001);
}  // namespace

namespace {
/// Reduces collected records to the final value per address (records must
/// be applied in timestamp order; sorting makes last-write-wins exact).
std::vector<std::pair<gaddr_t, word_t>> reduce_records(std::vector<SphtLog::TxnRec>& recs) {
  std::sort(recs.begin(), recs.end(),
            [](const SphtLog::TxnRec& a, const SphtLog::TxnRec& b) { return a.ts < b.ts; });
  std::unordered_map<gaddr_t, word_t> last;
  for (const auto& r : recs) {
    for (const auto& [a, v] : r.writes) last[a] = v;
  }
  std::vector<std::pair<gaddr_t, word_t>> out(last.begin(), last.end());
  std::sort(out.begin(), out.end());
  return out;
}
}  // namespace

void SphtTm::replay_impl(int caller_tid, bool durable_prefix_only) {
  std::vector<SphtLog::TxnRec> recs;
  // Checkpoint replays take every logged record, even above the volatile
  // marker: such a record belongs to a committed transaction whose owner
  // is still between publishing its log (which is all the full-log quiesce
  // waits for) and advancing the marker, and truncation would drop its
  // only durable copy. No commit that orders before a logged record is
  // still unlogged: a hardware commit takes its timestamp only once its
  // record fits, and a software commit holds the global lock. Recovery
  // replays are the opposite: the durable marker defines the
  // durably-committed prefix, and records beyond it must not surface.
  const std::uint64_t max_ts = durable_prefix_only
                                   ? gpm_volatile_.value.load(std::memory_order_acquire)
                                   : ~std::uint64_t{0};
  log_.collect(max_ts, recs);
  // Records at or below the heap watermark are already in the heap image.
  // A truncation torn by a crash can leave some of them behind; replaying
  // those over the newer heap values would roll addresses back.
  const std::uint64_t heap_ts = pool_.raw_load(heap_watermark_idx());
  std::erase_if(recs, [heap_ts](const SphtLog::TxnRec& r) { return r.ts <= heap_ts; });
  std::uint64_t applied_ts = 0;
  for (const auto& r : recs) applied_ts = std::max(applied_ts, r.ts);
  const auto final_writes = reduce_records(recs);

  if (!durable_prefix_only && applied_ts != 0) {
    // The durable marker must cover every record before the heap holds
    // any of them: recovery replays only records up to the marker, and
    // replaying older records over a heap that already holds newer ones
    // tears the newer transactions. Each collected record is durable in
    // its log, so a crash anywhere below replays them all again. Once the
    // logs are truncated the marker also seeds the timestamp source, which
    // keeps timestamps monotonic across a crash.
    std::uint64_t cur = gpm_volatile_.value.load(std::memory_order_acquire);
    while (cur < applied_ts && !gpm_volatile_.value.compare_exchange_weak(
                                   cur, applied_ts, std::memory_order_acq_rel)) {
    }
    std::lock_guard<std::mutex> lk(gpm_mu_);
    const std::uint64_t m = gpm_volatile_.value.load(std::memory_order_acquire);
    if (gpm_durable_.value.load(std::memory_order_acquire) < m) {
      pool_.raw_store(caller_tid, gpm_raw_idx_, m);
      pool_.flush_raw(caller_tid, gpm_raw_idx_);
      pool_.fence(caller_tid);
      gpm_durable_.value.store(m, std::memory_order_release);
    }
  }

  // Threads quiesced by the full-log path can still be flushing the marker
  // line from persist_marker_until with their own pool tid, so replay
  // workers must not share live threads' flush queues: several workers
  // take dedicated tids from the top of the pool's range, capped at the
  // tids no SPHT thread owns. One worker (or none spare) runs inline on
  // the caller's tid.
  const int spare = kMaxThreads - cfg_.max_threads;
  runtime::run_recovery_partitions(
      final_writes.size(), std::min(cfg_.replay_threads, spare), caller_tid,
      [&](int tid, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const auto [a, v] = final_writes[i];
          // The NVM heap image lives in the records' `cur` field; replay
          // writes it and persists the line. `old`/`pver` are unused by
          // SPHT (they are Trinity machinery) — the pver stamp is a fixed
          // 0 so the replayed image is byte-identical for any worker count
          // (the partitioning decides which worker writes a record).
          PRecord r = pool_.read_record(a);
          pool_.record_write(tid, a, r.old, v, /*pver=*/0);
          pool_.flush_record(tid, a);
        }
        pool_.fence(tid);
      });

  // The heap image now holds every record up to `heap_upto`: all collected
  // records for a checkpoint, everything up to the durable marker for a
  // recovery. Publish that before truncating, so a crash that tears the
  // truncation never replays a leftover record over the heap (see the
  // filter above). The word sits after the marker on the marker's line,
  // and the marker already covers heap_upto. No record at or below it can
  // be logged later (see max_ts above).
  const std::uint64_t heap_upto = durable_prefix_only ? max_ts : applied_ts;
  if (heap_upto > heap_ts) {
    pool_.raw_store(caller_tid, heap_watermark_idx(), heap_upto);
    pool_.flush_raw(caller_tid, heap_watermark_idx());
    pool_.fence(caller_tid);
  }

  // Truncate every log. After a checkpoint every record sits below the
  // watermark. After a recovery, records beyond the durable marker belong
  // to transactions that never committed, and new commits restart their
  // timestamps at the marker, so a later replay would otherwise apply
  // those stale records as if they had.
  log_.truncate(caller_tid);
}

void SphtTm::replay_full_logs(int tid) {
  // A thread hit a full log, or checkpoints. Quiesce writers by taking the
  // global lock (new hardware transactions abort on subscription), wait
  // for in-flight persist phases to finish, then replay and truncate.
  std::uint64_t expected = 0;
  const std::uint64_t me = static_cast<std::uint64_t>(tid) + 1;
  const bool already_held = htm_.nontx_load(tid, kGlLoc, &global_lock_.value) == me;
  if (!already_held) {
    while (!htm_.nontx_cas(tid, kGlLoc, &global_lock_.value, expected, me)) {
      expected = 0;
      std::this_thread::yield();
    }
  }
  const auto gl_acquired_at = std::chrono::steady_clock::now();
  for (int t = 0; t < cfg_.max_threads; ++t) {
    if (t == tid) continue;
    while (!((ts_pub_[t].value.load(std::memory_order_seq_cst) & 1) != 0))
      std::this_thread::yield();
  }
  replay_impl(tid, /*durable_prefix_only=*/false);
  if (!already_held) {
    gl_held_ns_.value.fetch_add(
        static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - gl_acquired_at)
                                       .count()),
        std::memory_order_relaxed);
    htm_.nontx_store(tid, kGlLoc, &global_lock_.value, 0);
  }
}

bool SphtTm::checkpoint(int tid) {
  check_tid(tid);
  if (!cfg_.persist_txns) return false;
  // SPHT's native compaction IS a full-log replay: every logged write is
  // folded into the NVM heap image, the durable marker advances over the
  // replayed timestamps, and the logs are truncated — after which recovery
  // replays only the delta logged since. The full-log path quiesces
  // writers via the global fallback lock and drains persist phases.
  replay_full_logs(tid);
  // Durably bump the generation counter (observability: tests and the
  // crash sweep assert checkpoints really retired log history).
  pool_.raw_store(tid, ckpt_gen_raw_idx_, pool_.raw_load(ckpt_gen_raw_idx_) + 1);
  pool_.flush_raw(tid, ckpt_gen_raw_idx_);
  pool_.fence(tid);
  return true;
}

void SphtTm::recover_data() {
  // Post-crash: the staged view equals the durable one. Bring the NVM heap
  // image up to the durable marker, then rebuild the volatile image.
  gpm_volatile_.value.store(pool_.raw_load(gpm_raw_idx_), std::memory_order_relaxed);
  gpm_durable_.value.store(gpm_volatile_.value.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
  replay_impl(/*caller_tid=*/0, /*durable_prefix_only=*/true);

  // Volatile image rebuild over the carved heap, words [1, carved end):
  // replay writes only allocated words, and lose_power() zeroed the rest.
  // Pure per-word loads/stores, partitioned across the replay workers
  // (byte-identical for any worker count).
  runtime::run_recovery_partitions(
      alloc_iface_.carved_end() - 1, cfg_.replay_threads, /*serial_tid=*/0,
      [&](int /*tid*/, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          const gaddr_t a = static_cast<gaddr_t>(1 + i);
          pool_.store(a, pool_.read_record(a).cur);
        }
      });

  htm_.reset();
  global_lock_.value.store(0, std::memory_order_relaxed);
  // Timestamps must stay monotonic across the crash so new transactions
  // order after every replayed one.
  ts_source_.value.store(gpm_durable_.value.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  for (int t = 0; t < cfg_.max_threads; ++t)
    ts_pub_[t].value.store(1 /*pub_pack(0, true)*/, std::memory_order_relaxed);

  // Rebuild the carver from the pool's persistent metadata (durable
  // segment watermark + large-extent headers). SPHT commits never arm
  // allocator intents — chunks are carved eagerly-durable and nothing is
  // ever freed — so the committed-ness predicate is vacuous.
  alloc_iface_.recover_metadata(0, [](int, std::uint64_t) { return false; });
  for (int t = 0; t < cfg_.max_threads; ++t) bump_[t] = BumpState{};
}

void SphtTm::rebuild_allocator(std::span<const LiveBlock> live) {
  // recover_data() already rebuilt the carver; the live set is a
  // cross-check only. Blocks leaked by aborted transactions stay
  // unreachable — the artificially cheap allocator the paper calls out
  // has no free path to sweep them into.
  const gaddr_t wm_end = alloc_iface_.carved_end();
  for (const LiveBlock& b : live) {
    if (b.addr < alloc_iface_.heap_begin() || b.addr + b.nwords > wm_end)
      throw TmLogicError("SPHT live block outside the durably carved heap");
  }
  for (int t = 0; t < cfg_.max_threads; ++t) bump_[t] = BumpState{};
}

}  // namespace nvhalt
