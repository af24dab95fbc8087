// NV-HALT recovery (paper Sec. 3.5): traverse persistent memory and revert
// any address whose record carries a persistent version number at or above
// the owning thread's durable pVerNum — those belong to transactions whose
// persistence did not durably complete before the crash (their locks were
// still held, so no one can have observed their values). The volatile user
// image is then rebuilt from the records, volatile TM metadata (locks,
// conflict table, clock) is reset, and the allocator state is reconstructed
// from the user-supplied live-block iterator (Sec. 4).
//
// The scan itself lives in core/record_recovery.cpp (shared with Trinity):
// bounded by the checkpoint's dirty-line bitmap when cfg.checkpoint is on,
// and partitioned across cfg.recovery_threads workers either way.
#include "core/nvhalt_internal.hpp"
#include "core/record_recovery.hpp"
#include "pmem/checkpoint.hpp"
#include "telemetry/flight_recorder.hpp"

namespace nvhalt {

void NvHaltTm::recover_data() {
  const int rtid = 0;  // serial tid; workers take the dedicated top range

  // Flight-recorder postmortem first, before any recovery write can touch
  // raw space: a read-only decode of the durable rings (torn tails are
  // counted and skipped — decode never throws, so recovery cannot fail on
  // recorder corruption).
  if (frec_)
    last_postmortem_ =
        std::make_unique<telemetry::PostmortemReport>(frec_->postmortem());

  // Durable per-thread persistent version numbers (staged == durable after
  // PmemPool::crash()).
  std::uint64_t durable_pver[kMaxThreads];
  for (int t = 0; t < kMaxThreads; ++t) durable_pver[t] = pool_.load_pver(t);

  RecordRecoveryOptions ropt;
  ropt.rtid = rtid;
  ropt.workers = cfg_.recovery_threads;
  ropt.skip_nth_revert = cfg_.recovery_skip_nth_revert;
  ropt.ckpt = ckpt_.get();
  recover_records(pool_, durable_pver, ropt);

  // Volatile synchronization metadata did not survive; start clean. This
  // is safe precisely because recovery reverted every address whose lock
  // could have been held at the crash.
  locks_.reset();
  htm_.reset();
  gclock_.value.store(0, std::memory_order_relaxed);
  commit_seq_.value.store(0, std::memory_order_relaxed);

  ctx_.for_each([](ThreadCtx& c) {
    c.pver_loaded = false;
    c.rdset.clear();
    c.wrset.clear();
    c.hw_undo.clear();
    c.hw_locks.clear();
    c.acquired.clear();
  });

  // Allocator state is reconstructed from the pool's own persistent
  // metadata: armed intent records are normalized (applied iff the owning
  // transaction's pre-bump pVerNum crossed the durable marker — the same
  // committed-ness predicate the data pass used above), then the bitmaps
  // and segment headers rebuild the volatile free lists. Crash-orphaned
  // blocks (allocated, never committed) are swept here. No structure
  // traversal is required; rebuild_allocator() below is an optional
  // cross-check.
  alloc_.recover_metadata(
      rtid, [&](int t, std::uint64_t seq) { return seq < durable_pver[t]; },
      cfg_.recovery_threads);

  // Retire the recovered delta as a fresh checkpoint generation so the
  // next crash starts from an empty dirty set (adopts the durable
  // generation, or reseeds a region the crash predated).
  if (ckpt_) ckpt_->recover(rtid);

  // Reseed the recorder cursors past the decoded history and stamp a
  // durable kRecovery record — the first record of the new epoch.
  if (frec_) frec_->on_recover(rtid);
}

void NvHaltTm::rebuild_allocator(std::span<const LiveBlock> live) {
  if (alloc_.tm_managed()) {
    // Metadata already rebuilt the allocator in recover_data(); the live
    // set now serves as a reachability cross-check and leak sweep.
    alloc_.verify_rebuild(live);
    return;
  }
  alloc_.rebuild(live);
}

}  // namespace nvhalt
