// SPHT baseline (paper Sec. 2.1.4): Scalable Persistent Hardware
// Transactions (Castro et al., FAST'21), the state-of-the-art persistent
// HyTM the paper compares against.
//
// Design points reproduced here:
//  * The hardware path performs *uninstrumented* data reads and writes —
//    no per-address metadata — but every hardware transaction subscribes
//    to a single global fallback lock and aborts if it is (or becomes)
//    held.
//  * Writes are logged inside the transaction into a thread-private redo
//    buffer; after xend the buffer is appended to the thread's persistent
//    log (flush + fence).
//  * Commit timestamps come from a synchronized clock (rdtscp on real
//    hardware; a shared non-conflicting counter here). After persisting
//    its log, a thread blocks until every transaction with a smaller
//    timestamp is persisted, then advances the global persistent marker
//    and waits for the marker to be durably >= its own timestamp. This is
//    the ordering negotiation that lets transactions block each other even
//    when their data is disjoint — the overhead NV-HALT avoids.
//  * The software fallback immediately takes the global lock, disabling
//    all concurrency.
//  * Logs are bounded and must be replayed into the NVM heap image. One
//    routine does it for a full log, a checkpoint and the benchmark's
//    replay after the measured phase (the paper's setup); recovery runs
//    the same body up to the durable marker. Its writes go through the
//    shared recovery worker pool (16 replay threads by default, following
//    the paper's configuration).
//  * Memory allocation is a per-thread bump pointer with no freeing — the
//    paper calls this out as artificially cheap but load-bearing for
//    SPHT's log replay, so it is reproduced faithfully.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>

#include "api/tm.hpp"
#include "baselines/spht/spht_log.hpp"
#include "htm/sim_htm.hpp"
#include "locks/contention.hpp"
#include "runtime/tm_runtime.hpp"
#include "util/common.hpp"

namespace nvhalt {

struct SphtConfig {
  /// Hardware attempts before falling back to the global lock.
  int htm_attempts = 10;
  /// Persistent log words per thread.
  std::size_t log_words_per_thread = std::size_t{1} << 16;
  /// Thread ids that may run transactions: run() and checkpoint() accept
  /// tids in [0, max_threads), which also sizes the log array and every
  /// per-thread structure. Clamped to [1, kMaxThreads].
  int max_threads = kMaxThreads;
  /// Threads used by log replay and recovery; the paper uses 16.
  int replay_threads = 16;
  /// Ablation class 3 (NO-PERSISTENT-HTXN): disable logging, timestamp
  /// ordering and marker persistence — volatile-only transactions.
  bool persist_txns = true;
};

class SphtTm final : public runtime::TmRuntime {
 public:
  SphtTm(const SphtConfig& cfg, PmemPool& pool, htm::SimHtm& htm, TxAllocator& alloc_iface);
  ~SphtTm() override;

  /// Containment check instead of verify_rebuild: SPHT bump blocks are
  /// sub-chunk carvings inside durably recorded large extents, not
  /// size-class slots, so every live block must lie below the durable
  /// segment watermark.
  void rebuild_allocator(std::span<const LiveBlock> live) override;

  /// SPHT's native compaction (DESIGN.md Sec. 13): replays every logged
  /// record into the NVM heap image, durably advances the marker over
  /// them, truncates the logs and durably bumps the generation word. After
  /// it, recovery replays only the delta logged since. Callable from any
  /// thread, under its own tid in [0, max_threads), between its
  /// transactions, or at full quiescence (the benchmark's post-phase
  /// replay). Returns false when transactions are not persisted.
  bool checkpoint(int tid) override;
  /// Durable checkpoint generation (0 until the first checkpoint).
  std::uint64_t checkpoint_generation() const { return pool_.raw_load(ckpt_gen_raw_idx_); }

  /// Replays the durable log prefix into the heap image, rebuilds the
  /// volatile image and the carver, and resets the volatile ordering state.
  void recover_data() override;

  PmemPool& pool() override { return pool_; }
  /// Note: SPHT does not use this allocator (see header comment); the
  /// reference is kept for interface compatibility.
  TxAllocator& allocator() override { return alloc_iface_; }
  const char* name() const override { return "SPHT"; }
  TmStats stats() const override;
  void reset_stats() override;
  /// SPHT has exactly one lock — the global fallback lock — so its
  /// contention observatory is a single stripe (stripe 0).
  const ContentionTable* contention() const override { return &contention_; }

  std::uint64_t persistent_marker() const {
    return gpm_volatile_.value.load(std::memory_order_acquire);
  }
  std::uint64_t durable_marker() const {
    return gpm_durable_.value.load(std::memory_order_acquire);
  }

  /// Total wall time the global fallback lock was held, in nanoseconds.
  /// While it is held, *all* concurrency is disabled (hardware transactions
  /// subscribe to the lock and abort) — the serialization the paper's
  /// Sec. 5.3 measures ("upwards of half of the entire measurement
  /// period in the fallback path").
  std::uint64_t global_lock_held_ns() const {
    return gl_held_ns_.value.load(std::memory_order_relaxed);
  }
  void reset_global_lock_held_ns() { gl_held_ns_.value.store(0, std::memory_order_relaxed); }

 protected:
  /// Unified retry loop with SPHT's primitives: each hardware attempt is
  /// preceded by a wait for the global fallback lock to clear, failed
  /// attempts back off (SPHT's historical behaviour), and the software
  /// fallback runs under the global lock.
  bool run_checked(int tid, TxMode mode, TxBody body) override;

 private:
  friend class SphtHwTx;
  friend class SphtSwTx;
  // Test access (tests/baselines_test.cpp): holds a hardware commit between
  // taking its timestamp and logging its record.
  friend struct SphtTmTestPeer;
  struct ThreadCtx;

  using AttemptResult = runtime::AttemptStatus;
  AttemptResult attempt_hw(int tid, TxBody body);
  AttemptResult attempt_sw(int tid, TxBody body);

  /// The hardware commit's timestamp for a record of `nwrites` writes,
  /// taken inside the transaction — or 0 when the caller's log has no room
  /// for that record. Such a commit must not get a timestamp: logging it
  /// would need a replay, which waits for the global lock, while the
  /// timestamp reads not-persisted, and a checkpoint or full-log replay
  /// holding that lock waits for exactly that publication. The attempt
  /// aborts instead and replays from its abort handler.
  std::uint64_t take_commit_ts(int tid, std::size_t nwrites);

  /// Post-commit persistence of the write set `redo`: log append,
  /// timestamp ordering wait, marker advance (Sec. 2.1.4). Returns once
  /// the transaction is durable.
  void persist_committed(int tid, std::uint64_t ts_commit,
                         std::span<const std::pair<gaddr_t, word_t>> redo);

  /// Ensures the durable marker catches up to the volatile one; returns
  /// when durable >= ts.
  void persist_marker_until(int tid, std::uint64_t ts);

  /// Handles a full log (or a checkpoint): quiesce via the global lock,
  /// replay, truncate. The caller's own timestamp must read persisted
  /// unless it already holds the lock (the software path), whose pending
  /// commit orders after every logged record.
  void replay_full_logs(int tid);

  /// Shared replay body. `durable_prefix_only` selects recovery semantics
  /// (apply only records at or below the durable marker) over checkpoint
  /// semantics (apply every logged record, durably advancing the marker
  /// over them first). `caller_tid` is the invoking thread's pool tid,
  /// used for all serial flush/fence work and for a one-worker replay.
  void replay_impl(int caller_tid, bool durable_prefix_only);

  gaddr_t bump_alloc(int tid, std::size_t nwords);

  /// Refills the calling thread's bump chunk outside any hardware
  /// transaction (chunk acquisition takes a global mutex, which would
  /// abort — and on real hardware does abort — a hardware transaction).
  void refill_bump_chunk(int tid);

  SphtConfig cfg_;
  PmemPool& pool_;
  htm::SimHtm& htm_;
  TxAllocator& alloc_iface_;
  SphtLog log_;

  CacheLinePadded<std::atomic<std::uint64_t>> global_lock_;  // 0 free, tid+1 held
  CacheLinePadded<std::atomic<std::uint64_t>> ts_source_;    // rdtscp stand-in
  CacheLinePadded<std::atomic<std::uint64_t>> gpm_volatile_;
  CacheLinePadded<std::atomic<std::uint64_t>> gpm_durable_;
  CacheLinePadded<std::atomic<std::uint64_t>> gl_held_ns_;
  std::size_t gpm_raw_idx_;  // durable marker line: [marker][heap watermark]
  /// Raw index of the heap watermark: every log record with a timestamp at
  /// or below it is already applied in the NVM heap image. Every replay
  /// skips those records and raises the watermark before it truncates.
  std::size_t heap_watermark_idx() const { return gpm_raw_idx_ + 1; }
  std::size_t ckpt_gen_raw_idx_;  // durable checkpoint generation
  std::mutex gpm_mu_;
  ContentionTable contention_{1};  // one stripe: the global fallback lock

  /// Published (ts << 1 | persisted) per thread; see persist_committed.
  std::unique_ptr<CacheLinePadded<std::atomic<std::uint64_t>>[]> ts_pub_;

  /// Trivial bump allocator (chunked, no free). Chunks are whole segments
  /// carved from the shared pool carver so SPHT's heap never collides with
  /// blocks handed out by the TxAllocator (e.g. structure root arrays).
  struct alignas(kCacheLineBytes) BumpState {
    gaddr_t cur = kNullAddr;
    std::size_t left = 0;
  };
  std::unique_ptr<BumpState[]> bump_;

  runtime::PerThread<ThreadCtx> ctx_;
};

}  // namespace nvhalt
