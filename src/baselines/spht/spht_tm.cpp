#include "baselines/spht/spht_tm.hpp"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "alloc/segment.hpp"
#include "htm/htm_tls.hpp"
#include "htm/small_map.hpp"
#include "pmem/crash_sim.hpp"
#include "runtime/per_thread.hpp"

namespace nvhalt {

namespace {
constexpr htm::LocId kGlLoc = htm::make_loc(htm::LocKind::kGlobal, 0x3001);
constexpr std::uint8_t kGlSubscribeAbortCode = 0x61;
constexpr std::uint8_t kLogFullAbortCode = 0x62;

inline std::uint64_t pub_pack(std::uint64_t ts, bool persisted) {
  return (ts << 1) | (persisted ? 1 : 0);
}
inline std::uint64_t pub_ts(std::uint64_t v) { return v >> 1; }
inline bool pub_persisted(std::uint64_t v) { return (v & 1) != 0; }

/// One bound for everything per-thread: the tid range, log array,
/// timestamp publication array, bump states, contexts, stats aggregation.
/// (The seed validated tids against cfg.max_threads but sized and iterated
/// some of these with kMaxThreads — they now all agree by construction.)
int clamped_threads(const SphtConfig& cfg) { return std::clamp(cfg.max_threads, 1, kMaxThreads); }

}  // namespace

/// Stats and RNG live in the shared runtime::TxThreadState base; this adds
/// SPHT's redo scratch.
struct alignas(kCacheLineBytes) SphtTm::ThreadCtx : runtime::TxThreadState {
  std::vector<std::pair<gaddr_t, word_t>> redo;  // write log (HW: in-txn; SW: buffered)
  htm::SmallIndexMap redo_index;                 // gaddr -> redo index (SW read-own-writes)
  std::uint64_t ts_commit = 0;
};

SphtTm::SphtTm(const SphtConfig& cfg, PmemPool& pool, htm::SimHtm& htm, TxAllocator& alloc_iface)
    // SPHT backs off between failed hardware attempts (NV-HALT's fixed
    // attempt burst does not).
    : runtime::TmRuntime(clamped_threads(cfg),
                         {.htm_attempts = cfg.htm_attempts, .backoff_between_hw = true}),
      cfg_(cfg),
      pool_(pool),
      htm_(htm),
      alloc_iface_(alloc_iface),
      log_(pool, clamped_threads(cfg), cfg.log_words_per_thread),
      ctx_(clamped_threads(cfg)) {
  cfg_.max_threads = clamped_threads(cfg);
  global_lock_.value.store(0, std::memory_order_relaxed);
  ts_source_.value.store(0, std::memory_order_relaxed);
  gpm_volatile_.value.store(0, std::memory_order_relaxed);
  gpm_durable_.value.store(0, std::memory_order_relaxed);
  gl_held_ns_.value.store(0, std::memory_order_relaxed);
  gpm_raw_idx_ = pool_.alloc_raw(kWordsPerLine);
  // The checkpoint generation word is SPHT's last raw allocation and stays
  // zero until the first checkpoint.
  ckpt_gen_raw_idx_ = pool_.alloc_raw(kWordsPerLine);

  ts_pub_ = std::make_unique<CacheLinePadded<std::atomic<std::uint64_t>>[]>(
      static_cast<std::size_t>(cfg_.max_threads));
  for (int t = 0; t < cfg_.max_threads; ++t)
    ts_pub_[t].value.store(pub_pack(0, true), std::memory_order_relaxed);

  bump_ = std::make_unique<BumpState[]>(static_cast<std::size_t>(cfg_.max_threads));
  for (int t = 0; t < ctx_.size(); ++t) {
    ctx_[t].rng.reseed(0x5B47 + static_cast<std::uint64_t>(t));
    // Pre-size the per-thread redo log so steady-state commits never
    // reallocate on the hot path.
    ctx_[t].redo.reserve(128);
  }
}

SphtTm::~SphtTm() = default;

void SphtTm::refill_bump_chunk(int tid) {
  // One whole segment of the pool carver per refill.
  BumpState& b = bump_[tid];
  b.cur = alloc_iface_.raw_alloc_large(tid, kSegmentWords);
  b.left = kSegmentWords;
}

gaddr_t SphtTm::bump_alloc(int tid, std::size_t nwords) {
  // The artificially cheap SPHT allocator: per-thread chunked bump pointer,
  // no free, no abort handling (aborted transactions leak their blocks).
  BumpState& b = bump_[tid];
  if (b.left < nwords) {
    // Chunk refill is global work; inside a hardware transaction it aborts
    // (the run loop refills outside the transaction and retries).
    if (htm::in_hw_txn()) throw htm::HtmAbort{htm::AbortCause::kExplicit, kAllocAbortCode};
    refill_bump_chunk(tid);
  }
  const gaddr_t a = b.cur;
  b.cur += nwords;
  b.left -= nwords;
  return a;
}

/// Hardware-path handle: uninstrumented reads/writes (no per-address
/// metadata), writes logged into the private redo buffer.
class SphtHwTx final : public Tx {
 public:
  SphtHwTx(SphtTm& tm, SphtTm::ThreadCtx& ctx, int tid) : tm_(tm), ctx_(ctx), tid_(tid) {}

  word_t read(gaddr_t a) override {
    telemetry::trace2(telemetry::EventKind::kRead, static_cast<int>(tid_), a);
    return tm_.htm_.load(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a));
  }

  void write(gaddr_t a, word_t v) override {
    telemetry::trace2(telemetry::EventKind::kWrite, static_cast<int>(tid_), a);
    if (tm_.cfg_.persist_txns) ctx_.redo.emplace_back(a, v);
    tm_.htm_.store(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a), v);
  }

  gaddr_t alloc(std::size_t nwords) override { return tm_.bump_alloc(tid_, nwords); }
  void free(gaddr_t, std::size_t) override {}  // SPHT's allocator has no free
  bool on_hw_path() const override { return true; }

 private:
  SphtTm& tm_;
  SphtTm::ThreadCtx& ctx_;
  int tid_;
};

/// Software-fallback handle: runs under the global lock, writes buffered
/// so a voluntary abort can roll back.
class SphtSwTx final : public Tx {
 public:
  SphtSwTx(SphtTm& tm, SphtTm::ThreadCtx& ctx, int tid) : tm_(tm), ctx_(ctx), tid_(tid) {}

  word_t read(gaddr_t a) override {
    telemetry::trace2(telemetry::EventKind::kRead, static_cast<int>(tid_), a);
    const std::uint32_t found = ctx_.redo_index.find(a);
    if (found != htm::SmallIndexMap::kNotFound) return ctx_.redo[found].second;
    return tm_.htm_.nontx_load(tid_, htm::loc_pool(a), tm_.pool_.word_ptr(a));
  }

  void write(gaddr_t a, word_t v) override {
    telemetry::trace2(telemetry::EventKind::kWrite, static_cast<int>(tid_), a);
    const std::uint32_t found = ctx_.redo_index.find(a);
    if (found != htm::SmallIndexMap::kNotFound) {
      ctx_.redo[found].second = v;
      return;
    }
    ctx_.redo_index.insert(a, static_cast<std::uint32_t>(ctx_.redo.size()));
    ctx_.redo.emplace_back(a, v);
  }

  gaddr_t alloc(std::size_t nwords) override { return tm_.bump_alloc(tid_, nwords); }
  void free(gaddr_t, std::size_t) override {}
  bool on_hw_path() const override { return false; }

 private:
  SphtTm& tm_;
  SphtTm::ThreadCtx& ctx_;
  int tid_;
};

void SphtTm::persist_marker_until(int tid, std::uint64_t ts) {
  // Threads block until the durable marker covers their timestamp; whoever
  // holds the mutex persists the current volatile maximum for everyone
  // (the "forward linking" batching effect).
  while (gpm_durable_.value.load(std::memory_order_acquire) < ts) {
    if (auto* c = pool_.crash_coordinator()) c->crash_point();
    std::unique_lock<std::mutex> lk(gpm_mu_, std::try_to_lock);
    if (!lk.owns_lock()) {
      std::this_thread::yield();
      continue;
    }
    const std::uint64_t m = gpm_volatile_.value.load(std::memory_order_acquire);
    if (gpm_durable_.value.load(std::memory_order_acquire) >= m) continue;
    pool_.raw_store(tid, gpm_raw_idx_, m);
    pool_.flush_raw(tid, gpm_raw_idx_);
    pool_.fence(tid);
    gpm_durable_.value.store(m, std::memory_order_release);
  }
}

void SphtTm::persist_committed(int tid, std::uint64_t ts_commit,
                               std::span<const std::pair<gaddr_t, word_t>> redo) {
  ThreadCtx& ctx = ctx_[tid];
  ctx.stats.write_set_size.record(redo.size());
  [[maybe_unused]] std::uint64_t ack_t0 = 0;
  if constexpr (telemetry::kLevel >= 1) ack_t0 = telemetry::now_ticks();

  // 1. Append + persist the redo log record. Only a software commit,
  //    which holds the global lock, can find its log full here.
  while (!log_.append(tid, ts_commit, redo)) replay_full_logs(tid);

  // 2. Publish "my log at ts_commit is durable".
  ts_pub_[tid].value.store(pub_pack(ts_commit, true), std::memory_order_seq_cst);

  // 3. Ordering negotiation: wait until every transaction that may carry a
  //    smaller timestamp has persisted its log. Note that this blocks on
  //    *all* concurrent writers, even with disjoint write sets — the
  //    behaviour NV-HALT's hardware-assisted locking avoids.
  for (int t = 0; t < cfg_.max_threads; ++t) {
    if (t == tid) continue;
    for (;;) {
      const std::uint64_t v = ts_pub_[t].value.load(std::memory_order_seq_cst);
      if (pub_persisted(v) || pub_ts(v) >= ts_commit) break;
      if (auto* c = pool_.crash_coordinator()) c->crash_point();
      std::this_thread::yield();
    }
  }

  // 4. Advance the volatile marker (CAS-max) and wait until the durable
  //    marker covers us: only then is the transaction durably committed.
  std::uint64_t cur = gpm_volatile_.value.load(std::memory_order_acquire);
  while (cur < ts_commit &&
         !gpm_volatile_.value.compare_exchange_weak(cur, ts_commit, std::memory_order_acq_rel)) {
  }
  persist_marker_until(tid, ts_commit);

  // The transaction is durable only now — the whole of persist_committed is
  // SPHT's ordering-negotiation overhead (Sec. 2.1.4), so its latency is
  // the ack latency.
  if constexpr (telemetry::kLevel >= 1) {
    const std::uint64_t waited = telemetry::now_ticks() - ack_t0;
    ctx.stats.ack_latency.record(waited);
    telemetry::trace1(telemetry::EventKind::kDurabilityAck, tid, waited);
  }
}

std::uint64_t SphtTm::take_commit_ts(int tid, std::size_t nwrites) {
  if (!log_.fits(tid, nwrites)) return 0;
  return ts_source_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
}

SphtTm::AttemptResult SphtTm::attempt_hw(int tid, TxBody body) {
  ThreadCtx& ctx = ctx_[tid];
  ctx.redo.clear();
  ctx.ts_commit = 0;

  // Publish an in-flight lower bound on our eventual commit timestamp so
  // concurrent committers know to wait for us (Sec. 2.1.4: the thread
  // "updates its timestamp and marks it as not persistent").
  std::uint64_t ts_begin = 0;
  if (cfg_.persist_txns) {
    ts_begin = ts_source_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
    ts_pub_[tid].value.store(pub_pack(ts_begin, false), std::memory_order_seq_cst);
  }

  htm_.begin(tid);
  SphtHwTx tx(*this, ctx, tid);
  try {
    // Subscribe to the global fallback lock: abort immediately if held,
    // and (via the read set) whenever it becomes held.
    if (htm_.load(tid, kGlLoc, &global_lock_.value) != 0) {
      // Contention cells are plain diagnostics outside the simulated
      // transaction's tracked footprint, so the increment survives xabort.
      contention_.on_abort(0);
      htm_.xabort(tid, kGlSubscribeAbortCode);
    }
    body(tx);
    if (cfg_.persist_txns && !ctx.redo.empty()) {
      // Commit timestamp taken inside the transaction (rdtscp analogue).
      ctx.ts_commit = take_commit_ts(tid, ctx.redo.size());
      if (ctx.ts_commit == 0) htm_.xabort(tid, kLogFullAbortCode);
    }
    htm_.commit(tid);
  } catch (const htm::HtmAbort& a) {
    htm_.cancel(tid);
    if (cfg_.persist_txns)
      ts_pub_[tid].value.store(pub_pack(ts_begin, true), std::memory_order_seq_cst);
    ctx.record_hw_abort(tid, a.cause, a.code);
    // A bump-chunk refill aborted us; do the refill now, outside the
    // transaction, so the retry allocates from thread-local state only.
    if (a.cause == htm::AbortCause::kExplicit && a.code == kAllocAbortCode)
      refill_bump_chunk(tid);
    // The record did not fit: replay now that our timestamp reads
    // persisted, so the retry finds room.
    if (a.cause == htm::AbortCause::kExplicit && a.code == kLogFullAbortCode)
      replay_full_logs(tid);
    return AttemptResult::kAborted;
  } catch (const TxUserAbort&) {
    htm_.cancel(tid);
    if (cfg_.persist_txns)
      ts_pub_[tid].value.store(pub_pack(ts_begin, true), std::memory_order_seq_cst);
    ctx.stats.user_aborts++;
    return AttemptResult::kUserAborted;
  } catch (...) {
    htm_.cancel(tid);
    if (cfg_.persist_txns)
      ts_pub_[tid].value.store(pub_pack(ts_begin, true), std::memory_order_seq_cst);
    throw;
  }

  if (cfg_.persist_txns && !ctx.redo.empty()) {
    persist_committed(tid, ctx.ts_commit, ctx.redo);
  } else if (cfg_.persist_txns) {
    ts_pub_[tid].value.store(pub_pack(ts_begin, true), std::memory_order_seq_cst);
  }

  ctx.stats.commits++;
  ctx.stats.hw_commits++;
  if (ctx.redo.empty()) ctx.stats.read_only_commits++;
  return AttemptResult::kCommitted;
}

SphtTm::AttemptResult SphtTm::attempt_sw(int tid, TxBody body) {
  ThreadCtx& ctx = ctx_[tid];
  ctx.redo.clear();
  ctx.redo_index.clear();
  ctx.ts_commit = 0;

  // The trivial fallback: claim the global lock, disabling all concurrency
  // (hardware transactions subscribed to it abort on our CAS).
  [[maybe_unused]] std::uint64_t stall_t0 = 0;
  if constexpr (telemetry::kLevel >= 1) stall_t0 = telemetry::now_ticks();
  std::uint64_t expected = 0;
  bool contended = false;
  while (!htm_.nontx_cas(tid, kGlLoc, &global_lock_.value, expected,
                         static_cast<std::uint64_t>(tid) + 1)) {
    contention_.on_cas_fail(0);
    contended = true;
    expected = 0;
    if (auto* c = pool_.crash_coordinator()) c->crash_point();
    std::this_thread::yield();
  }
  if constexpr (telemetry::kLevel >= 1) {
    // kLockStall arg encodes stripe << 48 | ticks; SPHT's only lock is
    // stripe 0, so the arg is the wait alone.
    const std::uint64_t waited = telemetry::now_ticks() - stall_t0;
    if (contended) contention_.on_stall(0, waited);
    telemetry::trace1(telemetry::EventKind::kLockStall, tid,
                      waited & ((std::uint64_t{1} << 48) - 1));
    telemetry::trace1(telemetry::EventKind::kLockAcquire, tid, 1);
  } else {
    if (contended) contention_.on_stall(0, 0);
  }
  const auto gl_acquired_at = std::chrono::steady_clock::now();
  const auto account_gl = [&] {
    gl_held_ns_.value.fetch_add(
        static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                       std::chrono::steady_clock::now() - gl_acquired_at)
                                       .count()),
        std::memory_order_relaxed);
  };

  std::uint64_t ts_begin = 0;
  if (cfg_.persist_txns) {
    ts_begin = ts_source_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
    ts_pub_[tid].value.store(pub_pack(ts_begin, false), std::memory_order_seq_cst);
  }

  SphtSwTx tx(*this, ctx, tid);
  AttemptResult result = AttemptResult::kCommitted;
  try {
    body(tx);
  } catch (const TxUserAbort&) {
    result = AttemptResult::kUserAborted;
    ctx.stats.user_aborts++;
  } catch (...) {
    if (cfg_.persist_txns)
      ts_pub_[tid].value.store(pub_pack(ts_begin, true), std::memory_order_seq_cst);
    account_gl();
    htm_.nontx_store(tid, kGlLoc, &global_lock_.value, 0);
    throw;
  }

  if (result == AttemptResult::kCommitted) {
    // Apply the buffered writes in place; safe under the global lock (any
    // still-publishing hardware commit is waited out by nontx_store).
    for (const auto& [a, v] : ctx.redo)
      htm_.nontx_store(tid, htm::loc_pool(a), pool_.word_ptr(a), v);
    if (cfg_.persist_txns && !ctx.redo.empty()) {
      ctx.ts_commit = ts_source_.value.fetch_add(1, std::memory_order_acq_rel) + 1;
      persist_committed(tid, ctx.ts_commit, ctx.redo);
    } else if (cfg_.persist_txns) {
      ts_pub_[tid].value.store(pub_pack(ts_begin, true), std::memory_order_seq_cst);
    }
    ctx.stats.commits++;
    ctx.stats.sw_commits++;
    if (ctx.redo.empty()) ctx.stats.read_only_commits++;
  } else if (cfg_.persist_txns) {
    ts_pub_[tid].value.store(pub_pack(ts_begin, true), std::memory_order_seq_cst);
  }

  account_gl();
  htm_.nontx_store(tid, kGlLoc, &global_lock_.value, 0);
  return result;
}

bool SphtTm::run_checked(int tid, TxMode mode, TxBody body) {
  (void)mode;  // no read-only fast path in the SPHT baseline
  ThreadCtx& ctx = ctx_[tid];

  struct Env {
    SphtTm& tm;
    ThreadCtx& ctx;
    int tid;
    TxBody body;
    runtime::AttemptStatus attempt_hw() { return tm.attempt_hw(tid, body); }
    // The fallback runs under the global lock, so a conflict abort cannot
    // occur; if one ever surfaced, the loop would (correctly) retry rather
    // than report it as a commit — the seed's run() conflated the two.
    runtime::AttemptStatus attempt_sw() { return tm.attempt_sw(tid, body); }
    void before_hw_attempt() {
      // Wait for the fallback lock to be free before (re)trying in hardware.
      [[maybe_unused]] std::uint64_t t0 = 0;
      bool stalled = false;
      if constexpr (telemetry::kLevel >= 1) t0 = telemetry::now_ticks();
      while (tm.htm_.nontx_load(tid, kGlLoc, &tm.global_lock_.value) != 0) {
        stalled = true;
        crash_point();
        std::this_thread::yield();
      }
      if constexpr (telemetry::kLevel >= 1) {
        if (stalled) {
          const std::uint64_t waited = telemetry::now_ticks() - t0;
          tm.contention_.on_stall(0, waited);
          telemetry::trace1(telemetry::EventKind::kLockStall, tid,
                            waited & ((std::uint64_t{1} << 48) - 1));
        }
      } else {
        if (stalled) tm.contention_.on_stall(0, 0);
      }
    }
    void crash_point() {
      if (auto* c = tm.pool_.crash_coordinator()) c->crash_point();
    }
  } env{*this, ctx, tid, body};

  return runtime::run_retry_loop(policy_, tid, ctx, env);
}

TmStats SphtTm::stats() const { return runtime::aggregate_thread_stats(ctx_); }

void SphtTm::reset_stats() {
  runtime::reset_thread_stats(ctx_);
  contention_.reset();
}

}  // namespace nvhalt
