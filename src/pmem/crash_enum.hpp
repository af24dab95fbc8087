// Persistence-trace journal + deterministic crash-prefix enumeration.
//
// The random-trip CrashCoordinator (crash_sim.hpp) samples a handful of
// crash instants per run and can never reproduce a failure. This module
// turns crash testing into a deterministic, exhaustive tool:
//
//  * A PersistJournal, installed on a PmemPool via PmemConfig::journal,
//    records a linearized trace of every persistence event the pool
//    executes: stores into the staged (cache) image, cacheline flushes
//    queued for the next fence, and the fences themselves.
//  * materialize_crash_image() replays any *prefix* of that trace into the
//    durable NVM image a power failure at that instant would leave behind:
//    fences persist the lines their thread had flushed; optionally a
//    seeded adversary additionally writes back a subset of dirty lines up
//    to a per-line store-order cut (modelling spontaneous cache
//    write-back, honouring x86's same-line ordering guarantee).
//  * A CrashEnumerator walks every fence boundary of the trace (plus the
//    empty and full prefixes), materializes the fence image and a budgeted
//    number of adversarial subset images per boundary, and hands each to a
//    caller-supplied checker that installs the image, runs recovery and
//    verifies invariants. A failing image is reported as a replayable
//    (trace-hash, prefix-index, subset-seed) triple: the same triple over
//    the same trace always reproduces bit-identical durable state.
//
// The journal is test-only instrumentation: when PmemConfig::journal is
// null (the default) the pool's hot paths pay one predicted-untaken branch.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/common.hpp"

namespace nvhalt {

enum class PersistEventKind : std::uint8_t {
  kStore = 0,  // staged-image store: (word, value), line derived for cuts
  kFlush = 1,  // clflushopt/clwb: line queued on tid's flush queue
  kFence = 2,  // sfence: tid's queued lines become durable
  /// Allocator intent annotation (arm/apply of a per-thread alloc/free
  /// record). Carries no durable effect of its own — the underlying raw
  /// stores are journaled as kStore — but lets checkers locate allocator
  /// commit points in the trace. `value` packs the arm id and entry count.
  kAllocMark = 3,  // the last kind: event_kind_from_u64 rejects anything above
};

/// Decodes a serialized event kind. Throws TmLogicError naming `path` when
/// the value is outside PersistEventKind (for example a kind an older
/// build journaled), so a saved trace is never replayed silently wrong.
PersistEventKind event_kind_from_u64(std::uint64_t raw, const std::string& path);

/// One entry in the linearized persistence trace. `word` is a global
/// persistent word index (raw space first, then record space — the same
/// unified layout PmemPool::persist_line uses); `line` is the word's
/// simulated cache line.
struct PersistEvent {
  PersistEventKind kind;
  std::int32_t tid;
  std::uint64_t line;
  std::uint64_t word;   // kStore only
  std::uint64_t value;  // kStore only

  bool operator==(const PersistEvent&) const = default;
};

/// Thread-safe append-only journal of persistence events. The mutex
/// serializes concurrent pool operations into one total order; that order
/// *is* the trace's definition of "before the crash" (a valid
/// linearization: every persistent word is written under its lock, so
/// per-word store order is preserved, and each thread's own events keep
/// program order).
class PersistJournal {
 public:
  void on_store(int tid, std::uint64_t line, std::uint64_t word, std::uint64_t value) {
    append({PersistEventKind::kStore, tid, line, word, value});
  }
  void on_flush(int tid, std::uint64_t line) {
    append({PersistEventKind::kFlush, tid, line, 0, 0});
  }
  void on_fence(int tid) { append({PersistEventKind::kFence, tid, 0, 0, 0}); }
  void on_alloc_mark(int tid, std::uint64_t value) {
    append({PersistEventKind::kAllocMark, tid, 0, 0, value});
  }
  /// Number of events recorded so far. Lock-free: worker threads read this
  /// right after an acknowledged commit to record the durability bound the
  /// checker later enforces ("any prefix >= this index must reflect me").
  std::size_t size() const { return count_.load(std::memory_order_acquire); }

  /// Snapshot of the trace (call quiescently — after workers joined).
  std::vector<PersistEvent> events() const {
    std::lock_guard<std::mutex> g(mu_);
    return events_;
  }

  void clear() {
    std::lock_guard<std::mutex> g(mu_);
    events_.clear();
    count_.store(0, std::memory_order_release);
  }

  /// FNV-1a over the trace contents; identifies a trace in failure triples.
  static std::uint64_t hash(std::span<const PersistEvent> trace);

 private:
  void append(PersistEvent ev) {
    std::lock_guard<std::mutex> g(mu_);
    events_.push_back(ev);
    count_.store(events_.size(), std::memory_order_release);
  }

  mutable std::mutex mu_;
  std::vector<PersistEvent> events_;
  std::atomic<std::size_t> count_{0};
};

/// A crashed NVM image: the durable value of every persistent word that
/// differs from the pool's initial (all-zero) durable state, sorted by
/// word index. Installed into a pool with PmemPool::install_crash_image.
struct CrashImage {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> words;

  bool operator==(const CrashImage&) const = default;
};

/// Replays trace[0, prefix) into the durable image a crash at that instant
/// leaves behind. subset_seed == 0 gives the pure fence-boundary image
/// (only fenced lines are durable); a nonzero seed additionally lets the
/// adversary write back each dirty line with probability 1/2, persisting a
/// seeded store-order prefix of the line (x86 persists same-line stores in
/// order, and a spontaneous write-back at instant T persists each word's
/// latest store before T). Fully deterministic in (trace, prefix, seed).
CrashImage materialize_crash_image(std::span<const PersistEvent> trace, std::size_t prefix,
                                   std::uint64_t subset_seed);

/// A replayable crash instant. Over the same trace (identified by
/// trace_hash), (prefix, subset_seed) rematerializes the exact image.
struct CrashTriple {
  std::uint64_t trace_hash = 0;
  std::size_t prefix = 0;
  std::uint64_t subset_seed = 0;

  std::string to_string() const;
};

struct CrashEnumOptions {
  /// Adversarial subset images sampled per fence boundary (on top of the
  /// deterministic seed-0 fence image).
  std::uint64_t subset_seeds_per_prefix = 2;
  /// Mixed into each boundary's derived subset seeds.
  std::uint64_t base_seed = 1;
  /// Wall-clock budget for the whole enumeration; 0 = unlimited. On
  /// exhaustion the run stops cleanly with stats().budget_exhausted set.
  std::uint64_t time_budget_ms = 0;
  /// If nonzero, stride-sample at most this many fence boundaries (spread
  /// over the whole trace) instead of enumerating every one.
  std::size_t max_prefixes = 0;
};

struct CrashEnumStats {
  std::size_t prefixes_checked = 0;
  std::size_t images_checked = 0;
  bool budget_exhausted = false;
};

struct CrashFailure {
  CrashTriple triple;
  std::string why;
};

/// Verdict callback: install `image`, run recovery, check invariants.
/// Return true if the recovered state is consistent; on false, fill *why.
using CrashImageChecker = std::function<bool(const CrashImage& image, std::size_t prefix,
                                             std::uint64_t subset_seed, std::string* why)>;

class CrashEnumerator {
 public:
  CrashEnumerator(std::vector<PersistEvent> trace, const CrashEnumOptions& opt);

  /// Enumerates crash points in trace order; returns the first failing
  /// image's triple, or nullopt if every checked image passed. A checker
  /// that throws fails its image: the failure carries the triple and the
  /// exception's what().
  std::optional<CrashFailure> run(const CrashImageChecker& check);

  /// Rechecks exactly one triple. Refuses (returns a failure explaining
  /// the mismatch) if the triple's trace_hash does not match this trace.
  std::optional<CrashFailure> replay(const CrashTriple& t, const CrashImageChecker& check);

  /// Derived, deterministic subset seed for sample `s` at `prefix`.
  std::uint64_t subset_seed_for(std::size_t prefix, std::uint64_t s) const;

  const CrashEnumStats& stats() const { return stats_; }
  std::uint64_t trace_hash() const { return hash_; }

  /// Crash-point prefixes: 0, one past each fence event, and the full
  /// trace. The unit of "every fence boundary" enumeration.
  const std::vector<std::size_t>& boundaries() const { return boundaries_; }

 private:
  std::vector<PersistEvent> trace_;
  CrashEnumOptions opt_;
  CrashEnumStats stats_;
  std::uint64_t hash_;
  std::vector<std::size_t> boundaries_;
};

// ---- Trace persistence (failure reproduction across processes) ----------

/// Writes the trace (with its hash) to a binary file; throws TmLogicError
/// on I/O failure.
void save_trace(const std::string& path, std::span<const PersistEvent> trace);

/// Loads a trace written by save_trace; validates magic and stored hash.
std::vector<PersistEvent> load_trace(const std::string& path);

/// Reads an unsigned integer from the environment (e.g. the CI's
/// NVHALT_CRASH_BUDGET time box); returns `fallback` when unset/invalid.
std::uint64_t env_u64(const char* name, std::uint64_t fallback);

}  // namespace nvhalt
