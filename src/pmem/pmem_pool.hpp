// Simulated persistent memory pool.
//
// The paper's platform is Intel Optane DCPMM in app-direct mode: persistent
// memory exists only as main memory, stores take effect in the volatile
// cache, and the programmer flushes lines (clflushopt/clwb) and fences
// (sfence) to make them durable. The processor may also write back any dirty
// line spontaneously. This module reproduces exactly that persistency model
// in software so the algorithms above it are unchanged:
//
//  * A *volatile image* of user words (what DRAM + caches hold). It is lost
//    on crash.
//  * One persistent word space, as the paper's app-direct region: a raw
//    region (per-thread persistent version numbers, root pointers, baseline
//    SPHT logs), then the per-word Trinity records {cur, old, pver} (paper
//    Sec. 3.2: metadata lives only in persistent memory; the volatile image
//    holds just the user word). Word i of the space lies on line
//    i / kWordsPerLine; the journal, the crash images and the backing file
//    index it the same way.
//  * Two images of that space: a *staged* image (what the cache holds of
//    the NVM-mapped region) and a *durable* image (what the NVM media
//    holds). `flush_*` + `fence` copy staged lines to the durable image; a
//    crash keeps only the durable image plus an adversary-chosen subset of
//    dirty lines (modelling spontaneous write-back), honouring x86's
//    guarantee that stores to one cache line never persist out of order.
//  * One switch for flush-free persistence, `eadr`: the eADR platform and
//    Fig. 9's NO-FLUSH-FENCE level are the same program here. Flushes and
//    fences write nothing back, a crash persists every staged line, and
//    stores keep their latency and order.
//
// Simulated NVM latency knobs reproduce the *relative* cost of flush/fence
// (ablation class 1) and of NVM-backed stores (ablation class 2). The
// persist path bills exactly that model and adds no cross-core traffic of
// its own: every word image starts on a cache-line boundary, so one
// simulated line is one real line; the flush, dedup, fence and billed-time
// counters live in the calling thread's own flush queue; and a store only
// records its latency as debt on that queue. `fence(tid)` pays the debt
// plus flush_latency_ns per unique line plus fence_latency_ns in one spin
// timed on the TSC (DESIGN.md Sec. 10, "Persist-path cost").
#pragma once

#include <array>
#include <atomic>
#include <cstring>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "htm/small_map.hpp"
#include "telemetry/histogram.hpp"
#include "util/common.hpp"
#include "util/mapped_array.hpp"
#include "util/rng.hpp"

namespace nvhalt {

class PersistJournal;  // pmem/crash_enum.hpp

/// One persistent record per transactional word (Trinity layout). `cur` is
/// the current value, `old` the pre-transaction value, `pver` packs the
/// writing thread id and its persistent version number. Two records fit in
/// one 64-byte line; all three fields of a record share its line, which is
/// what makes Trinity's same-line ordering guarantee usable.
struct PRecord {
  std::uint64_t cur = 0;
  std::uint64_t old = 0;
  std::uint64_t pver = 0;
  std::uint64_t pad = 0;
};
static_assert(sizeof(PRecord) == 32);

/// Packs/unpacks {tid, seq} persistent version tuples (paper Sec. 3.2:
/// "we need to combine the thread ID and the thread's persistent version
/// number since multiple threads might have the same version").
inline std::uint64_t pack_pver(int tid, std::uint64_t seq) {
  return (static_cast<std::uint64_t>(tid) << 48) | (seq & 0xFFFFFFFFFFFFULL);
}
inline int pver_tid(std::uint64_t pver) { return static_cast<int>(pver >> 48); }
inline std::uint64_t pver_seq(std::uint64_t pver) { return pver & 0xFFFFFFFFFFFFULL; }

/// Recovery's revert test (paper Sec. 3.5): a record stamped at or above
/// its writer's durable pVerNum belongs to a transaction whose commit
/// marker never became durable, so recovery restores its old value unless
/// cur already equals it. `durable_pver` holds every thread's durable
/// pVerNum. A zero pver is no exemption: pack_pver(0, 0) == 0.
inline bool record_in_flight(const PRecord& r, const std::uint64_t* durable_pver) {
  return pver_seq(r.pver) >= durable_pver[pver_tid(r.pver)] && r.cur != r.old;
}

/// What survives a simulated power failure beyond fenced lines.
struct CrashPolicy {
  /// Probability that a dirty (unfenced) line gets (partially) written back.
  double writeback_probability = 0.0;
  /// Seed for the adversary's choices (cut points within lines).
  std::uint64_t seed = 1;
};

struct PmemConfig {
  /// Number of user words in the pool (word 0 is reserved as null).
  std::size_t capacity_words = 1 << 20;
  /// Extra raw persistent words available via alloc_raw (for baseline logs).
  std::size_t raw_words = 1 << 16;
  /// eADR platform (paper Sec. 1), which is also Fig. 9's NO-FLUSH-FENCE
  /// level: the cache is flushed to NVM by the power-failure protection
  /// domain, so flushes and fences write nothing back and a crash keeps
  /// *all* staged stores. Store latency and write order within the
  /// persistence protocol are kept.
  bool eadr = false;
  /// Delay billed per unique flushed line at the next fence, in nanoseconds.
  std::uint64_t flush_latency_ns = 0;
  /// Delay billed per fence that writes back at least one line, in
  /// nanoseconds.
  std::uint64_t fence_latency_ns = 0;
  /// Delay billed per store to the persistent (staged) region, in
  /// nanoseconds; owed by the storing thread and paid at its next fence.
  /// Zero models NO-NVRAM (DRAM-backed mapping).
  std::uint64_t nvm_store_latency_ns = 0;
  /// Track per-line store order so a crash can persist a *prefix* of a
  /// line's stores (needed by the crash adversary; costs memory/time).
  bool track_store_order = false;
  /// When non-empty, the durable image is a memory-mapped file: durability
  /// spans process restarts (run, exit, re-run the same pool file and call
  /// recover_data()). Geometry must match the existing file's.
  std::string backing_path;
  /// Test-only: when set, the pool records every persistence event (staged
  /// store, line flush, fence) into this journal for the crash-prefix
  /// enumeration checker (pmem/crash_enum.hpp). Must outlive the pool.
  /// Installed at construction so TM-constructor-time persistence is
  /// captured too (the materializer assumes a zero initial durable image).
  PersistJournal* journal = nullptr;
};

/// The simulated persistent heap. Thread-safe for all word/record/raw
/// operations; crash() and recover-time helpers must be called quiescently
/// (the full-system-crash model: all threads stop, then recovery runs).
class PmemPool {
 public:
  explicit PmemPool(const PmemConfig& cfg);
  ~PmemPool();

  PmemPool(const PmemPool&) = delete;
  PmemPool& operator=(const PmemPool&) = delete;

  const PmemConfig& config() const { return cfg_; }
  std::size_t capacity_words() const { return cfg_.capacity_words; }
  /// Record lines covering the word space (2 records per line).
  std::size_t record_lines() const { return total_lines_ - raw_lines_; }

  // ---- Volatile user image -------------------------------------------
  word_t load(gaddr_t a) const { return vmem_[a].load(std::memory_order_acquire); }
  void store(gaddr_t a, word_t v) { vmem_[a].store(v, std::memory_order_release); }
  std::atomic<word_t>* word_ptr(gaddr_t a) { return &vmem_[a]; }

  // ---- Persistent records (Trinity layout) ---------------------------
  /// Writes the record for word `a` in Trinity order (old, pver, cur) into
  /// the staged persistent image and marks its line dirty. `pver` is the
  /// packed stamp (pack_pver) the record carries; `tid` is the calling
  /// thread, which journals the stores and owes their latency. The caller
  /// must hold the word's lock (all call sites do). Does NOT flush.
  void record_write(int tid, gaddr_t a, word_t old_val, word_t new_val, std::uint64_t pver);

  /// Queues the line holding word `a`'s record for write-back at the
  /// caller's next fence (clflushopt/clwb equivalent).
  void flush_record(int tid, gaddr_t a);

  /// Reads the staged record for word `a` (recovery + tests). Inline: the
  /// recovery scan calls it once per word of the pool.
  PRecord read_record(gaddr_t a) const { return load_record(records_ + a * 4); }

  /// Reads the *durable* record for word `a` (tests/crash-inspection only).
  PRecord read_durable_record(gaddr_t a) const {
    return load_record(durable_ + record_word_base(a));
  }

  /// Recovery-time revert: sets record.cur = record.old in the staged image
  /// and marks the line dirty. `tid` is the recovery worker, which journals
  /// the store, owes its latency and flushes + fences afterwards.
  void revert_record(int tid, gaddr_t a);

  // ---- Per-thread persistent version numbers --------------------------
  std::uint64_t load_pver(int tid) const;
  /// Stores pVerNum into its staged line and queues the line for flush.
  void store_pver(int tid, std::uint64_t v);
  void flush_pver(int tid);

  // ---- Root slots (persistent named pointers, for recovery) -----------
  // Slots [0, kDirectRootSlots) are for direct use by structures; the
  // remainder backs the named RootRegistry (api/root_registry.hpp).
  static constexpr int kDirectRootSlots = 16;
  static constexpr int kRootSlots = 48;
  std::uint64_t load_root(int slot) const;
  /// Stores + flushes + fences the root slot (roots change rarely).
  void store_root_persist(int tid, int slot, std::uint64_t v);

  // ---- Raw persistent words (baseline logs, markers) ------------------
  /// Bump-allocates `n` raw persistent words; returns the raw index.
  /// Throws if the raw region is exhausted.
  std::size_t alloc_raw(std::size_t n);
  std::uint64_t raw_load(std::size_t idx) const;
  std::uint64_t raw_load_durable(std::size_t idx) const;
  /// Stores into the staged raw word. `tid` is the writing thread: the
  /// journal attributes the store to it and it owes the store latency.
  void raw_store(int tid, std::size_t idx, std::uint64_t v);
  void flush_raw(int tid, std::size_t idx);

  /// Annotates the persistence trace with an allocator intent mark
  /// (PersistEventKind::kAllocMark). No durable effect; no-op without a
  /// journal.
  void journal_alloc_mark(int tid, std::uint64_t value);

  // ---- Ordering --------------------------------------------------------
  /// sfence: blocks until all lines the calling thread flushed since its
  /// previous fence are durable. Bills, in one spin, the thread's store
  /// debt plus flush_latency_ns per unique line and fence_latency_ns when
  /// it wrote back any line. With eADR on it writes back nothing and
  /// bills only the store debt.
  void fence(int tid);

  // ---- Crash simulation ------------------------------------------------
  /// Simulates a full-system power failure: the volatile image is erased,
  /// the durable image is kept, and each dirty line additionally persists a
  /// store-order prefix chosen by the adversary. The staged image is then
  /// reset to the durable image (what recovery will observe). Must be
  /// called with no threads running.
  void crash(const CrashPolicy& policy);

  /// Resets the pool to the post-crash state a materialized crash image
  /// describes (pmem/crash_enum.hpp): the durable image becomes exactly
  /// {zeros overlaid with `words`}, then power is lost as in crash(). Each
  /// entry is a (persistent word index, value) pair. Must be called
  /// quiescently; recovery runs against the result.
  void install_crash_image(std::span<const std::pair<std::uint64_t, std::uint64_t>> words);

  // ---- Persistent word space (storage, journal and crash-image index) --
  /// Words in the raw region, including pVerNum/root headers and padding.
  /// Raw index i is persistent word i.
  std::size_t raw_space_words() const { return raw_lines_ * kWordsPerLine; }
  /// Total persistent words (raw space followed by the record space).
  std::size_t persist_space_words() const { return total_lines_ * kWordsPerLine; }
  /// Persistent word index of word `a`'s record (4 words/record).
  std::size_t record_word_base(gaddr_t a) const { return raw_space_words() + a * 4; }

  // Counters, summed over the per-thread flush queues. Each thread bumps
  // only its own, so they add no shared cache line to the persist path;
  // the sums are exact once the counted threads are quiescent.
  /// Fences that wrote back at least one line.
  std::uint64_t fence_count() const { return sum_counter(&FlushQueue::fences); }
  /// Flush requests, duplicates included.
  std::uint64_t flush_count() const { return sum_counter(&FlushQueue::flushes); }
  /// Flush requests coalesced away because an earlier flush in the same
  /// fence epoch already covered the line (e.g. two Trinity records
  /// sharing one cache line). Counted at enqueue time (the duplicate never
  /// enters the queue). Each deduped line saves one flush_latency_ns
  /// charge and one staged->durable copy.
  std::uint64_t flush_dedup_count() const { return sum_counter(&FlushQueue::dedups); }
  /// Modelled NVM nanoseconds the fences have billed: store debt plus
  /// flush and fence latency. Each fence spins for at least its bill.
  std::uint64_t billed_ns() const { return sum_counter(&FlushQueue::billed_ns); }

  /// Histogram of unique lines written back per fence, merged over all
  /// per-thread queues. Each queue's histogram is written only by the
  /// fencing thread, so call this quiescently (same contract as the TM
  /// stats accessors).
  telemetry::PowHistogram fence_flush_hist() const;

  /// Start addresses of the three word images: volatile, staged, durable.
  /// Each is line-aligned.
  std::array<const void*, 3> image_bases() const;

  /// FNV-1a digest over the volatile, staged and durable images (in that
  /// order). Quiescent-only; used by the parallel-recovery determinism
  /// tests to assert byte-identical recovered state across worker counts.
  std::uint64_t image_hash() const;

  /// True when the pool was constructed over an existing backing file:
  /// the durable image holds a previous run's state; attach by running the
  /// TM's recover_data() before any transaction.
  bool attached_existing() const { return attached_existing_; }

  /// File-backed pools: asks the OS to write the mapping back (durability
  /// against host crashes; process-restart durability needs no call).
  void sync_to_disk() const;

  /// Installs a crash coordinator polled on every persistent operation
  /// (nullptr to disarm). Not thread-safe; set before workers start.
  void set_crash_coordinator(class CrashCoordinator* c) { crash_coord_ = c; }
  class CrashCoordinator* crash_coordinator() const { return crash_coord_; }

 private:
  /// True when flushes/fences do real work (not eADR).
  bool flush_active() const { return !cfg_.eadr; }

  static std::size_t line_of(std::size_t word) { return word / kWordsPerLine; }
  static PRecord load_record(const std::atomic<std::uint64_t>* rec) {
    return {rec[0].load(std::memory_order_acquire), rec[1].load(std::memory_order_acquire),
            rec[2].load(std::memory_order_acquire)};
  }
  std::size_t record_line_of(gaddr_t a) const { return raw_lines_ + a / 2; }

  /// The one persistent store: stages `v` at persistent word `word`, stamps
  /// it for the crash adversary and journals it under `tid`. The caller
  /// owes the store latency (owe_store). Defined here so the record path
  /// inlines it.
  void stage(int tid, std::size_t word, std::uint64_t v) {
    staged_[word].store(v, std::memory_order_release);
    mark_store(word);
    journal_store(tid, word, v);
  }
  void mark_store(std::size_t word);
  // Journal hooks (no-ops unless cfg_.journal is set).
  void journal_store(int tid, std::size_t word, std::uint64_t value);
  void journal_flush(int tid, std::size_t line);
  void journal_fence(int tid);
  void map_backing_file();
  void persist_line(std::size_t line);          // staged -> durable, whole line
  void persist_line_prefix(std::size_t line, Xoshiro256& rng);  // adversary
  /// The end of every power failure: the staged image becomes the durable
  /// one, the flush queues and the volatile image are cleared, and the
  /// store-order tracker is rewound.
  void lose_power();
  void clear_volatile();
  /// Adds one store's latency to tid's debt.
  void owe_store(int tid);

  /// A word image: its own mapping (util/mapped_array.hpp), page-aligned,
  /// so on a cache-line boundary.
  using WordImage = MappedArray<std::atomic<std::uint64_t>>;

  PmemConfig cfg_;
  std::size_t raw_lines_;
  std::size_t total_lines_;
  /// TSC ticks per nanosecond, calibrated once per process (0 when every
  /// latency knob is zero and nothing is ever billed).
  double ticks_per_ns_ = 0.0;

  WordImage vmem_;

  // Staged and durable images of the persistent word space. Stored as
  // atomics for defined concurrent access; persistence operates on 64-bit
  // words. The durable image is atomic too: distinct transactions may
  // fence the same cache line concurrently (two records share a line), so
  // the staged->durable copy must be race-free word-wise. It is either an
  // owned image (default) or the payload of the mapped backing file,
  // which starts on a page boundary.
  WordImage staged_;
  WordImage durable_owned_;
  std::atomic<std::uint64_t>* durable_ = nullptr;
  /// Staged record 0's cur: read_record indexes from here.
  std::atomic<std::uint64_t>* records_ = nullptr;

  // Backing-file state (empty path => unused). The mapping is owned like
  // an image, so a constructor that rejects the file after mapping it
  // leaks nothing.
  std::unique_ptr<char[], Unmap> map_;
  bool attached_existing_ = false;

  // Store-order tracking (only when cfg_.track_store_order). Each line
  // counts its stores; a line persisted up to stamp `fenced` holds every
  // store stamped at or below it. A word's window spans its first and last
  // store since its line last persisted (empty when first <= fenced): the
  // staged image keeps only the last value, so no crash may cut inside it.
  struct StoreWindow {
    std::uint32_t first;
    std::uint32_t last;
  };
  MappedArray<std::atomic<std::uint32_t>> line_clock_;   // per line
  MappedArray<std::atomic<std::uint32_t>> line_fenced_;  // stamp at last persist
  MappedArray<std::atomic<StoreWindow>> word_window_;    // per persistent word

  // Per-thread flush queues (lines awaiting the next fence). `lines` is
  // kept duplicate-free at enqueue time via `pending` (an O(1)
  // generation-stamped probe per flush), so fence() is O(unique lines) —
  // no sort+unique pass. Owner-thread only, counters included: the owner
  // bumps them with a relaxed load and store (no locked RMW), and the
  // accessors above sum them.
  struct alignas(kCacheLineBytes) FlushQueue {
    std::vector<std::size_t> lines;
    htm::SmallSet pending;  // lines currently queued
    /// Store latency owed at the next fence, in nanoseconds.
    std::atomic<std::uint64_t> debt_ns{0};
    std::atomic<std::uint64_t> flushes{0};
    std::atomic<std::uint64_t> dedups{0};
    std::atomic<std::uint64_t> fences{0};
    std::atomic<std::uint64_t> billed_ns{0};
    /// Unique lines written back per fence (telemetry; owner-thread only).
    telemetry::PowHistogram fence_lines;
  };
  std::uint64_t sum_counter(std::atomic<std::uint64_t> FlushQueue::*counter) const;

  /// Enqueues `line` on tid's flush queue unless already pending, counting
  /// the request and journalling/tracing it either way and counting a
  /// dedup when it was a duplicate. Returns newly-queued.
  bool enqueue_flush(int tid, std::size_t line);
  std::unique_ptr<FlushQueue[]> flush_queues_;

  std::atomic<std::size_t> raw_bump_;

  class CrashCoordinator* crash_coord_ = nullptr;
};

}  // namespace nvhalt
