// Transaction-aware allocator over the persistent pool (paper Sec. 4).
//
// Allocation and freeing are tied to transaction outcomes: memory
// allocated during a transaction is returned if the transaction aborts,
// and frees are deferred until the transaction commits, so an abort can
// never leak and a doomed transaction can never recycle memory another
// thread still reads.
//
// Unlike the paper — which assumes a volatile allocator rebuilt from a
// user-supplied live-block iterator — allocator *metadata* here is
// persistent: per-segment allocation bitmaps, segment class headers and a
// segment watermark live in the pool's raw region, and per-transaction
// alloc/free effects are journaled through small per-thread intent
// records armed before the transaction's durability marker and applied
// after it (DESIGN.md Sec. 12 has the full crash argument). Recovery
// reconstructs the allocator from the pool alone; the paper's live-block
// iterator survives only as an optional cross-check (verify_rebuild).
//
// Reuse safety: committed frees go through epoch-based reclamation
// (alloc/ebr.hpp) so lock-free read-only snapshots never observe a
// recycled node; the reservation scans stop at the highest tid that has
// announced. The durable allocation bit is still cleared at
// commit — a crash destroys every reader, so persistence and
// synchronization stay decoupled.
//
// Allocation from per-thread heaps is transaction-neutral: it touches no
// shared transactional state, so it cannot abort a hardware transaction.
// Acquiring a fresh segment, however, is global work; done inside a
// hardware transaction it would abort it on real hardware, and we model
// exactly that by raising an explicit HTM abort (code kAllocAbortCode) so
// the attempt is retried with a pre-warmed heap or falls back to software.
//
// Contract for the non-transactional interface: raw_alloc/raw_free/
// raw_alloc_large are setup-phase operations.
// They persist their effects eagerly (store + flush + fence) and must not
// interleave with transactional traffic on the same addresses — a stale
// intent record re-applied at recovery would win over a later raw_free of
// the same slot.
//
// Recovery's bound: acquire_segment and raw_alloc_large fence the segment
// watermark before they hand out any slot of a fresh segment, and nothing
// lowers it, so no record at or past carved_end() can ever have been
// written. Recovery (the undo-record pass and SPHT's rebuild) therefore
// reads the carved heap alone; a word the allocator never handed out is
// not persistent.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "alloc/ebr.hpp"
#include "alloc/segment.hpp"
#include "pmem/pmem_pool.hpp"
#include "util/common.hpp"

namespace nvhalt {

/// xabort code used when allocation needs global work inside a HW txn.
inline constexpr std::uint8_t kAllocAbortCode = 0xA1;

struct LiveBlock {
  gaddr_t addr;
  std::uint32_t nwords;
};

struct AllocStats {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t segments_acquired = 0;
  // Epoch-based reclamation.
  std::uint64_t retired = 0;    ///< frees moved into limbo at commit
  std::uint64_t reclaimed = 0;  ///< limbo entries made reusable
  std::uint64_t limbo = 0;      ///< retired - reclaimed (current depth)
  // Recovery outcomes (cumulative over recover_metadata/verify_rebuild).
  std::uint64_t orphans_swept = 0;      ///< uncommitted-at-crash allocs reverted
  std::uint64_t leaked_reclaimed = 0;   ///< marked-used blocks no structure owns
};

/// What recover_metadata() found and did (inspector/telemetry surface).
struct AllocRecoveryReport {
  bool ran = false;
  bool found_metadata = false;
  std::uint64_t intents_applied = 0;   ///< entries of committed records re-applied
  std::uint64_t intents_reverted = 0;  ///< entries of uncommitted records undone
  std::uint64_t intents_skipped = 0;   ///< partially-armed records ignored
  std::uint64_t orphans_swept = 0;     ///< alloc entries among the reverted
  std::uint64_t watermark = 0;         ///< durable segment high-water mark
  std::uint64_t free_slots = 0;        ///< slots rebuilt onto free lists
  std::uint64_t free_segments = 0;     ///< whole segments rebuilt as free
};

/// What the persistent metadata says right now (PmemInspector surface):
/// a quiescent snapshot of the state recovery would start from.
struct AllocDurableSummary {
  bool metadata_present = false;
  std::uint64_t watermark = 0;        ///< segments ever carved
  std::uint64_t segment_count = 0;    ///< total heap segments
  std::uint64_t free_segments = 0;    ///< virgin/recycled below the watermark
  std::uint64_t used_slots = 0;       ///< set allocation bits (class segments)
  std::uint64_t large_segments = 0;   ///< segments inside large extents
  std::uint64_t armed_intents = 0;    ///< PREPARED records recovery would normalize
};

class TxAllocator {
 public:
  /// Manages words [heap_begin, pool.capacity_words()). heap_begin defaults
  /// to one line past null so word 0 is never handed out. Reserves the
  /// persistent metadata region (metadata_words) from the pool's raw space
  /// and durably seeds its header unless the pool already holds one.
  explicit TxAllocator(PmemPool& pool, gaddr_t heap_begin = kWordsPerLine);

  TxAllocator(const TxAllocator&) = delete;
  TxAllocator& operator=(const TxAllocator&) = delete;

  /// Raw words of persistent metadata for a pool of `capacity_words`
  /// (header + per-segment headers/bitmaps + per-thread intent records).
  /// Pool sizing helpers add this to their raw-region budgets.
  static std::size_t metadata_words(std::size_t capacity_words,
                                    gaddr_t heap_begin = kWordsPerLine);

  // ---- Transactional interface ----------------------------------------
  /// Allocates within the calling thread's current transaction. The block
  /// is recorded and returned to the heap if the transaction aborts.
  gaddr_t tx_alloc(int tid, std::size_t nwords);

  /// Defers the free until the current transaction commits.
  void tx_free(int tid, gaddr_t a, std::size_t nwords);

  /// True when `tid` has uncommitted alloc/free effects — the TM must run
  /// its persist path (arm + marker + apply) even with an empty write set.
  bool has_pending(int tid) const {
    const ThreadHeap& h = heaps_[static_cast<std::size_t>(tid)];
    return !h.pending_allocs.empty() || !h.pending_frees.empty();
  }

  /// Transaction outcome hooks, called by the TM runtime. on_commit runs
  /// on every commit, so the no-effects case (no pending alloc/free and
  /// an empty limbo list) must stay an inline early return.
  void on_commit(int tid) {
    if (!has_pending(tid) && ebr_.limbo_empty(tid)) return;
    on_commit_slow(tid);
  }
  void on_abort(int tid);

  // ---- Crash consistency (TM persist path) ------------------------------
  /// Writes `tid`'s pending alloc/free effects into its persistent intent
  /// record, tagged with the transaction's durability arm id (the
  /// pre-bump pVerNum). The TM calls this before the fence that precedes
  /// its durability marker, so an armed record is always durable before
  /// the marker can be. Throws TmLogicError when a transaction carries
  /// more than kIntentEntries alloc+free effects.
  void persist_arm(int tid, std::uint64_t arm_id);

  /// Applies `tid`'s armed effects to the persistent bitmaps (alloc → set
  /// bit, free → clear bit). The TM calls this after flushing its marker
  /// and before its closing fence; the record stays armed until the next
  /// persist_arm overwrites it, and recovery re-normalizes it either way.
  void persist_apply(int tid);

  /// Durably idles every armed intent record (checkpoint truncation).
  /// Caller must have drained all persist phases: with no arm/apply in
  /// flight, every PREPARED record belongs to a transaction whose apply is
  /// already durably fenced, so idling it only removes work recovery would
  /// have re-done idempotently. Fences on `tid` when anything was idled.
  void quiesce_intents(int tid);

  // ---- Non-transactional interface (setup / tests) ---------------------
  gaddr_t raw_alloc(int tid, std::size_t nwords);
  void raw_free(int tid, gaddr_t a, std::size_t nwords);

  /// Allocates a large contiguous block (whole segments) outside any
  /// transaction — e.g. a hash table's bucket array. Never recycled.
  gaddr_t raw_alloc_large(std::size_t nwords) { return raw_alloc_large(0, nwords); }
  gaddr_t raw_alloc_large(int tid, std::size_t nwords);

  // ---- Runtime integration ---------------------------------------------
  /// Epoch service (every transaction attempt quiesces through this).
  alloc::EpochService& epochs() { return ebr_; }
  const alloc::EpochService& epochs() const { return ebr_; }

  // ---- Recovery ---------------------------------------------------------
  /// Decides whether the transaction that armed `arm_id` on `tid` is
  /// durably committed (NV-HALT/Trinity: arm_id < durable pVerNum[tid]).
  using CommitPredicate = std::function<bool(int tid, std::uint64_t arm_id)>;

  /// Reconstructs allocator state from persistent metadata alone:
  /// normalizes every armed intent record (committed → apply, uncommitted
  /// → revert, sweeping orphaned allocations), then rebuilds free lists
  /// and the segment watermark from the durable bitmaps and headers.
  /// Runs quiescently on recovery thread `rtid`; fences once at the end.
  /// `workers` parallelizes the read-only bitmap scans of Phase 2 across
  /// the recovery worker pool; intent normalization and every metadata
  /// write stay serial on `rtid` in segment order, so the rebuilt state
  /// (and the durable image) is identical for any worker count.
  AllocRecoveryReport recover_metadata(int rtid, const CommitPredicate& committed,
                                       int workers = 1);
  const AllocRecoveryReport& last_recovery() const { return last_recovery_; }

  /// Optional cross-check of persistent metadata against structure
  /// reachability: throws TmLogicError when a live block is not marked
  /// allocated (lost block) or disagrees with segment geometry; reclaims
  /// marked-used blocks no structure owns (crash leaks outside the intent
  /// protocol) and returns how many it reclaimed.
  std::uint64_t verify_rebuild(std::span<const LiveBlock> live);

  /// Drops all volatile state back to a pristine heap (tests).
  void reset();

  AllocStats stats() const;
  gaddr_t heap_begin() const { return space_.heap_begin; }
  std::size_t segment_count() const { return space_.segment_count; }

  // ---- Persistent metadata geometry (inspector / tests) -----------------
  /// Intent entries per thread record; one transaction may allocate+free
  /// at most this many blocks.
  static constexpr std::size_t kIntentEntries = 12;

  std::size_t meta_base() const { return meta_base_; }
  std::uint64_t durable_watermark() const;
  /// The carved end: the first word past the last segment the durable
  /// watermark covers, or heap_begin when the metadata header is absent.
  /// Every word a transaction can write lies below it. Read quiescently
  /// (recovery, or a crash image just installed).
  gaddr_t carved_end() const;
  /// Durable allocation bit of the slot holding `a` (class segments only).
  bool slot_bit(gaddr_t a, std::uint32_t nwords) const;

  /// Scans the persistent metadata (headers, bitmaps, intent records).
  /// Must run quiescently; all-zero with metadata_present=false when the
  /// header never became durable.
  AllocDurableSummary durable_summary() const;

 private:
  // Metadata layout (raw words, all line-aligned):
  //   [meta_base_]                 header line: magic, watermark,
  //                                segment_count, heap_begin
  //   [intent_base_]               kMaxThreads * kIntentWords intent records
  //   [seg_hdr_base_]              segment_count * kWordsPerLine headers
  //   [bitmap_base_]               segment_count * kBitmapWords bitmaps
  static constexpr std::uint64_t kMetaMagic = 0xA110C8ED50105EEDull;
  static constexpr std::size_t kIntentWords = 32;  // state line + 12 entries
  static constexpr std::size_t kBitmapWords = kSegmentWords / 64;
  // Segment header states (word 0 of the header line).
  static constexpr std::uint64_t kSegVirgin = 0;       // never carved / recycled
  static constexpr std::uint64_t kSegLargeHead = 100;  // word 1 = extent in segments
  static constexpr std::uint64_t kSegLargeBody = 101;
  // Intent record phases (low bits of state word 0; count in the rest).
  static constexpr std::uint64_t kIntentIdle = 0;
  static constexpr std::uint64_t kIntentPrepared = 1;

  struct ClassHeap {
    std::vector<gaddr_t> free_list;
    gaddr_t bump_base = kNullAddr;  // current segment base, or null
    std::size_t bump_slot = 0;      // next fresh slot in the segment
  };

  struct alignas(kCacheLineBytes) ThreadHeap {
    std::vector<ClassHeap> classes;  // one per size class
    std::vector<LiveBlock> pending_allocs;
    std::vector<LiveBlock> pending_frees;
    AllocStats stats;
  };

  /// Allocates from the per-thread heap only; returns null if it needs a
  /// fresh segment.
  gaddr_t fast_alloc(int tid, int cls);

  /// Acquires a segment for (tid, cls). Must not run inside a HW txn.
  void acquire_segment(int tid, int cls);

  /// Pulls a batch from the global reclaimed list for (tid, cls).
  void refill_from_global(int tid, int cls);

  gaddr_t alloc_impl(int tid, std::size_t nwords, bool in_txn);
  void push_free(int tid, gaddr_t a, std::size_t nwords);

  /// Throws TmLogicError unless tid is in [0, kMaxThreads): the raw entry
  /// points index heaps_ and the pool's flush queues with it.
  static void check_tid(int tid);

  // ---- Persistent metadata helpers -------------------------------------
  std::size_t intent_base(int tid) const {
    return intent_base_ + static_cast<std::size_t>(tid) * kIntentWords;
  }
  std::size_t seg_hdr_idx(std::size_t seg) const {
    return seg_hdr_base_ + seg * kWordsPerLine;
  }
  std::size_t bitmap_idx(std::size_t seg, std::size_t slot) const {
    return bitmap_base_ + seg * kBitmapWords + slot / 64;
  }

  /// Stores + queues a flush of one metadata word on `tid`'s queue.
  void meta_store(int tid, std::size_t idx, std::uint64_t v);

  /// Read-modify-write of one allocation bit under the segment's spinlock
  /// (slots handed to different threads can share a bitmap word).
  void write_slot_bit(int tid, gaddr_t addr, std::uint32_t nwords, bool set);

  /// Marks a freshly carved segment's class header and advances the
  /// durable watermark; caller holds global_mu_.
  void persist_carve(int tid, std::size_t seg, std::uint64_t state, std::uint64_t extra);

  bool metadata_present() const { return pool_.raw_load(meta_base_) == kMetaMagic; }

  /// Durably writes a fresh metadata header on `tid` (magic last, so a
  /// partially persisted line reads as "no metadata").
  void seed_header(int tid);

  /// Hands a reclaimed (or recovered-free) slot back to `tid`'s heap
  /// without recounting it as a new free.
  void restock(int tid, gaddr_t a, std::uint32_t nwords);

  /// Out-of-line tail of on_commit: retire pending frees into limbo and
  /// drain the reclaimable prefix.
  void on_commit_slow(int tid);

  PmemPool& pool_;
  SegmentSpace space_;

  std::mutex global_mu_;
  std::size_t seg_bump_ = 0;                            // next never-used segment
  std::vector<std::size_t> free_segments_;               // fully recycled segments
  std::vector<std::vector<gaddr_t>> global_free_;        // reclaimed blocks per class

  std::vector<ThreadHeap> heaps_;

  // Persistent metadata + epoch-based reclamation.
  alloc::EpochService ebr_;
  std::size_t meta_base_ = 0;
  std::size_t intent_base_ = 0;
  std::size_t seg_hdr_base_ = 0;
  std::size_t bitmap_base_ = 0;
  std::unique_ptr<std::atomic_flag[]> seg_locks_;
  AllocRecoveryReport last_recovery_;
  std::uint64_t orphans_swept_total_ = 0;
  std::uint64_t leaked_reclaimed_total_ = 0;
};

}  // namespace nvhalt
