#include "alloc/tx_allocator.hpp"

#include <algorithm>

#include "htm/htm_tls.hpp"
#include "htm/htm_types.hpp"
#include "runtime/recovery_pool.hpp"
#include "util/rng.hpp"

namespace nvhalt {

namespace {

/// Intent entry payload: addr | nwords | kind, tag-protected by word 1.
constexpr std::uint64_t kKindAlloc = 0;
constexpr std::uint64_t kKindFree = 1;

std::uint64_t pack_entry(gaddr_t addr, std::uint32_t nwords, std::uint64_t kind) {
  return (static_cast<std::uint64_t>(addr) << 12) | (static_cast<std::uint64_t>(nwords) << 1) |
         kind;
}
gaddr_t entry_addr(std::uint64_t w) { return w >> 12; }
std::uint32_t entry_nwords(std::uint64_t w) { return static_cast<std::uint32_t>((w >> 1) & 0x7FF); }
std::uint64_t entry_kind(std::uint64_t w) { return w & 1; }
/// An entry's tag binds the arm id to the payload it was armed with, so a
/// tag left over from an earlier arm never validates a newer payload: a
/// re-arm torn between the payload store and the tag store reads as a
/// partially armed record, not as the old arm with the new payload.
/// Never 0, so a zeroed entry never validates either.
std::uint64_t entry_tag(std::uint64_t arm_id, std::uint64_t payload) {
  return mix64(arm_id ^ mix64(payload)) | 1;
}

class SegSpinGuard {
 public:
  explicit SegSpinGuard(std::atomic_flag& f) : f_(f) {
    while (f_.test_and_set(std::memory_order_acquire)) cpu_relax();
  }
  ~SegSpinGuard() { f_.clear(std::memory_order_release); }

 private:
  std::atomic_flag& f_;
};

}  // namespace

std::size_t TxAllocator::metadata_words(std::size_t capacity_words, gaddr_t heap_begin) {
  const std::size_t segs = SegmentSpace(heap_begin, capacity_words).segment_count;
  return kWordsPerLine + static_cast<std::size_t>(kMaxThreads) * kIntentWords +
         segs * (kWordsPerLine + kBitmapWords);
}

TxAllocator::TxAllocator(PmemPool& pool, gaddr_t heap_begin)
    : pool_(pool), space_(heap_begin, pool.capacity_words()) {
  if (space_.segment_count == 0)
    throw TmLogicError("pool too small for at least one allocator segment");
  heaps_.resize(kMaxThreads);
  for (auto& h : heaps_) h.classes.resize(kSizeClasses.size());
  global_free_.resize(kSizeClasses.size());

  meta_base_ = pool_.alloc_raw(metadata_words(pool.capacity_words(), heap_begin));
  intent_base_ = meta_base_ + kWordsPerLine;
  seg_hdr_base_ = intent_base_ + static_cast<std::size_t>(kMaxThreads) * kIntentWords;
  bitmap_base_ = seg_hdr_base_ + space_.segment_count * kWordsPerLine;
  seg_locks_ = std::make_unique<std::atomic_flag[]>(space_.segment_count);
  // A pool attached to an existing image keeps its header; recovery
  // rebuilds the volatile state from it.
  if (!metadata_present()) seed_header(0);
}

void TxAllocator::seed_header(int tid) {
  meta_store(tid, meta_base_ + 1, 0);  // watermark
  meta_store(tid, meta_base_ + 2, space_.segment_count);
  meta_store(tid, meta_base_ + 3, space_.heap_begin);
  meta_store(tid, meta_base_, kMetaMagic);
  pool_.fence(tid);
}

void TxAllocator::meta_store(int tid, std::size_t idx, std::uint64_t v) {
  pool_.raw_store(tid, idx, v);
  pool_.flush_raw(tid, idx);
}

void TxAllocator::write_slot_bit(int tid, gaddr_t addr, std::uint32_t nwords, bool set) {
  const int cls = size_class_for(nwords);
  if (cls < 0) throw TmLogicError("slot bit update outside size classes");
  const std::uint32_t cw = kSizeClasses[static_cast<std::size_t>(cls)];
  const std::size_t seg = space_.segment_of(addr);
  const std::size_t slot = space_.slot_of(addr, cw);
  const std::size_t idx = bitmap_idx(seg, slot);
  const std::uint64_t mask = std::uint64_t{1} << (slot % 64);
  // Slots handed to different threads can share a bitmap word, so the
  // read-modify-write serializes per segment.
  SegSpinGuard g(seg_locks_[seg]);
  const std::uint64_t cur = pool_.raw_load(idx);
  meta_store(tid, idx, set ? (cur | mask) : (cur & ~mask));
}

void TxAllocator::persist_carve(int tid, std::size_t seg, std::uint64_t state,
                                std::uint64_t extra) {
  meta_store(tid, seg_hdr_idx(seg) + 1, extra);
  meta_store(tid, seg_hdr_idx(seg), state);
}

gaddr_t TxAllocator::fast_alloc(int tid, int cls) {
  ClassHeap& ch = heaps_[tid].classes[static_cast<std::size_t>(cls)];
  if (!ch.free_list.empty()) {
    const gaddr_t a = ch.free_list.back();
    ch.free_list.pop_back();
    return a;
  }
  if (ch.bump_base != kNullAddr) {
    const std::uint32_t cw = kSizeClasses[static_cast<std::size_t>(cls)];
    if (ch.bump_slot < SegmentSpace::slots_per_segment(cw)) {
      return ch.bump_base + (ch.bump_slot++) * cw;
    }
    ch.bump_base = kNullAddr;
  }
  return kNullAddr;
}

void TxAllocator::refill_from_global(int tid, int cls) {
  std::lock_guard<std::mutex> g(global_mu_);
  auto& gf = global_free_[static_cast<std::size_t>(cls)];
  if (gf.empty()) return;
  auto& fl = heaps_[tid].classes[static_cast<std::size_t>(cls)].free_list;
  const std::size_t take = std::min<std::size_t>(gf.size(), 64);
  fl.insert(fl.end(), gf.end() - static_cast<std::ptrdiff_t>(take), gf.end());
  gf.resize(gf.size() - take);
}

void TxAllocator::acquire_segment(int tid, int cls) {
  std::size_t seg;
  {
    std::lock_guard<std::mutex> g(global_mu_);
    bool fresh = false;
    if (!free_segments_.empty()) {
      seg = free_segments_.back();
      free_segments_.pop_back();
    } else {
      if (seg_bump_ >= space_.segment_count) throw TmLogicError("persistent heap exhausted");
      seg = seg_bump_++;
      fresh = true;
    }
    // Durable carve: class header (and watermark, for fresh segments)
    // are fenced before any slot of the segment can be handed out.
    // Recovery reads records only below the carved end, so a watermark
    // fenced after the hand-out would lose the segment's records.
    persist_carve(tid, seg, 1 + static_cast<std::uint64_t>(cls), 0);
    if (fresh) meta_store(tid, meta_base_ + 1, seg_bump_);
    pool_.fence(tid);
  }
  ClassHeap& ch = heaps_[tid].classes[static_cast<std::size_t>(cls)];
  ch.bump_base = space_.segment_base(seg);
  ch.bump_slot = 0;
  heaps_[tid].stats.segments_acquired++;
}

gaddr_t TxAllocator::alloc_impl(int tid, std::size_t nwords, bool in_txn) {
  const int cls = size_class_for(nwords);
  if (cls < 0) throw TmLogicError("allocation exceeds largest size class");
  gaddr_t a = fast_alloc(tid, cls);
  if (a == kNullAddr) {
    // Global work (mutex, possibly fresh segment) cannot run inside a
    // hardware transaction; on real RTM it would abort anyway.
    if (htm::in_hw_txn()) throw htm::HtmAbort{htm::AbortCause::kExplicit, kAllocAbortCode};
    // Epoch-deferred frees come home before we reach for shared space.
    ebr_.reclaim(tid, [this, tid](gaddr_t ra, std::uint32_t rn) { restock(tid, ra, rn); });
    a = fast_alloc(tid, cls);
    if (a == kNullAddr) {
      refill_from_global(tid, cls);
      a = fast_alloc(tid, cls);
      if (a == kNullAddr) {
        acquire_segment(tid, cls);
        a = fast_alloc(tid, cls);
      }
    }
  }
  heaps_[tid].stats.allocs++;
  if (in_txn)
    heaps_[tid].pending_allocs.push_back({a, static_cast<std::uint32_t>(nwords)});
  return a;
}

gaddr_t TxAllocator::tx_alloc(int tid, std::size_t nwords) {
  return alloc_impl(tid, nwords, /*in_txn=*/true);
}

void TxAllocator::check_tid(int tid) {
  if (static_cast<unsigned>(tid) >= static_cast<unsigned>(kMaxThreads))
    throw TmLogicError("allocator thread id " + std::to_string(tid) + " out of range [0, " +
                       std::to_string(kMaxThreads) + ")");
}

gaddr_t TxAllocator::raw_alloc(int tid, std::size_t nwords) {
  check_tid(tid);
  const gaddr_t a = alloc_impl(tid, nwords, /*in_txn=*/false);
  // Non-transactional setup allocation: persist the bit eagerly.
  write_slot_bit(tid, a, static_cast<std::uint32_t>(nwords), true);
  pool_.fence(tid);
  return a;
}

gaddr_t TxAllocator::raw_alloc_large(int tid, std::size_t nwords) {
  check_tid(tid);
  if (htm::in_hw_txn()) throw htm::HtmAbort{htm::AbortCause::kExplicit, kAllocAbortCode};
  const std::size_t nsegs = (nwords + kSegmentWords - 1) / kSegmentWords;
  std::lock_guard<std::mutex> g(global_mu_);
  if (seg_bump_ + nsegs > space_.segment_count) throw TmLogicError("persistent heap exhausted");
  const std::size_t first = seg_bump_;
  seg_bump_ += nsegs;
  persist_carve(tid, first, kSegLargeHead, nsegs);
  for (std::size_t s = first + 1; s < first + nsegs; ++s) persist_carve(tid, s, kSegLargeBody, 0);
  meta_store(tid, meta_base_ + 1, seg_bump_);
  pool_.fence(tid);
  return space_.segment_base(first);
}

void TxAllocator::push_free(int tid, gaddr_t a, std::size_t nwords) {
  const int cls = size_class_for(nwords);
  if (cls < 0) throw TmLogicError("free exceeds largest size class");
  heaps_[tid].classes[static_cast<std::size_t>(cls)].free_list.push_back(a);
  heaps_[tid].stats.frees++;
}

void TxAllocator::restock(int tid, gaddr_t a, std::uint32_t nwords) {
  const int cls = size_class_for(nwords);
  if (cls < 0) throw TmLogicError("restock outside size classes");
  heaps_[tid].classes[static_cast<std::size_t>(cls)].free_list.push_back(a);
}

void TxAllocator::tx_free(int tid, gaddr_t a, std::size_t nwords) {
  heaps_[tid].pending_frees.push_back({a, static_cast<std::uint32_t>(nwords)});
}

void TxAllocator::raw_free(int tid, gaddr_t a, std::size_t nwords) {
  check_tid(tid);
  write_slot_bit(tid, a, static_cast<std::uint32_t>(nwords), false);
  pool_.fence(tid);
  push_free(tid, a, nwords);
}

void TxAllocator::persist_arm(int tid, std::uint64_t arm_id) {
  ThreadHeap& h = heaps_[tid];
  const std::size_t count = h.pending_allocs.size() + h.pending_frees.size();
  if (count == 0) return;
  if (count > kIntentEntries)
    throw TmLogicError("allocator intent record overflow: one transaction carries more than " +
                       std::to_string(kIntentEntries) + " alloc/free effects");
  const std::size_t base = intent_base(tid);
  // Entries are overwritten in place while the state line may still
  // durably name the previous arm. Skipping that stale record when a crash
  // tears this re-arm is safe: the previous transaction's apply bits were
  // fenced by its closing fence (after its marker) before this thread
  // could arm again, so nothing of it is left to re-apply.
  std::size_t i = 0;
  auto put_entry = [&](const LiveBlock& b, std::uint64_t kind) {
    const std::size_t e = base + kWordsPerLine + i * 2;
    const std::uint64_t payload = pack_entry(b.addr, b.nwords, kind);
    // Payload before tag (same line): a durable tag implies a durable
    // payload under the store-order crash adversary.
    meta_store(tid, e, payload);
    meta_store(tid, e + 1, entry_tag(arm_id, payload));
    ++i;
  };
  for (const LiveBlock& b : h.pending_allocs) put_entry(b, kKindAlloc);
  for (const LiveBlock& b : h.pending_frees) put_entry(b, kKindFree);
  // State line: arm id before phase|count (same line, same argument).
  meta_store(tid, base + 1, arm_id);
  meta_store(tid, base, (static_cast<std::uint64_t>(count) << 2) | kIntentPrepared);
  pool_.journal_alloc_mark(tid, (arm_id << 8) | static_cast<std::uint64_t>(count));
}

void TxAllocator::persist_apply(int tid) {
  ThreadHeap& h = heaps_[tid];
  if (h.pending_allocs.empty() && h.pending_frees.empty()) return;
  // No disarm write: the record stays armed until the next persist_arm
  // overwrites it, and recovery re-normalizes it idempotently. (An eager
  // disarm could persist ahead of the marker and hide stray apply bits
  // from recovery.)
  for (const LiveBlock& b : h.pending_allocs) write_slot_bit(tid, b.addr, b.nwords, true);
  for (const LiveBlock& b : h.pending_frees) write_slot_bit(tid, b.addr, b.nwords, false);
  pool_.journal_alloc_mark(tid, 1);
}

void TxAllocator::on_commit_slow(int tid) {
  ThreadHeap& h = heaps_[tid];
  // Physical reuse defers through the epoch limbo: a lock-free RO
  // snapshot begun before this commit may still read the freed nodes.
  for (const LiveBlock& b : h.pending_frees) {
    ebr_.retire(tid, b.addr, b.nwords);
    h.stats.frees++;
  }
  h.pending_frees.clear();
  h.pending_allocs.clear();
  ebr_.reclaim(tid, [this, tid](gaddr_t ra, std::uint32_t rn) { restock(tid, ra, rn); });
}

void TxAllocator::on_abort(int tid) {
  ThreadHeap& h = heaps_[tid];
  // The transaction never happened: its allocations return to the heap and
  // its frees are forgotten. (Nothing durable to undo: intent records are
  // armed only on the commit path.)
  for (const LiveBlock& b : h.pending_allocs) push_free(tid, b.addr, b.nwords);
  h.pending_allocs.clear();
  h.pending_frees.clear();
}

void TxAllocator::reset() {
  std::lock_guard<std::mutex> g(global_mu_);
  seg_bump_ = 0;
  free_segments_.clear();
  for (auto& gf : global_free_) gf.clear();
  for (auto& h : heaps_) {
    for (auto& ch : h.classes) {
      ch.free_list.clear();
      ch.bump_base = kNullAddr;
      ch.bump_slot = 0;
    }
    h.pending_allocs.clear();
    h.pending_frees.clear();
  }
  ebr_.reset();
}

std::uint64_t TxAllocator::durable_watermark() const {
  return pool_.raw_load(meta_base_ + 1);
}

gaddr_t TxAllocator::carved_end() const {
  if (!metadata_present()) return space_.heap_begin;
  return space_.segment_base(static_cast<std::size_t>(
      std::min<std::uint64_t>(durable_watermark(), space_.segment_count)));
}

bool TxAllocator::slot_bit(gaddr_t a, std::uint32_t nwords) const {
  const int cls = size_class_for(nwords);
  if (cls < 0) throw TmLogicError("slot bit query outside size classes");
  const std::uint32_t cw = kSizeClasses[static_cast<std::size_t>(cls)];
  const std::size_t seg = space_.segment_of(a);
  const std::size_t slot = space_.slot_of(a, cw);
  return (pool_.raw_load(bitmap_idx(seg, slot)) >> (slot % 64)) & 1;
}

void TxAllocator::quiesce_intents(int tid) {
  if (!metadata_present()) return;
  bool idled = false;
  for (int t = 0; t < kMaxThreads; ++t) {
    const std::size_t base = intent_base(t);
    if ((pool_.raw_load(base) & 3) != kIntentPrepared) continue;
    // Persist phases are drained (checkpoint holds the exclusive side), so
    // this record's transaction has durably applied its effects; idling it
    // only removes recovery's idempotent re-application.
    meta_store(tid, base, kIntentIdle);
    meta_store(tid, base + 1, 0);
    idled = true;
  }
  if (idled) pool_.fence(tid);
}

AllocDurableSummary TxAllocator::durable_summary() const {
  AllocDurableSummary s;
  if (!metadata_present()) return s;
  s.metadata_present = true;
  s.segment_count = space_.segment_count;
  std::uint64_t wm = pool_.raw_load(meta_base_ + 1);
  if (wm > space_.segment_count) wm = space_.segment_count;
  s.watermark = wm;
  for (int tid = 0; tid < kMaxThreads; ++tid) {
    if ((pool_.raw_load(intent_base(tid)) & 3) == kIntentPrepared) ++s.armed_intents;
  }
  for (std::size_t seg = 0; seg < wm;) {
    const std::uint64_t hdr = pool_.raw_load(seg_hdr_idx(seg));
    if (hdr == kSegVirgin) {
      ++s.free_segments;
      ++seg;
      continue;
    }
    if (hdr == kSegLargeHead || hdr == kSegLargeBody) {
      const std::uint64_t extent =
          hdr == kSegLargeHead ? pool_.raw_load(seg_hdr_idx(seg) + 1) : 1;
      const std::uint64_t step =
          extent == 0 || seg + extent > space_.segment_count ? 1 : extent;
      s.large_segments += step;
      seg += static_cast<std::size_t>(step);
      continue;
    }
    if (hdr >= 1 && hdr <= kSizeClasses.size()) {
      const std::uint32_t cw = kSizeClasses[static_cast<std::size_t>(hdr - 1)];
      const std::size_t slots = SegmentSpace::slots_per_segment(cw);
      for (std::size_t slot = 0; slot < slots; ++slot) {
        if ((pool_.raw_load(bitmap_idx(seg, slot)) >> (slot % 64)) & 1) ++s.used_slots;
      }
    }
    ++seg;
  }
  return s;
}

AllocRecoveryReport TxAllocator::recover_metadata(int rtid, const CommitPredicate& committed,
                                                 int workers) {
  AllocRecoveryReport rep;
  rep.ran = true;

  // Start from pristine volatile state; limbo entries die with the crash
  // (their durable bits are already cleared, so the bitmap scan below
  // rebuilds them straight onto free lists).
  reset();

  if (!metadata_present()) {
    // The crash predates the metadata header fence: nothing was ever
    // allocated durably. Re-seed the header.
    seed_header(rtid);
    last_recovery_ = rep;
    return rep;
  }
  rep.found_metadata = true;

  // Phase 1: normalize every armed intent record. A record whose entry
  // tags all match its arm id and their payloads was fully armed (the arm
  // rides the fence before the durability marker); apply it if its
  // transaction committed, revert it otherwise — both are idempotent
  // absolute bit writes, so a record whose apply already (partially)
  // persisted normalizes the same way. A partially armed record is either
  // an uncommitted transaction whose apply never ran, or a predecessor
  // whose entries a torn re-arm overwrote and whose apply is already
  // durable (see persist_arm): skipping it is safe.
  for (int tid = 0; tid < kMaxThreads; ++tid) {
    const std::size_t base = intent_base(tid);
    const std::uint64_t state = pool_.raw_load(base);
    if ((state & 3) != kIntentPrepared) continue;
    const std::uint64_t count = state >> 2;
    const std::uint64_t arm_id = pool_.raw_load(base + 1);
    if (count == 0 || count > kIntentEntries) {
      rep.intents_skipped++;
      continue;
    }
    bool valid = true;
    for (std::uint64_t e = 0; e < count; ++e) {
      const std::size_t ent = base + kWordsPerLine + e * 2;
      if (pool_.raw_load(ent + 1) != entry_tag(arm_id, pool_.raw_load(ent))) {
        valid = false;
        break;
      }
    }
    if (!valid) {
      rep.intents_skipped++;
      continue;
    }
    const bool did_commit = committed(tid, arm_id);
    for (std::uint64_t e = 0; e < count; ++e) {
      const std::uint64_t w = pool_.raw_load(base + kWordsPerLine + e * 2);
      const bool is_alloc = entry_kind(w) == kKindAlloc;
      const bool bit = did_commit ? is_alloc : !is_alloc;
      write_slot_bit(rtid, entry_addr(w), entry_nwords(w), bit);
      if (did_commit) {
        rep.intents_applied++;
      } else {
        rep.intents_reverted++;
        if (is_alloc) rep.orphans_swept++;
      }
    }
    // Disarm (safe here: recovery is quiescent and fences before any new
    // transaction can arm).
    meta_store(rtid, base, kIntentIdle);
    meta_store(rtid, base + 1, 0);
  }

  // Phase 2: rebuild volatile state from the durable headers and bitmaps.
  // The header walk is serial — large-object extents make blind segment
  // partitioning unsound (a partition could start inside an extent) — and
  // so is every metadata write. Only the per-segment slot-bit scans, pure
  // reads over disjoint bitmaps, fan out across the recovery worker pool;
  // the in-order merge below then replays the serial path's stores and
  // free-list pushes exactly, so the rebuilt state is identical for any
  // worker count.
  std::uint64_t wm = pool_.raw_load(meta_base_ + 1);
  if (wm > space_.segment_count) wm = space_.segment_count;
  rep.watermark = wm;
  seg_bump_ = static_cast<std::size_t>(wm);

  struct SegScan {
    std::size_t seg;
    int cls;
    std::size_t used = 0;
    std::vector<gaddr_t> free_slots;
  };
  struct WalkItem {
    std::size_t seg;
    std::uint64_t hdr;
    std::ptrdiff_t scan = -1;  // index into `scans` for class segments
  };
  std::vector<WalkItem> walk;
  std::vector<SegScan> scans;
  for (std::size_t seg = 0; seg < wm;) {
    const std::uint64_t s = pool_.raw_load(seg_hdr_idx(seg));
    if (s == kSegVirgin) {
      walk.push_back({seg, s, -1});
      ++seg;
      continue;
    }
    if (s == kSegLargeHead) {
      const std::uint64_t extent = pool_.raw_load(seg_hdr_idx(seg) + 1);
      if (extent == 0 || seg + extent > space_.segment_count)
        throw TmLogicError("corrupt large-object extent in allocator metadata");
      seg += extent;
      continue;
    }
    if (s == kSegLargeBody)
      throw TmLogicError("orphan large-object body segment in allocator metadata");
    if (s < 1 || s > kSizeClasses.size())
      throw TmLogicError("corrupt allocator segment header");
    walk.push_back({seg, s, static_cast<std::ptrdiff_t>(scans.size())});
    scans.push_back({seg, static_cast<int>(s) - 1, 0, {}});
    ++seg;
  }

  runtime::run_recovery_partitions(
      scans.size(), workers, rtid, [&](int /*wtid*/, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          SegScan& sc = scans[i];
          const std::uint32_t cw = kSizeClasses[static_cast<std::size_t>(sc.cls)];
          const std::size_t slots = SegmentSpace::slots_per_segment(cw);
          const gaddr_t sbase = space_.segment_base(sc.seg);
          for (std::size_t slot = 0; slot < slots; ++slot) {
            if ((pool_.raw_load(bitmap_idx(sc.seg, slot)) >> (slot % 64)) & 1) {
              ++sc.used;
            } else {
              sc.free_slots.push_back(sbase + slot * cw);
            }
          }
        }
      });

  for (const WalkItem& it : walk) {
    if (it.hdr == kSegVirgin) {
      free_segments_.push_back(it.seg);
      rep.free_segments++;
      continue;
    }
    const SegScan& sc = scans[static_cast<std::size_t>(it.scan)];
    if (sc.used == 0) {
      // Every slot came home: recycle the segment whole for any class.
      meta_store(rtid, seg_hdr_idx(it.seg), kSegVirgin);
      free_segments_.push_back(it.seg);
      rep.free_segments++;
    } else {
      for (const gaddr_t a : sc.free_slots) {
        global_free_[static_cast<std::size_t>(sc.cls)].push_back(a);
        rep.free_slots++;
      }
    }
  }
  pool_.fence(rtid);

  orphans_swept_total_ += rep.orphans_swept;
  last_recovery_ = rep;
  return rep;
}

std::uint64_t TxAllocator::verify_rebuild(std::span<const LiveBlock> live) {
  if (!metadata_present()) {
    if (!live.empty())
      throw TmLogicError("live blocks reported but no persistent allocator metadata");
    return 0;
  }
  const std::uint64_t wm = durable_watermark();

  // Pass 1: every live block must agree with the durable metadata.
  struct SegUsed {
    std::vector<bool> used;
  };
  std::vector<SegUsed> segs(space_.segment_count);
  for (const LiveBlock& b : live) {
    if (b.addr < space_.heap_begin) throw TmLogicError("live block below heap");
    const std::size_t seg = space_.segment_of(b.addr);
    if (seg >= space_.segment_count) throw TmLogicError("live block beyond heap");
    if (seg >= wm) throw TmLogicError("live block beyond the durable segment watermark");
    const std::uint64_t s = pool_.raw_load(seg_hdr_idx(seg));
    if (s == kSegLargeHead || s == kSegLargeBody) {
      // Large extent (raw_alloc_large): classified by the header, not the
      // block size — small arrays are carved as whole segments too. The
      // block must start at its head segment and fit the recorded extent.
      if (s != kSegLargeHead || b.addr != space_.segment_base(seg))
        throw TmLogicError("large-extent live block not at its head segment");
      const std::uint64_t extent = pool_.raw_load(seg_hdr_idx(seg) + 1);
      if (extent == 0 || seg + extent > wm)
        throw TmLogicError("large live block beyond the durable watermark");
      if (b.addr + b.nwords > space_.segment_base(seg) + extent * kSegmentWords)
        throw TmLogicError("large live block exceeds its recorded extent");
      for (std::size_t body = seg + 1; body < seg + extent; ++body) {
        if (pool_.raw_load(seg_hdr_idx(body)) != kSegLargeBody)
          throw TmLogicError("large live block with corrupt body segment");
      }
      continue;
    }
    const int cls = size_class_for(b.nwords);
    if (cls < 0) throw TmLogicError("oversize live block outside a large extent");
    if (s != 1 + static_cast<std::uint64_t>(cls))
      throw TmLogicError("live block class disagrees with persistent segment header");
    const std::uint32_t cw = kSizeClasses[static_cast<std::size_t>(cls)];
    if ((b.addr - space_.segment_base(seg)) % cw != 0)
      throw TmLogicError("live block not aligned to its size class slot");
    const std::size_t slot = space_.slot_of(b.addr, cw);
    if (!slot_bit(b.addr, b.nwords))
      throw TmLogicError("live block not marked allocated in persistent metadata (lost block)");
    auto& su = segs[seg];
    if (su.used.empty()) su.used.assign(SegmentSpace::slots_per_segment(cw), false);
    su.used[slot] = true;
  }

  // Pass 2: sweep marked-used slots no structure owns (leaks outside the
  // intent protocol, e.g. crash-orphaned setup allocations) back onto the
  // free lists, durably.
  std::uint64_t leaked = 0;
  {
    std::lock_guard<std::mutex> g(global_mu_);
    for (std::size_t seg = 0; seg < wm; ++seg) {
      const std::uint64_t s = pool_.raw_load(seg_hdr_idx(seg));
      if (s < 1 || s > kSizeClasses.size()) continue;  // virgin or large
      const int cls = static_cast<int>(s) - 1;
      const std::uint32_t cw = kSizeClasses[static_cast<std::size_t>(cls)];
      const std::size_t slots = SegmentSpace::slots_per_segment(cw);
      const gaddr_t sbase = space_.segment_base(seg);
      const auto& su = segs[seg];
      for (std::size_t slot = 0; slot < slots; ++slot) {
        const bool bit = (pool_.raw_load(bitmap_idx(seg, slot)) >> (slot % 64)) & 1;
        const bool is_live = !su.used.empty() && su.used[slot];
        if (bit && !is_live) {
          write_slot_bit(0, sbase + slot * cw, cw, false);
          global_free_[static_cast<std::size_t>(cls)].push_back(sbase + slot * cw);
          ++leaked;
        }
      }
    }
  }
  if (leaked != 0) pool_.fence(0);
  leaked_reclaimed_total_ += leaked;
  return leaked;
}

AllocStats TxAllocator::stats() const {
  AllocStats agg;
  for (const auto& h : heaps_) {
    agg.allocs += h.stats.allocs;
    agg.frees += h.stats.frees;
    agg.segments_acquired += h.stats.segments_acquired;
  }
  agg.retired = ebr_.retired_total();
  agg.reclaimed = ebr_.reclaimed_total();
  agg.limbo = ebr_.limbo_depth();
  agg.orphans_swept = orphans_swept_total_;
  agg.leaked_reclaimed = leaked_reclaimed_total_;
  return agg;
}

}  // namespace nvhalt
