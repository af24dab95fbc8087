// Internal per-thread transaction context shared by the NV-HALT software
// and hardware path translation units. Not part of the public API.
#pragma once

#include <vector>

#include "core/nvhalt_tm.hpp"
#include "htm/small_map.hpp"
#include "locks/versioned_lock.hpp"
#include "runtime/per_thread.hpp"

namespace nvhalt {

/// Stats, RNG and the pver cache live in the shared runtime::TxThreadState
/// base; this adds NV-HALT's path-specific scratch.
struct alignas(kCacheLineBytes) NvHaltTm::ThreadCtx : runtime::TxThreadState {
  // ---- Software path (Fig. 1) ----------------------------------------
  struct ReadEnt {
    gaddr_t addr;
    std::atomic<std::uint64_t>* lock_s;
    std::atomic<std::uint64_t>* lock_h;
    htm::LocId lock_loc;
    std::uint64_t seen_s;  // encounter-time sLock word
    std::uint64_t seen_h;  // encounter-time hVer (SP only)
  };
  struct WriteEnt {
    gaddr_t addr;
    word_t val;
    std::atomic<std::uint64_t>* lock_s;
    std::atomic<std::uint64_t>* lock_h;
    htm::LocId lock_loc;
    std::uint64_t seen_s;  // encounter-time sLock word (CAS expected value)
  };
  std::vector<ReadEnt> rdset;
  std::vector<WriteEnt> wrset;
  htm::SmallIndexMap wr_index;       // gaddr -> wrset index
  htm::SmallIndexMap lock_dedupe;    // lock pointer -> wrset index that acquired it
  std::vector<std::uint32_t> acquired;  // wrset indices that performed the CAS
  std::uint64_t rv = 0;              // SP: gClock read at TxStart (Fig. 7)
  std::uint64_t validated_seq = 0;   // commit_seq covering the last full validation

  // ---- Hardware path (Fig. 5) -----------------------------------------
  struct HwUndoEnt {
    gaddr_t addr;
    word_t old;
  };
  std::vector<HwUndoEnt> hw_undo;  // thread-local append-only log
  /// Locks acquired inside the HW txn, with the word each acquisition
  /// stored. Nobody mutates a lock held by a live owner (acquire CASes
  /// expect an unlocked pre-image), so the release loop can compute the
  /// released word from this copy instead of re-loading the lock.
  struct HwLockEnt {
    LockRef lk;
    std::uint64_t acq;  // lock word as stored by htmAcquireLock
  };
  std::vector<HwLockEnt> hw_locks;
  bool hw_wrote = false;  // any data store this attempt (RO-commit signal)

  /// One-entry lock memo for the hw fast path: the last lock s-word this
  /// attempt checked, plus its transactionally-observed value. Sound to
  /// reuse because the first check subscribed the lock's line — any foreign
  /// change dooms the transaction before it can commit, so within an
  /// attempt the cached word is the word a re-load would return. Cleared
  /// at each attempt start.
  std::atomic<std::uint64_t>* hw_lock_memo = nullptr;
  std::uint64_t hw_lock_memo_word = 0;

  // ---- Read-only fast path (docs/PROTOCOLS.md) --------------------------
  /// One entry per unique lock line touched by the read-only attempt:
  /// the s-lock word pointer and the word observed when the line was first
  /// read (the pre-image every later validation compares against).
  struct RoEnt {
    std::atomic<std::uint64_t>* lock_s;
    std::uint64_t seen_s;
  };
  std::vector<RoEnt> ro_set;
  /// Unique-line lookup is hybrid: while ro_set is short a linear pointer
  /// scan beats hashing (the whole vector is a couple of cache-hot lines),
  /// so ro_index only takes over — populated in one sweep — once the set
  /// outgrows kRoLinearScanMax entries. ro_indexed records the handoff.
  /// ro_filter is a 64-bit membership summary over recorded lock pointers:
  /// most lookups are first accesses (misses), and a clear filter bit
  /// answers them in one test instead of a full scan or hash probe.
  static constexpr std::size_t kRoLinearScanMax = 32;
  htm::SmallIndexMap ro_index;  // lock pointer -> ro_set index
  std::uint64_t ro_filter = 0;
  bool ro_indexed = false;
  /// One-entry memo: the last lock word this RO attempt resolved, so runs
  /// of reads within a line skip the index probe entirely (same O(unique
  /// lines) trick as hw_lock_memo).
  std::atomic<std::uint64_t>* ro_memo_lock = nullptr;
  std::uint64_t ro_memo_seen = 0;
  /// commit_seq covering the last full ro_set validation (TL2 snapshot).
  std::uint64_t ro_seq = 0;

  // ---- Shared persistence scratch ---------------------------------------
  std::vector<UndoRecords::Entry> persist_buf;  // the write set UndoRecords::commit persists

  /// Pre-sizes every per-transaction scratch vector once at TM
  /// construction so the steady state never reallocates on the hot path
  /// (clear() keeps capacity; only footprints beyond these grow later).
  void reserve_scratch() {
    rdset.reserve(256);
    wrset.reserve(64);
    acquired.reserve(64);
    persist_buf.reserve(64);
    hw_undo.reserve(64);
    hw_locks.reserve(64);
    ro_set.reserve(256);
  }
};

/// Thrown by the read-only snapshot engine when the body writes (or
/// allocates/frees): the attempt is abandoned and the transaction rerouted
/// to the general path. Internal control flow, never escapes the TM.
struct TxRoDemote {};

/// xabort code used by the hardware path when it encounters a foreign lock.
inline constexpr std::uint8_t kHwLockedAbortCode = 0x7C;

}  // namespace nvhalt
