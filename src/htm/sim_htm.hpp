// Software-simulated best-effort hardware transactional memory with Intel
// RTM semantics. TSX is fused off on modern CPUs (and absent here), so the
// paper's fast path runs on this simulator instead; see DESIGN.md for the
// substitution argument. The simulator preserves the five RTM properties
// NV-HALT's correctness rests on:
//
//   1. Eager conflict detection: two concurrent transactions touching the
//      same location, at least one writing, abort at least one of them
//      *before* either can observe inconsistent state.
//   2. Atomic publication: a transaction's writes become visible to every
//      other thread (transactional or not) all-or-nothing at xend.
//   3. Abort-anytime: capacity aborts shaped like an 8-way/64-set L1 for
//      write sets, plus seedable spurious-abort injection.
//   4. Flush instructions inside a transaction abort it (see PmemPool).
//   5. Non-transactional accesses conflict with transactions tracking the
//      location (reads abort writers; writes abort readers and writers).
//
// Mechanism: every shared location (pool word, lock word, global scalar)
// has a LocId; its cache *line* (LocId >> 3, matching RTM's line-granular
// read/write sets) hashes onto a striped conflict table (the simulated
// cache-coherence directory). Transactional writes are buffered in a
// per-thread write set and published at commit while the writer's stripe
// registrations are still held, which is what makes publication atomic for
// all observers. Aborts transfer control back to "xbegin" by throwing
// HtmAbort, caught by the attempt wrapper in the TM runtime.
//
// Hot-path cost model (DESIGN.md Sec. 10): line-granular tracking plus a
// per-thread two-entry line memo means only the *first* access to each
// line pays for hashing, set probes and conflict-table registration;
// repeated same-line accesses (node scans) are one data access plus one
// relaxed status check. The memory-order downgrade argument for each
// non-seq_cst atomic below is spelled out at its site and in Sec. 10.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "htm/conflict_table.hpp"
#include "htm/htm_stats.hpp"
#include "htm/htm_types.hpp"
#include "htm/small_map.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace nvhalt::htm {

struct HtmConfig {
  /// Conflict-table stripes (power of two). Collisions model false sharing.
  std::size_t stripe_count = std::size_t{1} << 14;
  /// Read-set capacity in cache lines (L2/L3-backed read tracking).
  std::size_t max_read_lines = 8192;
  /// Write-set shape: an l1_ways-associative, l1_sets-set L1 cache. A
  /// transaction aborts with kCapacity when more than l1_ways distinct
  /// written lines map to one set ("as few as 9 addresses" in the paper).
  int l1_ways = 8;
  int l1_sets = 64;
  /// Probability that any single transactional access aborts spuriously.
  double spurious_abort_prob = 0.0;
  std::uint64_t seed = 42;
};

class SimHtm {
 public:
  explicit SimHtm(const HtmConfig& cfg = HtmConfig{});
  ~SimHtm();

  SimHtm(const SimHtm&) = delete;
  SimHtm& operator=(const SimHtm&) = delete;

  const HtmConfig& config() const { return cfg_; }

  // ---- Transactional interface (xbegin/xend/xabort) -------------------
  /// Starts a hardware transaction on the calling thread. The thread must
  /// not already be in one (no nesting, as with flattened RTM we model the
  /// outermost transaction only).
  void begin(int tid);

  /// Attempts to commit; on success all buffered writes are published
  /// atomically. Throws HtmAbort if the transaction was doomed.
  void commit(int tid);

  /// Voluntary abort (xabort imm8).
  [[noreturn]] void xabort(int tid, std::uint8_t code);

  /// Aborts and cleans up the calling thread's transaction without
  /// throwing. Used when a foreign exception unwinds through the
  /// transaction body. No-op if the thread is not in a transaction.
  void cancel(int tid);

  /// Transactional load/store. `target` is the backing atomic the location
  /// lives in; `loc` its identity for conflict tracking.
  std::uint64_t load(int tid, LocId loc, const std::atomic<std::uint64_t>* target);
  void store(int tid, LocId loc, std::atomic<std::uint64_t>* target, std::uint64_t val);

  /// Transactional store that also reports whether this is the first
  /// buffered write to `target`, returning the pre-transaction value via
  /// `prev` (ignored when null) when it is. Equivalent to a load+store
  /// pair but pays one write-buffer probe instead of two and no separate
  /// read registration — the writer registration subsumes it. Built for
  /// undo logging on the persisting hardware path.
  bool store_prev(int tid, LocId loc, std::atomic<std::uint64_t>* target, std::uint64_t val,
                  std::uint64_t* prev);

  // ---- Non-transactional interface ------------------------------------
  /// A plain load that respects transactional publication atomicity and
  /// aborts transactions holding `loc` in their write set.
  std::uint64_t nontx_load(int tid, LocId loc, const std::atomic<std::uint64_t>* target);

  /// A plain store; aborts every transaction tracking `loc`.
  void nontx_store(int tid, LocId loc, std::atomic<std::uint64_t>* target, std::uint64_t val);

  /// Cached stripe claim for a run of non-transactional stores (the
  /// persist/apply loop under held locks): consecutive stores whose lines
  /// land on the same stripe reuse one claim instead of paying the
  /// claim/abort-scan/release round per word. Holding the tag across the
  /// run is equivalent to back-to-back nontx_store calls: transactional
  /// readers that registered before the claim are aborted by its reader
  /// scan, readers registering during it observe the tag on their seq_cst
  /// writer check and self-abort, and non-transactional readers wait the
  /// tag out in neutralize_writer_for_load exactly as for a single store.
  /// The caller ends the run with nontx_claim_release; the destructor
  /// backstops exceptional unwinds. The backstop is load-bearing: the
  /// persist loops interleave cached stores with pool calls that throw
  /// when the crash coordinator trips, and a leaked nontx tag has no epoch
  /// by which claim_stripe_nontx could ever detect it as stale — every
  /// later claimant of the stripe would spin forever.
  struct NontxClaim {
    SimHtm* htm = nullptr;
    std::uint32_t stripe = 0;
    std::uint64_t tag = 0;
    bool held = false;
    NontxClaim() = default;
    NontxClaim(const NontxClaim&) = delete;
    NontxClaim& operator=(const NontxClaim&) = delete;
    ~NontxClaim() {
      if (held) htm->release_stripe_nontx(stripe, tag);
    }
  };
  void nontx_store_cached(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                          std::uint64_t val, NontxClaim& claim);
  void nontx_claim_release(NontxClaim& claim);

  /// A plain CAS; aborts every transaction tracking `loc`. Returns true on
  /// success and updates `expected` otherwise.
  bool nontx_cas(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                 std::uint64_t& expected, std::uint64_t desired);

  /// A plain fetch_add; aborts every transaction tracking `loc`.
  std::uint64_t nontx_fetch_add(int tid, LocId loc, std::atomic<std::uint64_t>* target,
                                std::uint64_t delta);

  // ---- Introspection ---------------------------------------------------
  bool thread_in_txn(int tid) const;
  HtmStats aggregate_stats() const;
  void reset_stats();

  /// Clears all conflict-tracking state; only valid when no thread is in a
  /// transaction (used by recovery and tests).
  void reset();

  /// Used by PmemPool via the TLS hooks.
  [[noreturn]] void abort_current_flush();

 private:
  struct Context;

  [[noreturn]] void do_abort(int tid, AbortCause cause, std::uint8_t code = 0);
  void cleanup(int tid, bool committed);
  void check_self(int tid);
  void maybe_spurious(int tid);
  void register_read_line(Context& c, int tid, std::uint64_t line, std::size_t mi);
  void register_write_line(Context& c, int tid, std::uint64_t line, std::size_t mi);
  void abort_reader(int r);
  void neutralize_writer_for_load(std::uint32_t stripe_idx, int self_tid);
  std::uint64_t claim_stripe_nontx(std::uint32_t stripe_idx, int tid);
  void release_stripe_nontx(std::uint32_t stripe_idx, std::uint64_t tag);
  void abort_readers_on_stripe(std::uint32_t stripe_idx, int self_tid);

  /// Canonical location for line/stripe purposes: a colocated lock shares
  /// its word's cache line (that is the point of colocating).
  static LocId canonical(LocId loc) {
    if ((loc >> 60) == static_cast<std::uint64_t>(LocKind::kColoLock))
      return make_loc(LocKind::kPoolWord, loc & ((1ULL << 60) - 1));
    return loc;
  }
  static std::uint64_t line_of(LocId loc) { return canonical(loc) >> 3; }

  /// Memo slot for a line: data lines (kPoolWord, kind bits zero after the
  /// >>3) and metadata lines (lock table / globals) get separate entries so
  /// the lock-then-data access pattern of the hw path does not thrash a
  /// single-entry memo.
  static std::size_t memo_index(std::uint64_t line) { return (line >> 57) != 0 ? 1 : 0; }

  HtmConfig cfg_;
  /// Hoisted from the per-access path: spurious injection is off in every
  /// production configuration, so the per-access RNG draw is gated on one
  /// predictable branch instead of a double compare against config state.
  bool spurious_enabled_;
  ConflictTable table_;
  std::unique_ptr<Context[]> ctx_;
};

}  // namespace nvhalt::htm
