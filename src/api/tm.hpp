// Public transactional-memory interface.
//
// All five TMs evaluated in the paper (NV-HALT, NV-HALT-CL, NV-HALT-SP,
// Trinity, SPHT) implement this word-based interface, so data structures,
// tests and benchmarks are TM-agnostic.
//
// Usage:
//   tm.run(tid, [&](Tx& tx) {
//     word_t v = tx.read(a);
//     tx.write(b, v + 1);
//   });
//
// `tid` is the only name a thread has: a dense id the caller assigns, the
// same id that owns the thread's persistent version-number slot (paper
// Sec. 3.2). One OS thread uses an id at a time; handing it to another OS
// thread needs a happens-before edge between them (join, then start).
//
// The body may be executed multiple times (aborted attempts are retried),
// so it must not have side effects other than through the Tx handle.
#pragma once

#include <span>

#include "alloc/tx_allocator.hpp"
#include "core/tm_stats.hpp"
#include "pmem/pmem_pool.hpp"
#include "util/common.hpp"
#include "util/function_ref.hpp"

namespace nvhalt {

class ContentionTable;  // locks/contention.hpp

/// The five systems of the paper's evaluation (Fig. 8/9).
enum class TmKind { kNvHalt, kNvHaltCl, kNvHaltSp, kTrinity, kSpht };

/// Caller's declaration of a transaction's access pattern. Only kReadOnly
/// routes: a TM may send such a transaction to a cheaper read-only protocol
/// (NV-HALT's lock-free snapshot path), and a body that writes anyway is
/// demoted to the general path and still commits correctly. kUpdate is the
/// general path for every transaction, read-only or not — no TM guesses a
/// read-only body from its history, so a read-only operation that wants
/// the fast path must pass the hint. TMs without a dedicated read-only path
/// ignore the hint.
enum class TxMode { kUpdate, kReadOnly };

/// Thrown by user code (or Tx::abort) to voluntarily abort the current
/// transaction; run() then returns false without retrying.
struct TxUserAbort {};

/// Internal control-flow exception: the software path detected a conflict
/// and the attempt will be retried. Not part of the public API surface but
/// visible so tests can assert on it.
struct TxConflictAbort {};

/// Handle to the current transaction attempt.
class Tx {
 public:
  /// Transactional read of one word.
  virtual word_t read(gaddr_t a) = 0;

  /// Transactional write of one word. Only words the allocator handed out
  /// (tx.alloc, raw_alloc, raw_alloc_large) are persistent: recovery reads
  /// the carved heap alone (TxAllocator::carved_end), so a write to any
  /// other word does not survive a crash.
  virtual void write(gaddr_t a, word_t v) = 0;

  /// Allocates nwords within this transaction (undone on abort).
  virtual gaddr_t alloc(std::size_t nwords) = 0;

  /// Frees a block at commit of this transaction.
  virtual void free(gaddr_t a, std::size_t nwords) = 0;

  /// True when this attempt runs on the hardware fast path.
  virtual bool on_hw_path() const = 0;

  /// Voluntarily aborts the transaction (no retry).
  [[noreturn]] void abort() { throw TxUserAbort{}; }

 protected:
  ~Tx() = default;
};

using TxBody = FunctionRef<void(Tx&)>;

/// A durably-linearizable word-based transactional memory.
class TransactionalMemory {
 public:
  virtual ~TransactionalMemory() = default;

  /// Executes `body` as one atomic durable transaction on behalf of thread
  /// `tid`. A thread is named only by this dense id, in [0, kMaxThreads)
  /// (SPHT: [0, SphtConfig::max_threads)); an id belongs to one OS thread
  /// at a time (DESIGN.md Sec. 7). `mode` is the caller's access-pattern
  /// hint (TxMode::kReadOnly routes to a TM's read-only fast path where one
  /// exists). Retries internally on conflicts/aborts. Returns true if the
  /// transaction committed, false if the body voluntarily aborted. Throws
  /// TmLogicError on a tid outside the range.
  virtual bool run(int tid, TxMode mode, TxBody body) = 0;

  /// run() on the general path.
  bool run(int tid, TxBody body) { return run(tid, TxMode::kUpdate, body); }

  /// Durably retires the revert/replay obligations accumulated so far — a
  /// checkpoint — so the next recovery is bounded by the delta since this
  /// call (DESIGN.md Sec. 13). Callable from any thread between its own
  /// transactions, under its own tid (range-checked as in run());
  /// concurrent committers block only for the duration. Returns false when
  /// this TM's configuration does not checkpoint.
  virtual bool checkpoint(int tid) = 0;

  /// Post-crash recovery: restores the volatile image from the durable
  /// state (reverting in-flight transactions / replaying logs), resets
  /// volatile TM metadata, and reconstructs the allocator from the pool's
  /// own persistent metadata (DESIGN.md Sec. 12) — no live-block iterator
  /// required, unlike the paper's volatile-allocator assumption (Sec. 4).
  /// Must be called quiescently, before any new transactions.
  virtual void recover_data() = 0;

  /// Optional recovery cross-check, run after recover_data(): validates the
  /// recovered allocator metadata against the live blocks a structure walk
  /// discovered (TxAllocator::verify_rebuild) and sweeps marked-used blocks
  /// no structure owns. The paper's Sec. 4 rebuild from a live-block
  /// iterator survives only as this check — recover_data() has already
  /// rebuilt the allocator from its persistent metadata.
  virtual void rebuild_allocator(std::span<const LiveBlock> live) {
    allocator().verify_rebuild(live);
  }

  virtual PmemPool& pool() = 0;
  virtual TxAllocator& allocator() = 0;
  virtual const char* name() const = 0;

  /// Every thread's outcome record summed (counters, abort causes,
  /// latency/size histograms). Callable any time, exact only when no
  /// transactions are in flight.
  virtual TmStats stats() const = 0;
  virtual void reset_stats() = 0;

  /// Per-stripe lock-contention observatory, or null for TMs without one.
  /// Same quiescence contract as stats().
  virtual const ContentionTable* contention() const { return nullptr; }
};

}  // namespace nvhalt
