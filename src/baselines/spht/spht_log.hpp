// Per-thread persistent redo logs for the SPHT baseline (paper Sec. 2.1.4).
//
// Each thread owns a region of the raw persistent space. A committed
// transaction appends one record — [timestamp][n][addr val]*n — then
// flushes the record and finally advances the persistent head word, so a
// crash can only ever expose whole records. Logs are bounded; replay
// applies them to the NVM heap image and truncates them.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "pmem/pmem_pool.hpp"
#include "util/common.hpp"

namespace nvhalt {

class SphtLog {
 public:
  struct TxnRec {
    std::uint64_t ts;
    std::vector<std::pair<gaddr_t, word_t>> writes;
  };

  /// Reserves `words_per_thread` raw persistent words for each of
  /// `nthreads` threads (dense thread ids 0..nthreads-1).
  SphtLog(PmemPool& pool, int nthreads, std::size_t words_per_thread);

  /// True when `tid`'s log has room for a record of `nwrites` writes.
  /// Only the owner appends, so the answer stays true until it does.
  bool fits(int tid, std::size_t nwrites) const {
    return used_words(tid) + record_words(nwrites) <= words_;
  }

  /// Appends one transaction record and makes it durable (flush + fence).
  /// Returns false if the log lacks space (caller must replay+truncate).
  bool append(int tid, std::uint64_t ts,
              std::span<const std::pair<gaddr_t, word_t>> writes);

  /// Collects every whole record with ts <= max_ts from all threads' logs,
  /// reading the staged (crash-free) view.
  void collect(std::uint64_t max_ts, std::vector<TxnRec>& out) const;

  /// Empties every log (after a replay that applied them) and persists the
  /// emptied heads under one fence.
  void truncate(int tid);

  int nthreads() const { return nthreads_; }
  std::size_t used_words(int tid) const { return pool_.raw_load(head_idx(tid)); }
  std::size_t capacity_words() const { return words_; }

 private:
  static std::size_t record_words(std::size_t nwrites) { return 2 + 2 * nwrites; }
  std::size_t head_idx(int tid) const { return base_[tid]; }
  std::size_t data_idx(int tid) const { return base_[tid] + kWordsPerLine; }

  PmemPool& pool_;
  int nthreads_;
  std::size_t words_;  // data words per thread (excl. head line)
  std::vector<std::size_t> base_;
};

}  // namespace nvhalt
