#include "baselines/spht/spht_log.hpp"

namespace nvhalt {

SphtLog::SphtLog(PmemPool& pool, int nthreads, std::size_t words_per_thread)
    : pool_(pool), nthreads_(nthreads), words_(words_per_thread) {
  base_.resize(static_cast<std::size_t>(nthreads_));
  for (int t = 0; t < nthreads_; ++t) {
    // One line for the head word plus the data region.
    base_[static_cast<std::size_t>(t)] = pool_.alloc_raw(kWordsPerLine + words_);
  }
}

bool SphtLog::append(int tid, std::uint64_t ts,
                     std::span<const std::pair<gaddr_t, word_t>> writes) {
  if (!fits(tid, writes.size())) return false;
  const std::size_t need = record_words(writes.size());  // [ts][n][addr val]*
  const std::size_t used = used_words(tid);

  const std::size_t rec = data_idx(tid) + used;
  pool_.raw_store(tid, rec + 0, ts);
  pool_.raw_store(tid, rec + 1, writes.size());
  for (std::size_t i = 0; i < writes.size(); ++i) {
    pool_.raw_store(tid, rec + 2 + 2 * i, writes[i].first);
    pool_.raw_store(tid, rec + 3 + 2 * i, writes[i].second);
  }
  // Flush every line the record touches, fence, then durably advance the
  // head — a crash exposes either the old head (record invisible) or the
  // new head (record complete).
  for (std::size_t w = rec; w < rec + need; w += kWordsPerLine) pool_.flush_raw(tid, w);
  pool_.flush_raw(tid, rec + need - 1);
  pool_.fence(tid);
  pool_.raw_store(tid, head_idx(tid), used + need);
  pool_.flush_raw(tid, head_idx(tid));
  pool_.fence(tid);
  return true;
}

void SphtLog::collect(std::uint64_t max_ts, std::vector<TxnRec>& out) const {
  for (int t = 0; t < nthreads_; ++t) {
    const std::size_t used = pool_.raw_load(head_idx(t));
    std::size_t off = 0;
    while (off + 2 <= used) {
      TxnRec rec;
      rec.ts = pool_.raw_load(data_idx(t) + off);
      const std::uint64_t n = pool_.raw_load(data_idx(t) + off + 1);
      if (off + 2 + 2 * n > used) break;  // defensive: malformed tail
      rec.writes.reserve(n);
      for (std::uint64_t i = 0; i < n; ++i) {
        rec.writes.emplace_back(pool_.raw_load(data_idx(t) + off + 2 + 2 * i),
                                pool_.raw_load(data_idx(t) + off + 3 + 2 * i));
      }
      off += 2 + 2 * n;
      if (rec.ts <= max_ts) out.push_back(std::move(rec));
    }
  }
}

void SphtLog::truncate(int tid) {
  for (int t = 0; t < nthreads_; ++t) {
    pool_.raw_store(tid, head_idx(t), 0);
    pool_.flush_raw(tid, head_idx(t));
  }
  pool_.fence(tid);
}

}  // namespace nvhalt
