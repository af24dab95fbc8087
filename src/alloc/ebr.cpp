#include "alloc/ebr.hpp"

namespace nvhalt::alloc {

void EpochService::quiesce_slow(int tid, std::uint64_t e) {
  // Scans read the bound before any slot, so it must cover this tid
  // before its announcement can be seen (ebr.hpp).
  int hw = high_water_.load(std::memory_order_seq_cst);
  while (hw <= tid &&
         !high_water_.compare_exchange_weak(hw, tid + 1, std::memory_order_seq_cst)) {
  }
  auto& r = slots_[static_cast<std::size_t>(tid)].value.epoch;
  // Announce-then-verify: publish a candidate epoch, then re-read the
  // global. If the global moved past the announcement a reclaimer may
  // already have scanned past this slot, so chase it until stable. (The
  // inline fast path already handled the already-announced case: a
  // reservation equal to the current global was published with an
  // earlier seq_cst store, so any retirement this thread could endanger
  // carries an epoch >= e, and entries below e were unlinked before this
  // attempt began.)
  for (;;) {
    r.store(e, std::memory_order_seq_cst);
    const std::uint64_t cur = global_.load(std::memory_order_seq_cst);
    if (cur == e) return;
    e = cur;
  }
}

std::uint64_t EpochService::min_active() const {
  std::uint64_t m = kIdle;
  const int bound = high_water_.load(std::memory_order_seq_cst);
  for (int s = 0; s < bound; ++s) {
    const std::uint64_t e = slots_[static_cast<std::size_t>(s)].value.epoch.load(
        std::memory_order_seq_cst);
    if (e < m) m = e;
  }
  return m;
}

void EpochService::try_advance() {
  const std::uint64_t e = global_.load(std::memory_order_seq_cst);
  const int bound = high_water_.load(std::memory_order_seq_cst);
  for (int s = 0; s < bound; ++s) {
    const std::uint64_t r = slots_[static_cast<std::size_t>(s)].value.epoch.load(
        std::memory_order_seq_cst);
    if (r != kIdle && r != e) return;  // a straggler is still in an older epoch
  }
  std::uint64_t expected = e;
  global_.compare_exchange_strong(expected, e + 1, std::memory_order_seq_cst);
}

void EpochService::retire(int tid, gaddr_t addr, std::uint32_t nwords) {
  auto& l = limbo_[static_cast<std::size_t>(tid)].value;
  l.entries.push_back(LimboEntry{addr, nwords, global_.load(std::memory_order_seq_cst), now_ns()});
  l.retired.fetch_add(1, std::memory_order_relaxed);
  try_advance();
}

std::size_t EpochService::reclaim(int tid, const ReclaimFn& fn) {
  auto& l = limbo_[static_cast<std::size_t>(tid)].value;
  if (l.entries.empty()) return 0;
  const std::uint64_t safe_below = min_active();
  std::size_t n = 0;
  const std::uint64_t now = now_ns();
  while (!l.entries.empty() && l.entries.front().epoch < safe_below) {
    const LimboEntry& e = l.entries.front();
    fn(e.addr, e.nwords);
    l.latency_ns.record(now >= e.retire_ns ? now - e.retire_ns : 0);
    l.entries.pop_front();
    ++n;
  }
  if (n != 0) l.reclaimed.fetch_add(n, std::memory_order_relaxed);
  return n;
}

void EpochService::reset() {
  for (auto& padded : limbo_) {
    auto& l = padded.value;
    l.entries.clear();
    l.retired.store(0, std::memory_order_relaxed);
    l.reclaimed.store(0, std::memory_order_relaxed);
    l.latency_ns.reset();
  }
  for (auto& s : slots_) s.value.epoch.store(kIdle, std::memory_order_relaxed);
  high_water_.store(0, std::memory_order_relaxed);
  global_.store(1, std::memory_order_relaxed);
}

std::uint64_t EpochService::retired_total() const {
  std::uint64_t n = 0;
  for (const auto& l : limbo_) n += l.value.retired.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t EpochService::reclaimed_total() const {
  std::uint64_t n = 0;
  for (const auto& l : limbo_) n += l.value.reclaimed.load(std::memory_order_relaxed);
  return n;
}

std::uint64_t EpochService::limbo_depth() const {
  const std::uint64_t retired = retired_total();
  const std::uint64_t reclaimed = reclaimed_total();
  return retired >= reclaimed ? retired - reclaimed : 0;
}

telemetry::PowHistogram EpochService::reclaim_latency_ns() const {
  telemetry::PowHistogram h;
  for (const auto& l : limbo_) h.add(l.value.latency_ns);
  return h;
}

}  // namespace nvhalt::alloc
