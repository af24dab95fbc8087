#include "workload.hpp"

#include <algorithm>
#include <numeric>

namespace perfbench {

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kLookup: return "lookup";
    case Kind::kUpdate: return "update";
    case Kind::kScan: return "scan";
    case Kind::kBatch: return "batch";
  }
  return "?";
}

const WorkloadSpec* find_workload(std::string_view name) {
  static const WorkloadSpec kAll[] = {
      // Paper-size hashmap (Sec. 5): read-only fast path and memory misses.
      {"kv-read-mostly", false, 1u << 20, 90, 10, 0, 0.0, false, 0, 1u << 16},
      // The grid's 50ro-zipf cell: durable commits fighting over hot keys.
      {"kv-update-skewed", false, 1u << 17, 50, 50, 0, 0.99, false, 0, 1u << 16},
      // (a,b)-tree: splits/merges, long read-only scans, HTM-overflowing
      // batches and periodic checkpoints. A restart burst is half a
      // checkpoint interval: the expected delta at a random crash point.
      {"index-scan-batch", true, 1u << 18, 60, 25, 10, 0.0, true, 4096, 2048},
  };
  for (const WorkloadSpec& w : kAll)
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<std::uint32_t> prefill_keys(const WorkloadSpec& w, std::uint64_t seed) {
  std::vector<std::uint32_t> keys(w.keys);
  std::iota(keys.begin(), keys.end(), 1u);
  nvhalt::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  for (std::size_t i = keys.size() - 1; i > 0; --i)
    std::swap(keys[i], keys[rng.next_bounded(i + 1)]);
  keys.resize(w.keys / 2);
  return keys;
}

OpStream::OpStream(const WorkloadSpec& w, std::uint64_t seed, int client, std::size_t max_ops)
    : w_(w), rng_(seed * 1000003 + static_cast<std::uint64_t>(client) * 7919 + 1) {
  // Reserve address space for the longest stream up front: untouched pages
  // are not resident, and growing by reallocation would briefly keep two
  // copies resident.
  const double batch_share = (100 - w.lookup_pct - w.update_pct - w.scan_pct) / 100.0;
  const double entries_per_op = 1.0 + kBatchKeys * batch_share;
  entries_.reserve(static_cast<std::size_t>(static_cast<double>(max_ops) * entries_per_op * 1.1));
  if (w.zipf_theta > 0)
    zipf_ = std::make_unique<nvhalt::ZipfGenerator>(w.keys, w.zipf_theta, rng_.next());
}

std::uint32_t OpStream::draw_key() {
  if (zipf_) return 1 + static_cast<std::uint32_t>(zipf_->next() % w_.keys);
  return 1 + static_cast<std::uint32_t>(rng_.next_bounded(w_.keys));
}

void OpStream::extend(std::size_t ops) {
  auto entry = [](Code c, std::uint32_t key) {
    return (static_cast<std::uint32_t>(c) << kCodeShift) | key;
  };
  while (ops_ < ops) {
    const int dice = static_cast<int>(rng_.next_bounded(100));
    if (dice < w_.lookup_pct) {
      entries_.push_back(entry(Code::kLookup, draw_key()));
    } else if (dice < w_.lookup_pct + w_.update_pct) {
      const Code c = (rng_.next() & 1) == 0 ? Code::kInsert : Code::kRemove;
      entries_.push_back(entry(c, draw_key()));
    } else if (dice < w_.lookup_pct + w_.update_pct + w_.scan_pct) {
      const std::uint32_t lo =
          1 + static_cast<std::uint32_t>(rng_.next_bounded(w_.keys - kScanKeys + 1));
      entries_.push_back(entry(Code::kScan, lo));
    } else {
      entries_.push_back(entry(Code::kBatch, 0));
      const std::size_t first = entries_.size();
      while (entries_.size() - first < kBatchKeys) {
        const std::uint32_t k = draw_key();
        if (std::find(entries_.begin() + static_cast<std::ptrdiff_t>(first), entries_.end(), k) ==
            entries_.end())
          entries_.push_back(k);
      }
    }
    ++ops_;
  }
}

}  // namespace perfbench
