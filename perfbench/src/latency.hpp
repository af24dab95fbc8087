// Fixed-size log-linear latency histogram: exact to the nanosecond below
// 1024 ns and within 1/1024 of the value above, up to 2^32 ns. Recording
// is one increment into a ~94 KiB table, so it neither grows with the
// op count (peak RSS stays independent of throughput) nor streams samples
// through the cache the way an append-only sample log would.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>

namespace perfbench {

class LatencyHist {
 public:
  static constexpr int kSubBits = 10;
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;
  static constexpr std::size_t kBuckets = kSub * (32 - kSubBits + 1);

  LatencyHist() : counts_(std::make_unique<std::uint32_t[]>(kBuckets)) {}

  void record(std::uint64_t ns) {
    ++counts_[index(ns)];
    ++total_;
  }
  void add(const LatencyHist& o) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
    total_ += o.total_;
  }

  /// The q-quantile in nanoseconds, interpolated by rank inside its bucket.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_ - 1);
    std::uint64_t below = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const std::uint64_t n = counts_[i];
      if (n != 0 && static_cast<double>(below + n) > rank) {
        const double frac = (rank - static_cast<double>(below) + 0.5) / static_cast<double>(n);
        return static_cast<double>(lower(i)) + frac * static_cast<double>(width(i));
      }
      below += n;
    }
    return static_cast<double>(lower(kBuckets - 1));
  }

 private:
  static std::size_t index(std::uint64_t ns) {
    if (ns >= (std::uint64_t{1} << 32)) ns = (std::uint64_t{1} << 32) - 1;
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const int e = std::bit_width(ns) - 1;  // in [kSubBits, 31]
    const std::uint64_t sub = (ns >> (e - kSubBits)) - kSub;
    return static_cast<std::size_t>(kSub * static_cast<std::uint64_t>(e - kSubBits + 1) + sub);
  }
  static std::uint64_t lower(std::size_t i) {
    if (i < kSub) return i;
    const int e = static_cast<int>(i / kSub) + kSubBits - 1;
    return (kSub + i % kSub) << (e - kSubBits);
  }
  static std::uint64_t width(std::size_t i) {
    if (i < kSub) return 1;
    return std::uint64_t{1} << (static_cast<int>(i / kSub) - 1);
  }

  std::unique_ptr<std::uint32_t[]> counts_;
  std::uint64_t total_ = 0;
};

}  // namespace perfbench
