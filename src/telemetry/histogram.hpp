// Power-of-two-bucket histograms for the telemetry layer.
//
// Bucket b of a PowHistogram counts values v with bit_width(v) == b, i.e.
// bucket 0 holds exactly {0} and bucket b >= 1 holds [2^(b-1), 2^b - 1].
// Recording is one increment plus a bit scan — cheap enough to stay on at
// telemetry level 0 (the "counters only" level) — and merging is a
// bucket-wise add, so per-thread instances aggregate exactly like the
// TmStats counters beside them: written by the owning thread, merged at
// quiescent points (stats() snapshots).
#pragma once

#include <array>
#include <bit>
#include <cstdint>

namespace nvhalt::telemetry {

class PowHistogram {
 public:
  /// bit_width of a u64 is in [0, 64]: 65 buckets cover every value.
  static constexpr int kBuckets = 65;

  static int bucket_of(std::uint64_t v) { return std::bit_width(v); }

  /// Inclusive upper bound of bucket b (the Prometheus `le` label).
  static std::uint64_t bucket_upper_bound(int b) {
    if (b <= 0) return 0;
    if (b >= 64) return ~std::uint64_t{0};
    return (std::uint64_t{1} << b) - 1;
  }

  void record(std::uint64_t v) {
    counts_[static_cast<std::size_t>(bucket_of(v))]++;
    ++count_;
    sum_ += v;
  }

  void add(const PowHistogram& o) {
    for (int b = 0; b < kBuckets; ++b) counts_[static_cast<std::size_t>(b)] += o.counts_[static_cast<std::size_t>(b)];
    count_ += o.count_;
    sum_ += o.sum_;
  }

  void reset() { *this = PowHistogram{}; }

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t bucket_count(int b) const { return counts_[static_cast<std::size_t>(b)]; }
  double mean() const { return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_); }

  /// Upper bound of the first bucket whose cumulative count reaches
  /// `fraction` of the total (0 when empty). An upper estimate of the
  /// quantile, exact to within one power of two.
  std::uint64_t quantile_bound(double fraction) const {
    if (count_ == 0) return 0;
    const double target = fraction * static_cast<double>(count_);
    std::uint64_t cum = 0;
    for (int b = 0; b < kBuckets; ++b) {
      cum += counts_[static_cast<std::size_t>(b)];
      if (static_cast<double>(cum) >= target) return bucket_upper_bound(b);
    }
    return bucket_upper_bound(kBuckets - 1);
  }

  /// Index one past the last non-empty bucket (0 when empty); bounds the
  /// work of exporters.
  int used_buckets() const {
    int hi = 0;
    for (int b = 0; b < kBuckets; ++b)
      if (counts_[static_cast<std::size_t>(b)] != 0) hi = b + 1;
    return hi;
  }

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
};

}  // namespace nvhalt::telemetry
