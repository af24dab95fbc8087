// Reusable workload framework implementing the paper's evaluation
// methodology (Sec. 5): prefill a keyed structure to 50% of its key range,
// then run a timed mixed read/insert/remove workload with per-thread key
// generators, and report throughput plus TM/persistence statistics.
//
// The bench sweeps drive their mixed-workload cells through it; it is equally
// usable from applications that want to measure their own configurations.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "api/tm.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace nvhalt::workload {

enum class KeyDist { kUniform, kZipf };

/// Per-thread key stream. `zipf_theta` shapes the skew when dist is kZipf
/// (larger = hotter head; 0.99 is the YCSB default, ~1.2 concentrates most
/// draws on a handful of keys). Ignored for uniform draws.
class KeyGenerator {
 public:
  KeyGenerator(KeyDist dist, std::size_t key_range, std::uint64_t seed,
               double zipf_theta = 0.99)
      : dist_(dist), range_(key_range), rng_(seed) {
    if (dist_ == KeyDist::kZipf)
      zipf_ = std::make_unique<ZipfGenerator>(range_, zipf_theta, seed);
  }

  /// Keys are in [1, key_range] (0 is reserved by the structures).
  word_t next() {
    return 1 + (dist_ == KeyDist::kUniform ? rng_.next_bounded(range_) : zipf_->next());
  }

  /// Operation dice in [0, 100).
  std::uint64_t dice() { return rng_.next_bounded(100); }

 private:
  KeyDist dist_;
  std::size_t range_;
  Xoshiro256 rng_;
  std::unique_ptr<ZipfGenerator> zipf_;
};

/// The structure under test, type-erased: any keyed container works.
struct KeyedOps {
  /// Each returns true on success; semantics as in the structures' API.
  virtual bool insert(int tid, word_t key, word_t val) = 0;
  virtual bool remove(int tid, word_t key) = 0;
  virtual bool contains(int tid, word_t key) = 0;
  virtual ~KeyedOps() = default;
};

/// Adapts any structure with insert/remove/contains(tid, ...) methods.
template <typename S>
class KeyedOpsAdapter final : public KeyedOps {
 public:
  explicit KeyedOpsAdapter(S& s) : s_(s) {}
  bool insert(int tid, word_t key, word_t val) override { return s_.insert(tid, key, val); }
  bool remove(int tid, word_t key) override { return s_.remove(tid, key); }
  bool contains(int tid, word_t key) override { return s_.contains(tid, key); }

 private:
  S& s_;
};

struct WorkloadSpec {
  /// Percentage of lookups; the remainder splits evenly insert/remove.
  int read_pct = 90;
  int threads = 1;
  std::size_t key_range = 1 << 14;
  int duration_ms = 150;
  KeyDist dist = KeyDist::kUniform;
  /// Skew exponent for kZipf key draws (unused for uniform).
  double zipf_theta = 0.99;
  std::uint64_t seed = 1;
};

struct WorkloadResult {
  std::uint64_t total_ops = 0;
  double seconds = 0;
  double ops_per_sec = 0;
};

/// Prefills `ops` with key_range/2 distinct uniform keys (value == key),
/// matching the paper's 50%-capacity prefill.
void prefill_half(KeyedOps& ops, std::size_t key_range, std::uint64_t seed);

/// Runs the timed mixed workload. Threads are given dense ids [0, threads).
WorkloadResult run_mixed(KeyedOps& ops, const WorkloadSpec& spec);

}  // namespace nvhalt::workload
