// The benchmark's workloads and their seed-generated inputs.
//
// Every input the library sees — prefill order, op kinds, Zipf draws, scan
// bounds, batch keys — is generated here from --seed before any timed
// phase starts, so the library receives only generated ops and the same
// seed always yields the same inputs.
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include <memory>

#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace perfbench {

/// Op classes for latency reporting. A scan or a batch counts as one op;
/// an update is a single-key insert or remove.
enum class Kind : std::uint8_t { kLookup = 0, kUpdate = 1, kScan = 2, kBatch = 3 };
inline constexpr int kKinds = 4;
const char* kind_name(Kind k);

/// Stream entry codes (top 3 bits of a 32-bit entry; the key is below).
enum class Code : std::uint32_t { kLookup = 0, kInsert = 1, kRemove = 2, kScan = 3, kBatch = 4 };
inline constexpr int kCodeShift = 29;
inline constexpr std::uint32_t kKeyMask = (std::uint32_t{1} << kCodeShift) - 1;

inline constexpr std::uint32_t kScanKeys = 256;   // keys covered by one range scan
inline constexpr std::uint32_t kBatchKeys = 16;   // keys toggled by one atomic batch

struct WorkloadSpec {
  const char* name;
  bool tree;                  // TmAbTree; otherwise TmHashMap (one bucket per key)
  std::uint32_t keys;         // key range [1, keys]
  int lookup_pct;
  int update_pct;             // half inserts, half removes
  int scan_pct;               // the rest of 100 are 16-key batches
  double zipf_theta;          // 0 = uniform keys
  bool checkpoint;            // NvHaltConfig::checkpoint
  std::uint32_t ckpt_every;   // client 0 calls checkpoint() after this many of its ops
  std::uint32_t burst_ops;    // ops per client in each restart cycle's burst
};

const WorkloadSpec* find_workload(std::string_view name);

/// The prefill set: exactly keys/2 distinct keys, in a seed-shuffled order.
std::vector<std::uint32_t> prefill_keys(const WorkloadSpec& w, std::uint64_t seed);

/// One client's op stream. Entries are `code << 29 | key`; a batch entry is
/// followed by its kBatchKeys keys. The stream is a pure function of
/// (seed, client): extend() continues the same generator, so a longer
/// stream always starts with the shorter one.
class OpStream {
 public:
  /// `max_ops` sizes the reservation; a longer stream still works.
  OpStream(const WorkloadSpec& w, std::uint64_t seed, int client, std::size_t max_ops);

  /// Generates ops until at least `ops` whole ops exist.
  void extend(std::size_t ops);
  std::size_t ops() const { return ops_; }

  const std::uint32_t* data() const { return entries_.data(); }
  std::size_t entries() const { return entries_.size(); }
  /// Bytes of generated entries (all touched, hence resident).
  std::size_t bytes() const { return entries_.size() * sizeof(std::uint32_t); }

 private:
  std::uint32_t draw_key();

  const WorkloadSpec& w_;
  nvhalt::Xoshiro256 rng_;
  std::unique_ptr<nvhalt::ZipfGenerator> zipf_;
  std::vector<std::uint32_t> entries_;
  std::size_t ops_ = 0;
};

inline Code code_of(std::uint32_t e) { return static_cast<Code>(e >> kCodeShift); }
inline std::uint32_t key_of(std::uint32_t e) { return e & kKeyMask; }
inline Kind kind_of(Code c) {
  switch (c) {
    case Code::kLookup: return Kind::kLookup;
    case Code::kInsert:
    case Code::kRemove: return Kind::kUpdate;
    case Code::kScan: return Kind::kScan;
    case Code::kBatch: return Kind::kBatch;
  }
  return Kind::kLookup;
}

}  // namespace perfbench
