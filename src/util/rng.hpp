// xoshiro256** pseudo-random generator: fast, high-quality, seedable.
// Used by workloads, the spurious-abort injector and the crash adversary.
// Also home to mix64, the shared 64-bit hash finalizer.
#pragma once

#include <cstdint>

namespace nvhalt {

/// 64-bit avalanche finalizer (MurmurHash3 fmix64). Self-validating
/// persistent words are built on it (allocator intent tags), so its output
/// is part of the durable format: never change it.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

/// Deterministic, seedable PRNG (xoshiro256**). Not thread-safe; use one
/// instance per thread.
class Xoshiro256 {
 public:
  explicit Xoshiro256(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) { reseed(seed); }

  /// Re-initializes the state from a single 64-bit seed via splitmix64.
  void reseed(std::uint64_t seed);

  /// Returns the next 64-bit pseudo-random value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform value in [0, bound). bound must be nonzero.
  std::uint64_t next_bounded(std::uint64_t bound) { return next() % bound; }

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  /// Bernoulli trial with probability p.
  bool next_bool(double p) { return next_double() < p; }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t s_[4];
};

}  // namespace nvhalt
