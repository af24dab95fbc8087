// Common definitions shared across all NV-HALT modules.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstddef>
#include <stdexcept>
#include <string>

namespace nvhalt {

/// Maximum number of worker threads supported by the runtime. Fixed at
/// compile time so that per-thread conflict-table reader masks and the
/// persistent per-thread version-number array have a static layout.
inline constexpr int kMaxThreads = 128;

/// Simulated cache-line size, in bytes. Matches x86.
inline constexpr std::size_t kCacheLineBytes = 64;

/// Number of 8-byte words per simulated cache line.
inline constexpr std::size_t kWordsPerLine = kCacheLineBytes / sizeof(std::uint64_t);

/// Global address: a word index into the persistent pool. 0 is reserved
/// as the null address (the pool never hands out word 0).
using gaddr_t = std::uint64_t;
inline constexpr gaddr_t kNullAddr = 0;

/// A value stored in one transactional word.
using word_t = std::uint64_t;

/// Thrown on unrecoverable misuse of the library (programming errors).
class TmLogicError : public std::logic_error {
 public:
  explicit TmLogicError(const std::string& what) : std::logic_error(what) {}
};

/// Aligns a type to a cache line to avoid (simulated and real) false sharing.
template <typename T>
struct alignas(kCacheLineBytes) CacheLinePadded {
  T value{};
};

/// Branch prediction hints.
#if defined(__GNUC__)
#define NVHALT_LIKELY(x) __builtin_expect(!!(x), 1)
#define NVHALT_UNLIKELY(x) __builtin_expect(!!(x), 0)
#else
#define NVHALT_LIKELY(x) (x)
#define NVHALT_UNLIKELY(x) (x)
#endif

/// CPU relax for spin loops.
inline void cpu_relax() {
#if defined(__x86_64__)
  __builtin_ia32_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// Bumps a counter that only the calling thread writes: a relaxed load and
/// store, no locked RMW. Other threads may read it with relaxed loads.
inline void bump(std::atomic<std::uint64_t>& c, std::uint64_t n) {
  c.store(c.load(std::memory_order_relaxed) + n, std::memory_order_relaxed);
}

}  // namespace nvhalt
