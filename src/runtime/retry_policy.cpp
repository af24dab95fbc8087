#include "runtime/retry_policy.hpp"

#include <thread>

namespace nvhalt::runtime {

namespace {
constexpr int kBackoffShiftCap = 10;  // at most 1024 spins per backoff
constexpr int kBackoffYieldAfter = 2;
}  // namespace

void backoff(Xoshiro256& rng, int attempt) {
  const int cap = 1 << std::min(attempt, kBackoffShiftCap);
  const int spins = static_cast<int>(rng.next_bounded(static_cast<std::uint64_t>(cap)));
  for (int i = 0; i < spins; ++i) cpu_relax();
  if (attempt > kBackoffYieldAfter) std::this_thread::yield();
}

}  // namespace nvhalt::runtime
