#include "workload/workload.hpp"

#include <chrono>
#include <thread>
#include <vector>

#include "util/affinity.hpp"
#include "util/barrier.hpp"

namespace nvhalt::workload {

void prefill_half(KeyedOps& ops, std::size_t key_range, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  std::size_t inserted = 0;
  const std::size_t target = key_range / 2;
  while (inserted < target) {
    const word_t k = 1 + rng.next_bounded(key_range);
    if (ops.insert(0, k, k)) ++inserted;
  }
}

WorkloadResult run_mixed(KeyedOps& ops, const WorkloadSpec& spec) {
  std::atomic<bool> stop{false};
  std::vector<std::uint64_t> counts(static_cast<std::size_t>(spec.threads), 0);
  SpinBarrier barrier(spec.threads + 1);
  std::vector<std::thread> workers;
  workers.reserve(static_cast<std::size_t>(spec.threads));
  for (int t = 0; t < spec.threads; ++t) {
    workers.emplace_back([&, t] {
      pin_thread_round_robin(t);
      KeyGenerator gen(spec.dist, spec.key_range,
                       spec.seed * 1000003 + static_cast<std::uint64_t>(t),
                       spec.zipf_theta);
      barrier.arrive_and_wait();
      std::uint64_t n = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const word_t k = gen.next();
        const std::uint64_t dice = gen.dice();
        if (dice < static_cast<std::uint64_t>(spec.read_pct)) {
          ops.contains(t, k);
        } else if ((dice & 1) == 0) {
          ops.insert(t, k, k);
        } else {
          ops.remove(t, k);
        }
        ++n;
      }
      counts[static_cast<std::size_t>(t)] = n;
    });
  }
  barrier.arrive_and_wait();
  const auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(spec.duration_ms));
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  WorkloadResult r;
  r.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  for (const auto n : counts) r.total_ops += n;
  r.ops_per_sec = static_cast<double>(r.total_ops) / r.seconds;
  return r;
}

}  // namespace nvhalt::workload
