// Parallel recovery worker pool (ROADMAP open item 4).
//
// Recovery work over the pool decomposes into disjoint contiguous
// partitions (record ranges, dirty-line lists, log write sets, allocator
// segments), each replayed by a dedicated worker. It is the one worker
// pool: the undo-record engine's revert pass, the allocator rebuild and
// every SPHT log replay (recovery, checkpoint, full log) run through it.
// Workers take tids from the TOP of the pool's thread range
// (kMaxThreads - 1 - w), so their flush queues can never collide with
// live threads' queues, and each worker fences on its own tid.
//
// The join below is the merge/quiesce barrier: run_partitioned returns
// only once every partition is fully applied (or unwound), so callers may
// declare the pool open immediately afterwards. A SimulatedPowerFailure
// in any worker is latched and rethrown on the calling thread after the
// barrier, preserving the crash-unwinding contract of serial recovery.
//
// Determinism: partitions are contiguous and disjoint and every write a
// worker performs depends only on its partition's content, so the final
// (volatile + staged + durable) image is byte-identical for any worker
// count — pinned by tests/recovery_parallel_test.cpp via
// PmemPool::image_hash().
#pragma once

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "pmem/crash_sim.hpp"
#include "util/common.hpp"

namespace nvhalt::runtime {

/// Runs body(worker_tid, lo, hi) over `n` items split into at most
/// `workers` contiguous partitions. With one worker (or one item) the body
/// runs inline on `serial_tid` — the exact serial recovery path. Returns
/// the worker count actually used.
template <typename Body>
int run_recovery_partitions(std::size_t n, int workers, int serial_tid, Body&& body) {
  if (n == 0) return 0;
  // serial_tid plus the top-of-range worker tids must stay distinct.
  workers = std::min<int>({workers, kMaxThreads - 1, static_cast<int>(std::min<std::size_t>(
                                                         n, std::size_t{kMaxThreads}))});
  if (workers <= 1) {
    body(serial_tid, std::size_t{0}, n);
    return 1;
  }
  const std::size_t per =
      (n + static_cast<std::size_t>(workers) - 1) / static_cast<std::size_t>(workers);
  std::atomic<bool> power_failed{false};
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      try {
        const std::size_t lo = static_cast<std::size_t>(w) * per;
        const std::size_t hi = std::min(n, lo + per);
        if (lo < hi) body(kMaxThreads - 1 - w, lo, hi);
      } catch (const SimulatedPowerFailure&) {
        // Recovery work is idempotent (reverts and redo application); a
        // power failure mid-recovery means recovery simply runs again.
        power_failed.store(true, std::memory_order_release);
      }
    });
  }
  for (auto& t : threads) t.join();  // merge/quiesce barrier
  if (power_failed.load(std::memory_order_acquire)) throw SimulatedPowerFailure{};
  return workers;
}

}  // namespace nvhalt::runtime
