// Shared helpers for NV-HALT test suites.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "api/tm_factory.hpp"
#include "util/barrier.hpp"

namespace nvhalt::test {

/// A small, fast configuration for unit tests.
inline RunnerConfig small_config(TmKind kind) {
  RunnerConfig cfg;
  cfg.kind = kind;
  cfg.pmem.capacity_words = std::size_t{1} << 18;
  cfg.pmem.raw_words = std::size_t{1} << 19;  // room for SPHT per-thread logs
  cfg.pmem.track_store_order = true;
  cfg.htm.stripe_count = std::size_t{1} << 12;
  cfg.nvhalt.lock_table_entries = std::size_t{1} << 12;
  cfg.trinity.lock_table_entries = std::size_t{1} << 12;
  cfg.spht.log_words_per_thread = std::size_t{1} << 14;
  cfg.spht.max_threads = 16;
  cfg.spht.replay_threads = 2;
  return cfg;
}

/// One past the highest tid a small_config runner accepts.
inline int tid_limit(TmKind kind) {
  return kind == TmKind::kSpht ? small_config(kind).spht.max_threads : kMaxThreads;
}

/// All five evaluated TM kinds, for parameterized suites.
inline std::vector<TmKind> all_kinds() {
  return {TmKind::kNvHalt, TmKind::kNvHaltCl, TmKind::kNvHaltSp, TmKind::kTrinity, TmKind::kSpht};
}

inline std::string kind_param_name(const testing::TestParamInfo<TmKind>& info) {
  std::string n = tm_kind_name(info.param);
  for (auto& c : n)
    if (c == '-') c = '_';
  return n;
}

/// Runs `fn` on its own thread and ends the test process with a failure if
/// it has not returned within `limit`: a deadlocked protocol would
/// otherwise hold the test until ctest's timeout.
template <typename Fn>
void finish_within(std::chrono::seconds limit, Fn&& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread runner([&] {
    fn();
    done.set_value();
  });
  if (finished.wait_for(limit) == std::future_status::timeout) {
    ADD_FAILURE() << "deadlock: not finished after " << limit.count() << " s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  runner.join();
}

/// Runs `fn(tid)` on `nthreads` threads after a common barrier.
template <typename Fn>
void run_threads(int nthreads, Fn&& fn) {
  SpinBarrier barrier(nthreads);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      barrier.arrive_and_wait();
      fn(t);
    });
  }
  for (auto& th : threads) th.join();
}

}  // namespace nvhalt::test
