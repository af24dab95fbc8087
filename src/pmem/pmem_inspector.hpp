// Persistent-state inspector: recovery-time diagnostics over the simulated
// NVM image. Answers "what would recovery do right now?" — how many records
// are in-flight (would be reverted), which threads have uncommitted
// persistence epochs, how much of the staged image is not yet durable.
// Used by tests and handy when debugging a recovery problem.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "alloc/tx_allocator.hpp"
#include "pmem/pmem_pool.hpp"

namespace nvhalt {

struct PmemReport {
  /// Words whose record recovery would revert (record_in_flight against
  /// the staged pVerNums).
  std::uint64_t in_flight_records = 0;
  /// Words whose record holds any nonzero field. A zero pver alone does
  /// not mean untouched: thread 0's first transaction stamps
  /// pack_pver(0, 0) == 0.
  std::uint64_t touched_records = 0;
  /// Words whose staged record differs from the durable one.
  std::uint64_t undurable_records = 0;
  /// Threads with a nonzero persistent version number.
  std::vector<int> active_threads;
  /// Per active thread: durable pVerNum.
  std::vector<std::uint64_t> thread_pvers;

  std::string to_string() const;
};

class PmemInspector {
 public:
  explicit PmemInspector(const PmemPool& pool) : pool_(pool) {}

  /// Scans the whole record space. Must run quiescently.
  PmemReport scan() const;

  /// Summarizes `alloc`'s persistent metadata (segment watermark, free
  /// segments, used slots, armed intent records). Must run quiescently;
  /// `alloc` must be backed by the inspected pool.
  AllocDurableSummary scan_alloc(const TxAllocator& alloc) const { return alloc.durable_summary(); }
  static std::string alloc_to_string(const AllocDurableSummary& s);

 private:
  const PmemPool& pool_;
};

}  // namespace nvhalt
