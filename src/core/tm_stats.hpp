// Transaction outcome record, kept per thread and aggregated on demand.
#pragma once

#include <array>
#include <cstdint>

#include "telemetry/histogram.hpp"
#include "telemetry/telemetry.hpp"

namespace nvhalt {

/// The one outcome record of a TM. Each thread's runtime::TxThreadState
/// owns one, written only by that thread; stats() sums the slots' records
/// at a quiescent point. Every field is live at every NVHALT_TELEMETRY
/// level except the three latency histograms, which take timestamps and
/// are recorded at level >= 1 only.
///
/// commits == hw_commits + sw_commits + ro_commits, always: every commit is
/// attributed to exactly one path. read_only_commits counts commits with an
/// empty write set on *any* path (a superset of ro_commits — the general
/// hardware/software paths also commit read-only bodies).
/// sum(hw_by_cause) == hw_aborts and sum(ro_by_cause) == ro_aborts,
/// exactly: TxThreadState::record_hw_abort / record_ro_abort bump each pair
/// at one site.
struct TmStats {
  std::uint64_t commits = 0;            // total committed transactions
  std::uint64_t hw_commits = 0;         // committed on the hardware path
  std::uint64_t sw_commits = 0;         // committed on the software path
  std::uint64_t ro_commits = 0;         // committed on the read-only fast path
  std::uint64_t read_only_commits = 0;  // committed with an empty write set
  std::uint64_t hw_aborts = 0;          // hardware attempt aborts (all causes)
  std::uint64_t sw_aborts = 0;          // software attempt conflict aborts
  std::uint64_t ro_aborts = 0;          // read-only fast-path attempt aborts
  std::uint64_t fallbacks = 0;          // transactions that exhausted HW attempts
  std::uint64_t user_aborts = 0;        // voluntary aborts

  /// hw_aborts by htm::AbortCause, ro_aborts by telemetry::RoAbortCause.
  std::array<std::uint64_t, telemetry::kNumAbortCauses> hw_by_cause{};
  std::array<std::uint64_t, telemetry::kNumRoAbortCauses> ro_by_cause{};

  /// Latencies in now_ticks() units (level >= 1); sizes in words.
  telemetry::PowHistogram tx_latency_hw;   // hardware-path commits
  telemetry::PowHistogram tx_latency_sw;   // software-path commits
  telemetry::PowHistogram write_set_size;  // words logged/persisted per commit
  telemetry::PowHistogram ack_latency;     // commit to durability ack

  void add(const TmStats& o) {
    commits += o.commits;
    hw_commits += o.hw_commits;
    sw_commits += o.sw_commits;
    ro_commits += o.ro_commits;
    read_only_commits += o.read_only_commits;
    hw_aborts += o.hw_aborts;
    sw_aborts += o.sw_aborts;
    ro_aborts += o.ro_aborts;
    fallbacks += o.fallbacks;
    user_aborts += o.user_aborts;
    for (std::size_t c = 0; c < hw_by_cause.size(); ++c) hw_by_cause[c] += o.hw_by_cause[c];
    for (std::size_t c = 0; c < ro_by_cause.size(); ++c) ro_by_cause[c] += o.ro_by_cause[c];
    tx_latency_hw.add(o.tx_latency_hw);
    tx_latency_sw.add(o.tx_latency_sw);
    write_set_size.add(o.write_set_size);
    ack_latency.add(o.ack_latency);
  }

  void reset() { *this = TmStats{}; }
};

}  // namespace nvhalt
