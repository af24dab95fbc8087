// Per-thread telemetry counters folded into runtime::TxThreadState and the
// aggregated per-TM view returned by TransactionalMemory::telemetry().
//
// Everything here is live at every NVHALT_TELEMETRY level (these are the
// "counters only" of level 0): plain per-thread increments with the same
// ownership discipline as TmThreadStats — written only by the owning
// thread, merged at quiescent points.
#pragma once

#include <array>
#include <cstdint>

#include "htm/htm_types.hpp"
#include "telemetry/histogram.hpp"

namespace nvhalt::telemetry {

inline constexpr std::size_t kNumAbortCauses =
    static_cast<std::size_t>(htm::AbortCause::kNumCauses);

/// Why a read-only fast-path attempt ended without committing:
///   kRoValidation — a snapshot/lock-word validation failed (either RO
///                   engine), including hardware conflict aborts of an RO
///                   attempt;
///   kRoDemotion   — the body wrote/allocated/freed, so the attempt was
///                   abandoned and the transaction rerouted to the general
///                   path.
enum class RoAbortCause : std::uint8_t { kRoValidation = 0, kRoDemotion, kNumCauses };

inline constexpr std::size_t kNumRoAbortCauses =
    static_cast<std::size_t>(RoAbortCause::kNumCauses);

const char* ro_abort_cause_name(RoAbortCause c);

/// Hardware aborts decoded by htm::AbortCause, read-only fast-path aborts
/// decoded by RoAbortCause, plus the software-path and user abort tallies,
/// in one place. The invariants the metrics exporters and bench_regress
/// --check enforce: sum(hw_by_cause) == TmThreadStats::hw_aborts and
/// sum(ro_by_cause) == TmThreadStats::ro_aborts, exactly — each pair is
/// bumped by a single TxThreadState call site (record_hw_abort /
/// record_ro_abort).
struct AbortTaxonomy {
  std::array<std::uint64_t, kNumAbortCauses> hw_by_cause{};
  std::array<std::uint64_t, kNumRoAbortCauses> ro_by_cause{};
  std::uint64_t sw_aborts = 0;
  std::uint64_t user_aborts = 0;

  std::uint64_t hw_total() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : hw_by_cause) t += c;
    return t;
  }

  std::uint64_t ro_total() const {
    std::uint64_t t = 0;
    for (std::uint64_t c : ro_by_cause) t += c;
    return t;
  }

  void add(const AbortTaxonomy& o) {
    for (std::size_t i = 0; i < hw_by_cause.size(); ++i) hw_by_cause[i] += o.hw_by_cause[i];
    for (std::size_t i = 0; i < ro_by_cause.size(); ++i) ro_by_cause[i] += o.ro_by_cause[i];
    sw_aborts += o.sw_aborts;
    user_aborts += o.user_aborts;
  }

  void reset() { *this = AbortTaxonomy{}; }
};

/// Per-thread telemetry block. Latencies are in now_ticks() units (rdtsc
/// cycles on x86); sizes are in words/lines as noted.
struct TxTelemetry {
  AbortTaxonomy taxonomy;
  PowHistogram tx_latency_hw;    // ticks, hardware-path commits
  PowHistogram tx_latency_sw;    // ticks, software-path commits
  PowHistogram write_set_size;   // words logged/persisted per committed tx
  PowHistogram ack_latency;      // ticks from commit to durability ack

  void add(const TxTelemetry& o) {
    taxonomy.add(o.taxonomy);
    tx_latency_hw.add(o.tx_latency_hw);
    tx_latency_sw.add(o.tx_latency_sw);
    write_set_size.add(o.write_set_size);
    ack_latency.add(o.ack_latency);
  }

  void reset() {
    taxonomy.reset();
    tx_latency_hw.reset();
    tx_latency_sw.reset();
    write_set_size.reset();
    ack_latency.reset();
  }
};

/// Aggregated (all registered threads) telemetry for one TM instance, as
/// returned by TransactionalMemory::telemetry().
struct TmTelemetry {
  TxTelemetry tx;
};

}  // namespace nvhalt::telemetry
