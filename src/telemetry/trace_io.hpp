// Trace serialization: a line-oriented raw text format written by
// instrumented binaries (crash_harness, benches), a converter to the
// chrome://tracing / Perfetto JSON array format, and the checks and
// in-flight summary the trace_dump CLI prints.
//
// Raw format (nvhalt-trace-v1):
//   # nvhalt-trace-v1 level=<n> ticks_per_us=<f>
//   # ring tid=<n> pushed=<n> dropped=<n> capacity=<n>
//   <ticks> <kind> <tid> <arg> <cause|->
//   ...
// One `# ring` header per surviving ring, followed by its events oldest
// first. `cause` is an abort-cause name for kHwAbort and kRoAbort lines
// and `-` elsewhere. The header records pushed/dropped so overflow
// accounting survives the round-trip even though dropped events themselves
// do not; capacity= is optional on input, and any other header field is
// rejected.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/telemetry.hpp"

namespace nvhalt::telemetry {

/// One serializable trace capture: every ring plus the timebase needed to
/// turn tick deltas into wall time.
struct TraceDump {
  int level = kLevel;
  double ticks_per_us = 1.0;
  std::vector<ThreadTrace> threads;

  std::uint64_t total_events() const;
  std::uint64_t total_dropped() const;
};

/// Snapshot the process-wide TraceBuffer and calibrate the tick rate.
/// Meaningful only in builds with NVHALT_TELEMETRY >= 1 (returns an empty
/// dump at level 0).
TraceDump collect_trace_dump();

void write_raw_trace(std::ostream& os, const TraceDump& dump);

/// Parses the raw format. Returns false (and sets *err when non-null, with
/// the line number) on a malformed header, number or event line; ring
/// header fields and event kinds it does not know are rejected, not
/// skipped, so a version bump cannot be silently misread.
bool read_raw_trace(std::istream& is, TraceDump& dump, std::string* err = nullptr);

/// Consistency of every ring: events + dropped <= pushed, and with the
/// capacity known, events <= capacity and pushed - dropped == events;
/// timestamps never go backwards within a ring. Returns false with the
/// first violation in *err.
bool check_trace(const TraceDump& dump, std::string* err = nullptr);

/// Name of an event's cause byte (htm::AbortCause for kHwAbort,
/// RoAbortCause for kRoAbort), or null when the event carries none.
const char* event_cause_name(const TraceEvent& e);

/// What one ring says was in flight when it was captured.
struct InFlight {
  bool open_tx = false;          ///< the last kTxBegin has no closing record
  std::uint64_t held_locks = 0;  ///< kLockAcquire args summed over the open tx
  std::size_t past_fence = 0;    ///< records after the last kFence (all, if none)
  /// The latest record carrying a cause; kind is kNumKinds when none does.
  TraceEvent last_caused;
};

InFlight in_flight(const ThreadTrace& t);

/// chrome://tracing JSON object format: {"traceEvents": [...]}. Each
/// kTxBegin..{kHwCommit,kSwCommit,kUserAbort} pair on a tid becomes one "X"
/// (complete) event named by its outcome; every other event becomes a
/// thread-scoped "i" (instant) event. Timestamps are microseconds relative
/// to the earliest event in the dump.
void write_chrome_trace(std::ostream& os, const TraceDump& dump);

/// Convenience wrappers writing to a path; return false on I/O failure.
bool write_raw_trace_file(const std::string& path, const TraceDump& dump);
bool write_chrome_trace_file(const std::string& path, const TraceDump& dump);

}  // namespace nvhalt::telemetry
