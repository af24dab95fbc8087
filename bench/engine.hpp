// The sweep engine behind every benchmark in this directory: one cell
// model, one JSON file format, and one checker, comparator and markdown
// renderer, all driven by the per-sweep specs in sweeps.cpp.
//
// A sweep is a fixed list of cells. A cell is its dims (the coordinates
// that identify it, e.g. structure/workload/tm/threads) plus its metrics.
// Every metric holds two values over the run's rounds: the median round
// and the best round (max or min by the metric's direction; for an even
// round count the median is the worse middle round). A metric with no
// direction is a ledger field: both of its values come from the rounds
// that are median and best by the sweep's primary metric, so identities
// between ledger fields (abort causes summing to the abort count) hold in
// either column.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace nvhalt::bench {

enum class Better { kHigher, kLower, kNone };

struct MetricSpec {
  std::string name;
  Better better = Better::kNone;
  /// The comparator gates this metric's median against a baseline.
  bool gated = false;
};

struct Stat {
  double med = 0;
  double best = 0;
  bool operator==(const Stat&) const = default;
};

using Dims = std::vector<std::pair<std::string, std::string>>;
/// One round of one cell: metric name -> value.
using Sample = std::map<std::string, double>;

struct Cell {
  Dims dims;
  std::map<std::string, Stat> metrics;
  bool operator==(const Cell&) const = default;
};

/// Everything a file's numbers depend on besides the cells. Cells of two
/// files pair only when sweep, dims and scale all agree, so smoke cells
/// never pair with full ones.
struct Scale {
  bool smoke = false;
  int keys = 0;    // key range of the mixed workloads
  int ms = 0;      // measurement window per round
  int iters = 0;   // transactions per hotpath round
  int rounds = 1;
  bool operator==(const Scale&) const = default;
};

/// Provenance. A baseline from another CPU model or CPU count is only ever
/// compared advisorily.
struct Host {
  int nproc = 0;
  std::string cpu, compiler, git;
  bool operator==(const Host&) const = default;
};

struct BenchFile {
  std::string sweep;
  Scale scale;
  Host host;
  std::vector<Cell> cells;
  bool operator==(const BenchFile&) const = default;
};

/// Reads one column (median or best) of a cell's metrics; NaN if absent.
using MetricView = std::function<double(const std::string&)>;

/// A per-cell rule; `check` returns an empty string when it holds.
struct Invariant {
  std::string name;
  std::function<std::string(const Dims&, const MetricView&)> check;
  /// Failures are reported as notes and do not fail the check.
  bool advisory = false;
};

/// The renderer's ratio table: `metric` of every cell against the cell
/// that has `dim` == `ref` and the same other dims (oriented so that > 1
/// is better than the reference), with a geomean row per value of
/// `group` (when set) and an overall one.
struct Ratio {
  std::string dim, ref, metric, group;
};

struct SweepSpec {
  std::string name;
  std::string what;                  // heading of the rendered table
  std::vector<MetricSpec> metrics;   // metrics[0] is the primary metric
  std::vector<Dims> cells;           // the complete cell list, in order
  std::vector<Invariant> invariants;
  std::function<Sample(const Dims&, const Scale&)> measure;
  Ratio ratio;                       // empty dim: no ratio table
};

/// Every sweep, in run order (sweeps.cpp).
const std::vector<SweepSpec>& sweeps();
const SweepSpec* find_sweep(const std::string& name);
/// Full or smoke scale; NVHALT_BENCH_ROUNDS overrides the round count.
Scale scale_for(bool smoke);
Host this_host();
/// A dim's value, or "" when the cell has no such dim.
std::string dim(const Dims& d, const std::string& name);
std::string cell_label(const Dims& d);

/// Measures every cell `scale.rounds` times, logging each to stderr.
BenchFile run_sweep(const SweepSpec& spec, const Scale& scale, const Host& host);

/// One header line, one line per cell. Numbers round-trip exactly.
std::string to_json(const BenchFile& f);
/// Throws std::runtime_error("byte N: ...") on anything but a well-formed
/// bench file: truncation, trailing garbage, bad escapes, non-finite
/// numbers, unknown keys.
BenchFile from_json(const std::string& text);

/// Errors, each naming the sweep and the cell: cells missing from or
/// extra to the spec's list, missing metrics, failed invariants. Failed
/// advisory invariants go to `notes`.
std::vector<std::string> check(const SweepSpec& spec, const BenchFile& f,
                               std::vector<std::string>* notes = nullptr);

/// Compares the medians of gated metrics cell by cell, appending one line
/// per ratio (oriented so that < 1 is worse) to `report`. Returns the
/// number of ratios at or below 1 - `tolerance`; 0 when `tolerance` <= 0
/// or the hosts differ.
int compare(const SweepSpec& spec, const BenchFile& base, const BenchFile& cur,
            double tolerance, std::string& report);

/// One markdown table per sweep (dims, then metric medians), plus the
/// ratio table when the spec declares one.
std::string render(const SweepSpec& spec, const BenchFile& f);

}  // namespace nvhalt::bench
