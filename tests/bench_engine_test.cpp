// Self-test of the benchmark sweep engine (bench/engine.hpp): the checker
// fails on a planted fault for every invariant and for a missing and an
// extra cell, naming the sweep and the cell; the JSON reader rejects
// malformed input at a byte offset; files round-trip exactly; and the
// comparator gates a regression only against a baseline from the same host.
// Nothing here is timed.
#include <gtest/gtest.h>

#include <functional>
#include <stdexcept>
#include <string>

#include "engine.hpp"

namespace nvhalt::bench {
namespace {

void set(Cell& c, const std::string& metric, double v) {
  if (c.metrics.count(metric)) c.metrics[metric] = {v, v};
}

/// Every cell of `spec`, with values that satisfy every invariant:
/// consistent ledgers where an invariant constrains them, distinct
/// fractional values everywhere else.
BenchFile valid_file(const SweepSpec& spec) {
  BenchFile f{spec.name, scale_for(true), {4, "Test CPU \"x\" \\ \n é", "gcc", "abc123"}, {}};
  double x = 1.0 / 3.0;
  for (const Dims& d : spec.cells) {
    Cell c{d, {}};
    for (const MetricSpec& m : spec.metrics) c.metrics[m.name] = {x += 1.1, x * 1.7};
    const double causes[] = {1, 2, 3, 4, 5};
    const char* names[] = {"conflict", "capacity", "explicit", "spurious", "flush"};
    for (int i = 0; i < 5; ++i) set(c, names[i], causes[i]);
    set(c, "hw_aborts", 15);
    set(c, "ro_validation", 6);
    set(c, "ro_demotion", 7);
    set(c, "ro_aborts", 13);
    set(c, "lock_stripes", 4096);
    for (int k = 1; k <= 8; ++k) {
      const std::string p = "hot" + std::to_string(k) + "_";
      set(c, p + "aborts", k);
      set(c, p + "cas", 2 * k);
      set(c, p + "stalls", 3 * k);
      set(c, p + "score", 11 * k);
    }
    const std::string tm = dim(d, "tm"), engine = dim(d, "engine");
    set(c, "commits", 100);
    set(c, "hw_commits", 0);
    set(c, "sw_commits", 0);
    set(c, "ro_commits", tm == "Trinity" || tm == "SPHT" ? 0 : 90);
    if (!engine.empty()) {
      set(c, "ro_commits", 0);
      set(c, engine == "hw" ? "hw_commits" : engine == "ro" ? "ro_commits" : "sw_commits", 100);
    }
    set(c, "retired", 50);
    set(c, "limbo_start", 5);
    set(c, "reclaimed", 45);
    set(c, "limbo", 10);
    f.cells.push_back(std::move(c));
  }
  return f;
}

Cell& find_cell(BenchFile& f, const Dims& want) {
  for (Cell& c : f.cells) {
    bool match = true;
    for (const auto& [k, v] : want) match = match && dim(c.dims, k) == v;
    if (match) return c;
  }
  throw std::logic_error("no cell " + cell_label(want));
}

TEST(BenchEngine, EverySweepAcceptsAValidFileAndRoundTripsIt) {
  ASSERT_EQ(sweeps().size(), 7u);
  for (const SweepSpec& spec : sweeps()) {
    const BenchFile f = valid_file(spec);
    EXPECT_EQ(check(spec, f), std::vector<std::string>{}) << spec.name;
    EXPECT_EQ(from_json(to_json(f)), f) << spec.name;
  }
  EXPECT_EQ(find_sweep("grid")->cells.size(), 180u);
  EXPECT_EQ(find_sweep("ablation")->cells.size(), 32u);
  EXPECT_EQ(find_sweep("abort")->cells.size(), 12u);
  EXPECT_EQ(find_sweep("livelock")->cells.size(), 4u);
  EXPECT_EQ(find_sweep("alloc")->cells.size(), 24u);
  EXPECT_EQ(find_sweep("recovery")->cells.size(), 45u);
}

struct Fault {
  std::string sweep;
  std::string invariant;  // expected in the error message
  Dims where;             // the cell the fault is planted in
  std::function<void(BenchFile&, Cell&)> plant;
  Dims named = {};        // the cell the error names, when not `where`
};

TEST(BenchEngine, CheckFailsOnEveryPlantedFaultAndNamesSweepAndCell) {
  const Dims grid_t2 = {{"structure", "abtree"}, {"workload", "99ro"}, {"tm", "NV-HALT"},
                        {"threads", "2"}};
  const Dims trinity = {{"structure", "hashmap"}, {"workload", "50ro"}, {"tm", "Trinity"},
                        {"threads", "4"}};
  const Dims alloc = {{"structure", "skiplist"}, {"tm", "NV-HALT"}, {"threads", "1"}};
  const Dims hw = {{"engine", "hw"}, {"tm", "NV-HALT"}, {"op", "write"}, {"n", "64"},
                   {"config", "default"}};
  const Dims ro = {{"engine", "ro"}, {"tm", "NV-HALT"}, {"op", "read"}, {"n", "8"},
                   {"config", "default"}};
  const std::vector<Fault> faults = {
      {"grid", "hw abort causes sum to hw_aborts", grid_t2,
       [](BenchFile&, Cell& c) { c.metrics["conflict"].med += 1; }},
      {"ablation", "ro abort causes sum to ro_aborts", {{"tm", "SPHT"}, {"level", "NO-FLUSH-FENCE"}},
       [](BenchFile&, Cell& c) { c.metrics["ro_demotion"].best += 1; }},
      {"abort", "contention covers at least one stripe", {{"tm", "SPHT"}},
       [](BenchFile&, Cell& c) { c.metrics["lock_stripes"] = {0, 0}; }},
      {"grid", "hot-stripe score", trinity,
       [](BenchFile&, Cell& c) { c.metrics["hot3_score"].best += 1; }},
      {"grid", "NV-HALT routes most 99ro/95ro commits through the RO engine (t2)", grid_t2,
       [](BenchFile&, Cell& c) { c.metrics["ro_commits"] = {50, 50}; }},
      {"grid", "Trinity and SPHT take no RO commits", trinity,
       [](BenchFile&, Cell& c) { c.metrics["ro_commits"] = {3, 3}; }},
      {"alloc", "epoch ledger balances", alloc,
       [](BenchFile&, Cell& c) { c.metrics["retired"].med += 1; }},
      {"alloc", "no SPHT cell", {{"structure", "abtree"}, {"tm", "Trinity"}, {"threads", "2"}},
       [](BenchFile&, Cell& c) {
         c.dims = {{"structure", "abtree"}, {"tm", "SPHT"}, {"threads", "2"}};
       },
       {{"structure", "abtree"}, {"tm", "SPHT"}, {"threads", "2"}}},
      {"hotpath", "hw cells commit in hardware", hw,
       [](BenchFile&, Cell& c) {
         c.metrics["commits"] = {1000, 1000};  // 99.5% hardware: the share rule holds
         c.metrics["hw_commits"] = {995, 995};
       }},
      {"hotpath", "the labelled engine takes >= 99% of commits", ro,
       [](BenchFile&, Cell& c) { c.metrics["ro_commits"] = {98, 98}; }},
      {"recovery", "missing cell", {{"slice", "workers"}, {"tm", "SPHT"}, {"workers", "8"}},
       [](BenchFile& f, Cell& c) {
         f.cells.erase(f.cells.begin() + (&c - f.cells.data()));
       }},
      {"livelock", "extra cell", {{"tm", "NV-HALT"}},
       [](BenchFile& f, Cell&) {
         f.cells.push_back({{{"tm", "NV-HALT"}, {"paths", "hw-only"}}, {}});
       },
       {{"tm", "NV-HALT"}, {"paths", "hw-only"}}},
  };
  for (const Fault& fault : faults) {
    const SweepSpec& spec = *find_sweep(fault.sweep);
    BenchFile f = valid_file(spec);
    Cell& target = find_cell(f, fault.where);
    const Dims named = fault.named.empty() ? target.dims : fault.named;
    fault.plant(f, target);
    const std::vector<std::string> errors = check(spec, f);
    bool found = false;
    for (const std::string& e : errors)
      found = found || (e.starts_with(fault.sweep + " " + cell_label(named)) &&
                        e.find(fault.invariant) != std::string::npos);
    EXPECT_TRUE(found) << fault.sweep << " / " << fault.invariant << ": got "
                       << ::testing::PrintToString(errors);
  }
}

TEST(BenchEngine, RoRoutingOutsideT2IsReportedNotFailed) {
  const SweepSpec& spec = *find_sweep("grid");
  BenchFile f = valid_file(spec);
  find_cell(f, {{"structure", "hashmap"}, {"workload", "95ro"}, {"tm", "NV-HALT-SP"},
                {"threads", "4"}})
      .metrics["ro_commits"] = {10, 10};
  std::vector<std::string> notes;
  EXPECT_EQ(check(spec, f, &notes), std::vector<std::string>{});
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_NE(notes[0].find("(t1/t4)"), std::string::npos) << notes[0];
}

TEST(BenchJson, RejectsMalformedInputAtAByteOffset) {
  const std::string good = to_json(valid_file(*find_sweep("livelock")));
  ASSERT_NO_THROW(from_json(good));
  const auto error_of = [](const std::string& text) -> std::string {
    try {
      from_json(text);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  const auto replaced = [&](const std::string& from, const std::string& to) {
    std::string s = good;
    s.replace(s.find(from), from.size(), to);
    return s;
  };
  for (const std::string& bad :
       {good.substr(0, good.size() / 2), good.substr(0, good.size() - 3), good + "x",
        good + "{}", replaced("\"tm\"", "\"t\\q\""), replaced("\"tm\"", "\"t\\u12\""),
        replaced("\"full\"", "\"smoke"), replaced("[", "[1e999,"), replaced("[", "[NaN,"),
        replaced("[", "[-Infinity,"), replaced("\"sweep\"", "\"sweeps\"")}) {
    const std::string err = error_of(bad);
    EXPECT_TRUE(err.starts_with("byte ")) << err << " for " << bad.substr(0, 80);
  }
  EXPECT_EQ(error_of(good + "x"), "byte " + std::to_string(good.size()) +
                                      ": trailing garbage after the document");
  EXPECT_EQ(error_of("{\"sweep\":\"a\\x\"}"), "byte 12: bad escape '\\x'");
}

TEST(BenchCompare, GatesARegressionOnlyAgainstTheSameHostAndScale) {
  const SweepSpec& spec = *find_sweep("grid");
  const BenchFile base = valid_file(spec);
  BenchFile cur = base;
  cur.cells[7].metrics["ops_per_sec"].med /= 2;  // a 2x throughput regression
  std::string report;
  EXPECT_EQ(compare(spec, base, cur, 0.5, report), 1) << report;
  EXPECT_NE(report.find("REGRESSION"), std::string::npos);
  EXPECT_EQ(compare(spec, base, cur, 0.0, report), 0) << "tolerance 0 is advisory";

  BenchFile other_host = base;
  other_host.host.cpu = "Another CPU";
  EXPECT_EQ(compare(spec, other_host, cur, 0.5, report), 0);
  other_host = base;
  other_host.host.nproc = 1;
  EXPECT_EQ(compare(spec, other_host, cur, 0.5, report), 0);

  BenchFile full = base;
  full.scale = scale_for(false);
  report.clear();
  EXPECT_EQ(compare(spec, full, cur, 0.5, report), 0);
  EXPECT_NE(report.find("no cells pair"), std::string::npos) << report;
}

}  // namespace
}  // namespace nvhalt::bench
