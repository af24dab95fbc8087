// bench_regress: runs the benchmark sweeps and writes BENCH_<sweep>.json,
// or reads such files back to check, compare and render them.
//
//   bench_regress [--smoke] [--check] [--out DIR] [--baseline DIR] [SWEEP... | FILE...]
//
// Operands name sweeps to run (none: every sweep), or BENCH_*.json files
// to read instead of running; files read are rendered as markdown tables
// on stdout.
//   --smoke         2^10 keys, 20 ms windows, 300 hotpath transactions and
//                   1 round per cell, instead of 2^14 keys, 150 ms, 3000
//                   transactions and 3 rounds
//   --check         check every file against its sweep's spec (exactly its
//                   cells, every metric, every invariant); exit 1 on error
//   --out DIR       where fresh files go (default: the working directory)
//   --baseline DIR  compare each file's gated medians with
//                   DIR/BENCH_<sweep>.json
// NVHALT_BENCH_ROUNDS overrides the round count. NVHALT_BENCH_TOLERANCE, a
// fraction such as 0.5, makes --baseline fail when a gated median is worse
// than the baseline's by that fraction or more; unset or 0 it only prints,
// and a baseline from another CPU model or CPU count is never gated.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "engine.hpp"

namespace {

using namespace nvhalt::bench;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int usage() {
  std::string names;
  for (const SweepSpec& s : sweeps()) names += " " + s.name;
  std::fprintf(stderr,
               "usage: bench_regress [--smoke] [--check] [--out DIR] [--baseline DIR] "
               "[SWEEP... | FILE...]\nsweeps:%s\n",
               names.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false, check_files = false;
  std::string out_dir = ".", baseline_dir;
  std::vector<std::string> operands;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--smoke") smoke = true;
    else if (a == "--check") check_files = true;
    else if (a == "--out" && i + 1 < argc) out_dir = argv[++i];
    else if (a == "--baseline" && i + 1 < argc) baseline_dir = argv[++i];
    else if (!a.starts_with("--")) operands.push_back(a);
    else return usage();
  }
  const char* tol = std::getenv("NVHALT_BENCH_TOLERANCE");
  const double tolerance = tol != nullptr ? std::max(0.0, std::atof(tol)) : 0.0;

  try {
    // Every file this invocation handles, with its sweep.
    std::vector<std::pair<const SweepSpec*, BenchFile>> files;
    const bool read = !operands.empty() && operands.front().ends_with(".json");
    if (read) {
      for (const std::string& path : operands) {
        BenchFile f = from_json(slurp(path));
        const SweepSpec* spec = find_sweep(f.sweep);
        if (spec == nullptr) throw std::runtime_error(path + ": unknown sweep '" + f.sweep + "'");
        files.emplace_back(spec, std::move(f));
      }
    } else {
      std::vector<const SweepSpec*> run;
      for (const std::string& name : operands) {
        if (find_sweep(name) == nullptr) return usage();
        run.push_back(find_sweep(name));
      }
      if (run.empty())
        for (const SweepSpec& s : sweeps()) run.push_back(&s);
      std::filesystem::create_directories(out_dir);
      const Host host = this_host();
      for (const SweepSpec* spec : run) {
        BenchFile f = run_sweep(*spec, scale_for(smoke), host);
        const std::string path = out_dir + "/BENCH_" + spec->name + ".json";
        std::ofstream out(path, std::ios::trunc);
        if (!(out << to_json(f))) throw std::runtime_error("cannot write " + path);
        std::fprintf(stderr, "bench_regress: wrote %s\n", path.c_str());
        files.emplace_back(spec, std::move(f));
      }
    }

    int failures = 0;
    for (const auto& [spec, f] : files) {
      if (check_files) {
        std::vector<std::string> notes;
        const std::vector<std::string> errors = check(*spec, f, &notes);
        for (const std::string& n : notes)
          std::fprintf(stderr, "bench_regress --check: note: %s\n", n.c_str());
        for (const std::string& e : errors)
          std::fprintf(stderr, "bench_regress --check: %s\n", e.c_str());
        std::fprintf(stderr, "bench_regress --check: %s %s\n", spec->name.c_str(),
                     errors.empty() ? "OK" : "FAILED");
        failures += errors.empty() ? 0 : 1;
      }
      if (!baseline_dir.empty()) {
        const BenchFile base = from_json(slurp(baseline_dir + "/BENCH_" + spec->name + ".json"));
        std::string report;
        failures += compare(*spec, base, f, tolerance, report) > 0 ? 1 : 0;
        std::fputs(report.c_str(), stderr);
      }
      if (read) std::printf("%s\n", render(*spec, f).c_str());
    }
    return failures == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_regress: %s\n", e.what());
    return 1;
  }
}
