#include "host.hpp"

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <thread>

#include "telemetry/telemetry.hpp"

namespace perfbench {

void pin_to_cpu(int cpu) {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(static_cast<unsigned>(cpu) % n, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTimes t;
  // user nice system idle iowait irq softirq steal (guest time is already
  // counted inside user/nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) break;
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_pct(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return 100.0 * static_cast<double>(b.steal - a.steal) / static_cast<double>(b.total - a.total);
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double tsc_ticks_per_us() {
  const std::uint64_t t0 = now_ns();
  const std::uint64_t c0 = nvhalt::telemetry::now_ticks();
  while (now_ns() - t0 < 20'000'000) {
  }
  const std::uint64_t t1 = now_ns();
  const std::uint64_t c1 = nvhalt::telemetry::now_ticks();
  return static_cast<double>(c1 - c0) * 1000.0 / static_cast<double>(t1 - t0);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string compiler_id() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace perfbench
