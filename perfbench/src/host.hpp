// Host-side measurement helpers: the benchmark clock, CPU pinning, run
// provenance (CPU model, compiler, hypervisor steal) and peak RSS.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace perfbench {

/// Monotonic nanoseconds. One steady_clock read (~30 ns on a KVM guest),
/// so callers read it once per op boundary and reuse the value.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Pins the calling thread to `cpu` modulo the visible CPU count.
void pin_to_cpu(int cpu);

/// CPU time counters from the first line of /proc/stat (jiffies).
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes read_cpu_times();
/// Share of CPU time stolen by the hypervisor between two samples, in %.
double steal_pct(const CpuTimes& a, const CpuTimes& b);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// Time-stamp-counter ticks per microsecond, calibrated against
/// steady_clock over ~20 ms (converts ContentionTable stall ticks).
double tsc_ticks_per_us();

std::string cpu_model();
std::string compiler_id();

}  // namespace perfbench
