// Process-level counters read from outside the program: CPU time and
// context switches (getrusage), heap allocations (the counting
// operator new in alloc_counter.cpp), peak RSS (VmHWM) and the CPU time
// of another process (/proc/<pid>/stat).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "stats.hpp"

namespace perfbench {

/// One reading of this process's counters.
struct ProcessSample {
  double cpu_s = 0.0;               // user + system
  std::uint64_t ctx_switches = 0;   // voluntary + involuntary
  std::uint64_t allocations = 0;    // operator new calls
};

[[nodiscard]] ProcessSample sample_process();

/// Heap allocations made through operator new since process start.
/// Defined by the counting operator new linked into the benchmark
/// binary.
[[nodiscard]] std::uint64_t allocation_count();

/// Peak resident set size of this process, MiB (VmHWM).
[[nodiscard]] double peak_rss_mb();

/// User + system CPU seconds of process `pid` so far; a negative value
/// when it cannot be read.
[[nodiscard]] double process_cpu_s(std::int64_t pid);

/// Machine-wide CPU ticks from /proc/stat, stamped with the steady
/// clock: `part` is the steal, the time the hypervisor ran something
/// else while a vCPU wanted to run, of all CPU time (`whole`).
/// tick_share of two readings is the share stolen between them.
[[nodiscard]] TickReading cpu_ticks();

/// Waits until the host is quiet: repeatedly spins every CPU for a
/// short probe and returns once a probe sees less than
/// `max_steal_fraction` steal, or after `max_wait_s`.  Returns the
/// seconds waited.
double wait_for_quiet_host(double max_steal_fraction, double max_wait_s);

/// Samples the machine-wide CPU counters on a background thread, so any
/// interval of a run can be asked what share of the CPU the hypervisor
/// stole during it.
class StealSampler {
 public:
  StealSampler();
  /// Stops and joins the sampling thread.
  ~StealSampler();
  StealSampler(const StealSampler&) = delete;
  StealSampler& operator=(const StealSampler&) = delete;

  /// Steal fraction over [t0, t1] (steady-clock seconds), widened to the
  /// nearest samples around it.
  [[nodiscard]] double steal_between(double t0, double t1) const;

  /// Seconds of [t0, t1] in slices of about a second with under
  /// `max_steal` of the CPU stolen (quiet_seconds).
  [[nodiscard]] double quiet_between(double t0, double t1,
                                     double max_steal) const;

 private:
  void record();

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<TickReading> samples_;
  std::thread thread_;
};

}  // namespace perfbench
