#include "process_probes.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

ProcessSample sample_process() {
  ProcessSample sample;
  rusage usage{};
  if (::getrusage(RUSAGE_SELF, &usage) == 0) {
    const auto seconds = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) +
             static_cast<double>(tv.tv_usec) * 1e-6;
    };
    sample.cpu_s = seconds(usage.ru_utime) + seconds(usage.ru_stime);
    sample.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw) +
                          static_cast<std::uint64_t>(usage.ru_nivcsw);
  }
  sample.allocations = allocation_count();
  return sample;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

double process_cpu_s(std::int64_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string content;
  if (!std::getline(stat, content)) return -1.0;
  // The command name (field 2) may hold spaces; fields resume after the
  // last ')'.  utime and stime are fields 14 and 15.
  const auto close = content.rfind(')');
  if (close == std::string::npos) return -1.0;
  std::istringstream fields(content.substr(close + 2));
  std::string field;
  double utime = 0.0;
  double stime = 0.0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index == 14) utime = std::stod(field);
    if (index == 15) stime = std::stod(field);
  }
  if (!fields) return -1.0;
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

namespace {

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

TickReading cpu_ticks() {
  TickReading ticks;
  ticks.t = steady_s();
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": the all-CPU line comes first
  // user nice system idle iowait irq softirq steal (guest time is
  // already inside user and nice).
  for (int field = 0; field < 8; ++field) {
    std::uint64_t value = 0;
    if (!(stat >> value)) return TickReading{ticks.t, 0, 0};
    ticks.whole += value;
    if (field == 7) ticks.part = value;
  }
  return ticks;
}

double wait_for_quiet_host(double max_steal_fraction, double max_wait_s) {
  const auto start = std::chrono::steady_clock::now();
  const auto waited = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  const unsigned cpus = std::max(1u, std::thread::hardware_concurrency());
  for (;;) {
    // Steal only accrues on a vCPU that wants to run, so the probe
    // keeps every CPU busy while it reads the counters.
    const TickReading before = cpu_ticks();
    {
      std::atomic<bool> stop{false};
      std::vector<std::jthread> spinners;
      for (unsigned i = 0; i < cpus; ++i) {
        spinners.emplace_back([&stop] {
          while (!stop.load(std::memory_order_relaxed)) {
          }
        });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(250));
      stop.store(true);
    }
    if (tick_share(before, cpu_ticks()) < max_steal_fraction ||
        waited() >= max_wait_s) {
      return waited();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(750));
  }
}

namespace {

/// Sampling period of StealSampler; /proc/stat ticks at 100 Hz.
constexpr auto kStealPeriod = std::chrono::milliseconds(100);
/// Slice length of StealSampler::quiet_between, seconds: 400 ticks on
/// four CPUs, so a 5% threshold is 20 ticks, not 2.
constexpr double kQuietSliceS = 1.0;

}  // namespace

StealSampler::StealSampler() {
  record();
  thread_ = std::thread([this] {
    std::unique_lock lock(mu_);
    while (!cv_.wait_for(lock, kStealPeriod, [this] { return stop_; })) {
      lock.unlock();
      record();
      lock.lock();
    }
  });
}

StealSampler::~StealSampler() {
  {
    const std::lock_guard lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

void StealSampler::record() {
  const TickReading sample = cpu_ticks();
  const std::lock_guard lock(mu_);
  samples_.push_back(sample);
}

double StealSampler::steal_between(double t0, double t1) const {
  const std::lock_guard lock(mu_);
  if (samples_.empty()) return 0.0;
  const TickReading* first = &samples_.front();
  const TickReading* last = &samples_.back();
  for (const TickReading& s : samples_) {
    if (s.t <= t0) first = &s;
    if (s.t >= t1) {
      last = &s;
      break;
    }
  }
  return tick_share(*first, *last);
}

double StealSampler::quiet_between(double t0, double t1,
                                   double max_steal) const {
  const std::lock_guard lock(mu_);
  return quiet_seconds(samples_, t0, t1, kQuietSliceS, max_steal);
}

}  // namespace perfbench
