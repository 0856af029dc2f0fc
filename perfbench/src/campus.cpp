#include <sched.h>

#include <algorithm>
#include <chrono>
#include <iostream>
#include <numeric>

#include "stats.hpp"
#include "tasklib/registry.hpp"
#include "workloads.hpp"

namespace perfbench {

Campus::Campus(std::uint64_t seed)
    : testbed(std::make_unique<vdce::netsim::VirtualTestbed>(
          vdce::netsim::make_campus_testbed(seed))) {
  for (const vdce::common::SiteId site : testbed->sites()) {
    auto repository = std::make_unique<vdce::repo::SiteRepository>(site);
    vdce::tasklib::builtin_registry().install_defaults(repository->tasks());
    testbed->populate_repository(*repository, site);
    repository->users().add_user("hpdc", "nynet", 1, "wan");
    auto forecaster = std::make_unique<vdce::predict::LoadForecaster>();
    auto manager = std::make_unique<vdce::rt::SiteManager>(site, *repository,
                                                           *forecaster);
    auto control =
        std::make_unique<vdce::rt::ControlManager>(*testbed, site, *manager);
    directory.add_site(*manager);
    repositories.push_back(std::move(repository));
    forecasters.push_back(std::move(forecaster));
    managers.push_back(std::move(manager));
    controls.push_back(std::move(control));
  }
}

void Campus::warm_up(double until) {
  for (double t = 1.0; t <= until; t += 1.0) {
    for (auto& control : controls) control->tick(t);
  }
}

void time_setups(const std::function<double()>& set_up,
                 std::vector<double>& per_cpu) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  std::vector<int> cpus;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
    }
  }
  if (cpus.empty()) cpus.push_back(-1);  // unknown mask: run unpinned
  for (const int cpu : cpus) {
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      (void)::sched_setaffinity(0, sizeof(one), &one);
    }
    std::vector<double> seconds;
    for (int i = 0; i < kSetupsPerCpu; ++i) seconds.push_back(set_up());
    per_cpu.push_back(median(seconds));
  }
  if (cpus.front() >= 0) {
    (void)::sched_setaffinity(0, sizeof(allowed), &allowed);
  }
}

void await_quiet_host() {
  const double waited = wait_for_quiet_host(kQuietSteal, kQuietMaxWaitS);
  if (waited > 1.0) {
    std::cerr << "host: waited " << waited << " s for steal under "
              << kQuietSteal * 100 << "%\n";
  }
}

bool window_done(const StealSampler& steal, double start, double length,
                 double t) {
  if (t < start + length) return false;
  if (t >= start + kMaxWindowFactor * length) return true;
  return steal.quiet_between(start, t, kRoundMaxSteal) >= kQuietShare * length;
}

std::vector<bool> rounds_to_use(
    const StealSampler& steal,
    const std::vector<std::pair<double, double>>& rounds) {
  std::vector<double> stolen;
  std::vector<bool> use;
  std::size_t count = 0;
  for (const auto& [start, end] : rounds) {
    stolen.push_back(steal.steal_between(start, end));
    use.push_back(stolen.back() < kRoundMaxSteal);
    count += use.back() ? 1 : 0;
  }
  std::cerr << "host: " << count << " of " << rounds.size()
            << " rounds had under " << kRoundMaxSteal * 100
            << "% of the CPU stolen\n";
  if (count < kMinQuietRounds) {
    std::vector<std::size_t> order(rounds.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&stolen](std::size_t a, std::size_t b) {
                       return stolen[a] < stolen[b];
                     });
    use.assign(rounds.size(), false);
    const std::size_t keep = std::min(kMinQuietRounds, order.size());
    for (std::size_t i = 0; i < keep; ++i) use[order[i]] = true;
    std::cerr << "host: using the " << keep << " least stolen\n";
  }
  return use;
}

double median_of(const std::vector<double>& values,
                 const std::vector<bool>& use) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (use[i]) kept.push_back(values[i]);
  }
  return median(std::move(kept));
}

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
