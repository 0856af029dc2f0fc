// F4 (paper Figure 4): the Site Scheduler Algorithm.
//
// Regenerates the evaluation a scheduling paper would print for the
// built-in algorithms:
//   (a) schedule length (simulated makespan) of the VDCE site scheduler
//       against baseline policies across graph families;
//   (b) the k-nearest-site sweep (design decision D3);
//   (c) the priority-policy ablation (level vs FIFO vs random, D2);
//   (d) the transfer-aware site choice ablation (D4).
//
// Every policy is replayed in an identical "parallel universe" (same
// testbed seed), so differences are purely placement quality.
#include <iomanip>
#include <iostream>
#include <map>

#include "bench/harness.hpp"
#include "scheduler/baselines.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/static_sim.hpp"
#include "sim/workloads.hpp"

namespace {

using namespace vdce;

constexpr std::uint64_t kTestbedSeed = 7001;
constexpr double kStart = 12.0;  // after monitoring warm-up

netsim::TestbedConfig testbed_config() {
  netsim::RandomTestbedParams params;
  params.num_sites = 4;
  params.groups_per_site = 2;
  params.hosts_per_group = 4;
  return netsim::make_random_testbed(params, kTestbedSeed);
}

/// Simulated makespan of one allocation in a fresh identical universe.
double replay(const afg::FlowGraph& graph,
              const sched::AllocationTable& allocation,
              const repo::TaskPerformanceDb& task_db) {
  netsim::VirtualTestbed universe(testbed_config());
  sim::StaticSimulator sim(universe, task_db);
  return sim.run(graph, allocation, kStart).makespan_s;
}

void policy_comparison(bench::Vdce& v) {
  bench::banner("F4a", "schedule length: VDCE vs baselines");
  bench::header("family,policy,mean_makespan_s,vs_vdce");

  const sim::GraphFamily families[] = {
      sim::GraphFamily::kChain, sim::GraphFamily::kForkJoin,
      sim::GraphFamily::kLayered, sim::GraphFamily::kInTree,
      sim::GraphFamily::kIndependent};
  constexpr int kTrials = 5;

  for (const auto family : families) {
    std::map<std::string, double> totals;
    for (int trial = 0; trial < kTrials; ++trial) {
      common::Rng rng(500 + trial);
      sim::SyntheticGraphParams params;
      params.family = family;
      params.size = 6;
      params.width = 5;
      const auto graph = sim::make_synthetic_graph(params, rng);

      sched::SiteScheduler vdce_sched(common::SiteId(0), v.directory,
                                      {.k_nearest = 3});
      sched::SiteScheduler vdce_qa(common::SiteId(0), v.directory,
                                   {.k_nearest = 3, .queue_aware = true});
      sched::RandomScheduler random_sched(*v.repositories[0],
                                          9000 + trial);
      sched::RoundRobinScheduler rr_sched(*v.repositories[0]);
      sched::MinMinScheduler minmin(*v.repositories[0], false);
      sched::MinMinScheduler maxmin(*v.repositories[0], true);
      sched::LocalOnlyScheduler local(*v.repositories[0],
                                      common::SiteId(0));

      const auto& task_db = v.repositories[0]->tasks();
      totals["1_vdce"] += replay(graph, vdce_sched.schedule(graph), task_db);
      totals["1b_vdce_qa"] += replay(graph, vdce_qa.schedule(graph), task_db);
      totals["2_minmin"] += replay(graph, minmin.schedule(graph), task_db);
      totals["3_maxmin"] += replay(graph, maxmin.schedule(graph), task_db);
      totals["4_local_only"] += replay(graph, local.schedule(graph), task_db);
      totals["5_round_robin"] += replay(graph, rr_sched.schedule(graph),
                                        task_db);
      totals["6_random"] += replay(graph, random_sched.schedule(graph),
                                   task_db);
    }
    const double vdce_mean = totals.at("1_vdce") / kTrials;
    for (const auto& [policy, total] : totals) {
      const double mean = total / kTrials;
      std::cout << to_string(family) << ","
                << policy.substr(policy.find('_') + 1) << "," << std::fixed
                << std::setprecision(3) << mean << ","
                << std::setprecision(2) << mean / vdce_mean << "x\n";
    }
  }
  std::cout << "shape check: vdce beats the load-blind baselines "
               "(random/round_robin) except on very wide graphs, where "
               "its queue-blind greedy stacks the best host; the "
               "queue-aware extension (vdce_qa, DESIGN.md D7) wins or "
               "ties every family, including against min-min.\n";
}

void k_sweep(bench::Vdce& v) {
  bench::banner("F4b", "k-nearest-site sweep (D3)");
  bench::header("k,consulted_sites,mean_makespan_s,sites_used");

  constexpr int kTrials = 5;
  for (std::size_t k = 0; k <= 3; ++k) {
    double total = 0.0;
    std::size_t consulted = 0;
    std::size_t sites_used = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      common::Rng rng(800 + trial);
      sim::SyntheticGraphParams params;
      params.family = sim::GraphFamily::kLayered;
      params.size = 5;
      params.width = 5;
      const auto graph = sim::make_synthetic_graph(params, rng);
      sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                     {.k_nearest = k});
      const auto allocation = scheduler.schedule(graph);
      consulted = scheduler.consulted_sites().size();
      sites_used += allocation.sites_involved().size();
      total += replay(graph, allocation, v.repositories[0]->tasks());
    }
    std::cout << k << "," << consulted << "," << std::fixed
              << std::setprecision(3) << total / kTrials << ","
              << std::setprecision(1)
              << static_cast<double>(sites_used) / kTrials << "\n";
  }
  std::cout << "shape check: makespan improves (or saturates) as k grows "
               "— more sites, better machines, bigger search space.\n";
}

void priority_ablation(bench::Vdce& v) {
  bench::banner("F4c", "priority policy ablation (D2)");
  bench::header("priority,mean_makespan_s");

  constexpr int kTrials = 8;
  const std::pair<const char*, sched::PriorityPolicy> policies[] = {
      {"level", sched::PriorityPolicy::kLevel},
      {"fifo", sched::PriorityPolicy::kFifo},
      {"random", sched::PriorityPolicy::kRandomized}};
  for (const auto& [name, policy] : policies) {
    double total = 0.0;
    for (int trial = 0; trial < kTrials; ++trial) {
      common::Rng rng(1300 + trial);
      sim::SyntheticGraphParams params;
      params.family = sim::GraphFamily::kLayered;
      params.size = 6;
      params.width = 5;
      const auto graph = sim::make_synthetic_graph(params, rng);
      sched::SiteSchedulerConfig config;
      config.k_nearest = 3;
      config.priority = policy;
      config.queue_aware = true;  // priorities only bite when capacity
                                  // is tracked during the pass
      sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                     config);
      total += replay(graph, scheduler.schedule(graph),
                      v.repositories[0]->tasks());
    }
    std::cout << name << "," << std::fixed << std::setprecision(3)
              << total / kTrials << "\n";
  }
  std::cout << "shape check: level-based priorities are never worse than "
               "arbitrary orders on average.\n";
}

void transfer_ablation(bench::Vdce& v) {
  bench::banner("F4d", "transfer-aware site choice ablation (D4)");
  bench::header("link_mb,mode,mean_makespan_s,mean_sites_used");

  constexpr int kTrials = 5;
  for (const double link_mb : {0.1, 10.0, 80.0}) {
    for (const bool aware : {true, false}) {
      double total = 0.0;
      double sites_used = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        common::Rng rng(2100 + trial);
        sim::SyntheticGraphParams params;
        params.family = sim::GraphFamily::kChain;
        params.size = 10;
        params.min_transfer_mb = link_mb;
        params.max_transfer_mb = link_mb;
        const auto graph = sim::make_synthetic_graph(params, rng);
        sched::SiteSchedulerConfig config;
        config.k_nearest = 3;
        config.transfer_aware = aware;
        sched::SiteScheduler scheduler(common::SiteId(0), v.directory,
                                       config);
        const auto allocation = scheduler.schedule(graph);
        sites_used += static_cast<double>(
            allocation.sites_involved().size());
        total += replay(graph, allocation, v.repositories[0]->tasks());
      }
      std::cout << link_mb << "," << (aware ? "aware" : "blind") << ","
                << std::fixed << std::setprecision(3) << total / kTrials
                << "," << std::setprecision(1) << sites_used / kTrials
                << "\n";
    }
  }
  std::cout << "shape check: with heavy links, transfer-aware placement "
               "wins and uses fewer sites; with light links the modes "
               "converge.\n";
}

}  // namespace

int main() {
  auto v = bench::bring_up(testbed_config());
  policy_comparison(v);
  k_sweep(v);
  priority_ablation(v);
  transfer_ablation(v);
  return 0;
}
