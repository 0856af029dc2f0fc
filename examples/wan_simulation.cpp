// Wide-area simulation: VDCE at the scale the paper aims for (the NII),
// with failures and dynamic rescheduling.
//
// Brings up a 6-site random testbed (48 heterogeneous hosts), runs a
// layered synthetic application under the dynamic simulator while a
// host crashes mid-execution and another gets a load spike, and shows
// the workload visualization of what the monitors saw.
#include <iostream>

#include "bench/harness.hpp"
#include "common/log.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/dynamic_sim.hpp"
#include "sim/workloads.hpp"
#include "viz/gantt.hpp"
#include "viz/workload_viz.hpp"

int main() {
  using namespace vdce;
  common::set_log_level(common::LogLevel::kInfo);

  netsim::RandomTestbedParams params;
  params.num_sites = 6;
  params.groups_per_site = 2;
  params.hosts_per_group = 4;
  auto vdce = bench::bring_up(
      netsim::make_random_testbed(params, /*seed=*/2026), /*warm_up_s=*/20.0);
  std::cout << "testbed: " << vdce.testbed->host_count() << " hosts, "
            << vdce.testbed->sites().size() << " sites\n";

  // A 6-layer x 6-wide application.
  common::Rng rng(99);
  sim::SyntheticGraphParams gp;
  gp.family = sim::GraphFamily::kLayered;
  gp.size = 6;
  gp.width = 6;
  const afg::FlowGraph graph = sim::make_synthetic_graph(gp, rng);
  std::cout << "application: " << graph.task_count() << " tasks, "
            << graph.link_count() << " links\n";

  // Schedule from site 0 with k=3 neighbour sites.
  sched::SiteSchedulerConfig sched_config;
  sched_config.k_nearest = 3;
  sched::SiteScheduler scheduler(vdce.site_managers[0]->site(),
                                 vdce.directory, sched_config);
  const auto allocation = scheduler.schedule(graph);
  std::cout << "scheduler consulted " << scheduler.consulted_sites().size()
            << " sites; " << allocation.sites_involved().size()
            << " sites and " << allocation.hosts_involved().size()
            << " hosts take part in the execution\n";

  // Trouble ahead: kill the busiest assigned host mid-run and spike
  // another.
  const auto hosts = allocation.hosts_involved();
  vdce.testbed->fail_host(hosts.front(), /*start=*/25.0, /*length=*/60.0);
  if (hosts.size() > 1) {
    vdce.testbed->add_load_spike(hosts[1], {25.0, 40.0, 8.0});
  }
  std::cout << "injected: host " << hosts.front().value()
            << " crashes at t=25s; host " << hosts[1].value()
            << " gets a +8.0 load spike\n\n";

  // Dynamic simulation with the Application Controller guard armed.
  std::vector<sim::SiteRuntime> runtimes;
  for (std::size_t i = 0; i < vdce.site_managers.size(); ++i) {
    runtimes.push_back(sim::SiteRuntime{vdce.site_managers[i].get(),
                                        vdce.control_managers[i].get()});
  }
  sim::DynamicSimConfig dyn;
  dyn.load_threshold = 4.0;
  sim::DynamicSimulator simulator(*vdce.testbed,
                                  vdce.repositories[0]->tasks(), runtimes,
                                  dyn);

  viz::WorkloadRecorder recorder;
  const auto result = simulator.run(graph, allocation, /*start_at=*/20.0);

  std::cout << "run complete: makespan " << result.makespan_s << "s, "
            << result.reschedules << " reschedules, " << result.failures_hit
            << " failures survived\n\n";
  std::cout << viz::render_gantt(result, 64) << "\n";

  // Workload visualization from the repository's monitored view.
  for (double t = 20.0; t <= 80.0; t += 4.0) {
    recorder.snapshot(*vdce.repositories[0], t);
  }
  std::cout << "monitored workload (site 0 repository view):\n"
            << recorder.render();
  return 0;
}
