// Quickstart: the complete VDCE software development cycle in ~80 lines.
//
//   1. bring up a two-site virtual VDCE (the paper's Syracuse/Rome
//      campus testbed) with monitoring running;
//   2. authenticate against the user-accounts database;
//   3. develop an application with the Application Editor (the Figure 3
//      Linear Equation Solver);
//   4. schedule it with the distributed Application Scheduler;
//   5. execute it with the VDCE Runtime System (real threads + channel
//      setup protocol) and print the measured per-task times.
#include <iostream>

#include "bench/harness.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "editor/editor.hpp"
#include "runtime/engine.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "viz/gantt.hpp"

int main() {
  using namespace vdce;
  common::set_log_level(common::LogLevel::kInfo);

  // Tracing: VDCE_TRACE=<file.json> records every scheduling decision
  // and task attempt as Chrome trace-event spans (chrome://tracing) and
  // prints a per-category summary on exit.
  common::TraceSession trace_session;

  // 1. Bring up the environment.
  auto vdce = bench::bring_up(netsim::make_campus_testbed(/*seed=*/42));
  std::cout << "VDCE up: " << vdce.testbed->host_count() << " hosts across "
            << vdce.testbed->sites().size() << " sites\n";

  // 2. Authenticate (the Site Manager's servlet login).
  const auto account = vdce.site_managers[0]->login("hpdc", "nynet");
  std::cout << "logged in as " << account.user_name << " (priority "
            << account.priority << ", domain " << account.access_domain
            << ")\n";

  // 3. Develop the application.  make_linear_solver_graph() is the
  //    programmatic equivalent of drawing Figure 3 in the Editor; see
  //    examples/linear_solver.cpp for the full Editor walkthrough.
  const afg::FlowGraph graph = sim::make_linear_solver_graph(1.0);
  std::cout << "\napplication '" << graph.name() << "': "
            << graph.task_count() << " tasks, " << graph.link_count()
            << " links\n";

  // 4. Schedule: the local site's Application Scheduler consults its
  //    k nearest neighbours and assigns every task.
  sched::SiteScheduler scheduler(vdce.site_managers[0]->site(),
                                 vdce.directory);
  const sched::AllocationTable allocation = scheduler.schedule(graph);
  std::cout << "\nresource allocation table:\n";
  for (const auto& row : allocation.rows()) {
    std::cout << "  " << row.task_label << " -> host "
              << row.primary_host().value() << " (site " << row.site.value()
              << "), predicted " << row.predicted_s << "s\n";
  }

  // 5. Execute with the real-threaded runtime (Figure 7 protocol).
  rt::ExecutionEngine engine(tasklib::builtin_registry());
  const rt::RunResult result =
      engine.execute(graph, allocation, vdce.site_managers[0].get());

  std::cout << "\n" << viz::render_run_table(result);

  const auto residual_task = graph.find_by_label("residual");
  std::cout << "\nsolver residual ||Ax-b||_inf = "
            << result.outputs.at(*residual_task).as_scalar() << "\n";

  std::cout << "\n" << common::MetricsRegistry::global().text_summary();
  return 0;
}
