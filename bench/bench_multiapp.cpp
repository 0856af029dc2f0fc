// E17: the multi-application runtime (D11) -- aggregate task throughput
// and admission behaviour as concurrent applications scale 1 -> 64 on
// one shared AppSubmissionService.
//
//   (a) throughput sweep: a fixed 64-application workload drained at
//       concurrency levels 1 -> 64.  Tasks carry a 1 ms stall emulating
//       the remote-data / I/O wait of real distributed tasks, so
//       aggregate tasks/s grows with concurrency as runs overlap their
//       blocked time.
//   (b) admission under pressure: 16 simultaneous applications with a
//       deadline multiplier sweep.  Tight deadlines push the
//       residual-capacity admission into rejecting most of the burst;
//       every admitted app still completes.
#include <chrono>
#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

#include "bench/harness.hpp"
#include "common/clock.hpp"
#include "runtime/submission.hpp"
#include "scheduler/qos.hpp"
#include "scheduler/site_scheduler.hpp"

namespace {

using namespace vdce;
using common::SiteId;

/// A small pipeline: enough machine threads per run that concurrent
/// runs overlap their setup/join latencies.
afg::FlowGraph pipeline_graph(const std::string& name) {
  afg::FlowGraph g(name);
  const auto src = g.add_task("synth_source", "src");
  const auto mid = g.add_task("synth_sink", "mid");
  const auto sink = g.add_task("synth_sink", "sink");
  g.add_link(src, mid, 0.05);
  g.add_link(mid, sink, 0.05);
  return g;
}

/// The builtin library with a 1 ms stall wrapped around the synthetic
/// tasks: a stand-in for the remote data access / I/O wait that
/// dominates real distributed tasks (the benched machine's loopback
/// channels are otherwise instantaneous).  Names are unchanged, so
/// scheduling against the task-performance database is unaffected.
tasklib::TaskRegistry stalled_registry() {
  tasklib::TaskRegistry registry;
  for (const auto& name : tasklib::builtin_registry().all_tasks()) {
    tasklib::LibraryEntry entry = tasklib::builtin_registry().get(name);
    if (name == "synth_source" || name == "synth_sink") {
      entry.fn = [inner = entry.fn](const std::vector<tasklib::Payload>& in,
                                    const tasklib::TaskContext& ctx) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return inner(in, ctx);
      };
    }
    registry.add(std::move(entry));
  }
  return registry;
}

void throughput_sweep() {
  bench::banner("E17a",
                "aggregate task throughput vs concurrency level (D11)");
  bench::header("concurrent_apps,wall_ms,tasks_per_s,speedup_vs_1");

  // A fixed 64-application workload drained at increasing concurrency
  // levels: `slots` bounds how many applications run at once, so the
  // sweep isolates what overlapping runs buys.  Best-of-kReps tames
  // scheduler jitter (the single-run walls are milliseconds).
  constexpr std::size_t kApps = 64;
  constexpr int kReps = 3;
  auto v = bench::bring_up(netsim::make_campus_testbed(13));
  const auto registry = stalled_registry();
  double baseline = 0.0;
  for (const std::size_t slots : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    double best_wall = 1e9;
    std::size_t tasks = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      rt::AppSubmissionConfig config;
      config.slots = slots;
      config.max_queue = kApps;
      config.start_paused = true;  // measure the drain, not the submits
      rt::AppSubmissionService service(SiteId(0), v.repo_directory,
                                       registry, config);
      std::vector<common::AppId> apps;
      for (std::size_t i = 0; i < kApps; ++i) {
        rt::SubmissionRequest request;
        request.graph = pipeline_graph("app" + std::to_string(i));
        request.qos.deadline_s = 1e9;
        request.user = "user" + std::to_string(i % 4);
        request.seed = i + 1;
        apps.push_back(service.submit(std::move(request)));
      }
      const double start = common::steady_clock().now();
      service.resume();
      service.drain();
      const double wall = common::steady_clock().now() - start;

      tasks = 0;
      for (const auto app : apps) {
        tasks += service.wait(app).result.records.size();
      }
      best_wall = std::min(best_wall, wall);
    }
    const double throughput = static_cast<double>(tasks) / best_wall;
    if (slots == 1) baseline = throughput;
    std::cout << slots << "," << std::fixed << std::setprecision(2)
              << best_wall * 1e3 << "," << std::setprecision(0)
              << throughput << "," << std::setprecision(2)
              << throughput / baseline << "\n";
  }
  std::cout << "shape check: aggregate throughput climbs with the "
               "concurrency level (>= 2x from 1 to 8 concurrent apps) "
               "because each app's blocked time -- the emulated I/O "
               "stalls plus gang handshakes and thread joins -- "
               "overlaps across slots; past the stall-bound knee it "
               "plateaus instead of collapsing.\n";
}

void admission_pressure_sweep() {
  bench::banner("E17b",
                "residual admission under a 16-app burst (D11)");
  bench::header(
      "deadline_x_idle,admitted,rejected,completed,hit_rate");

  auto v = bench::bring_up(netsim::make_campus_testbed(13));
  const auto graph = pipeline_graph("probe");
  sched::SiteScheduler scheduler(SiteId(0), v.repo_directory);
  const auto allocation = scheduler.schedule(graph);
  const double idle_estimate =
      sched::predicted_makespan(graph, allocation, v.repo_directory);

  constexpr std::size_t kBurst = 16;
  for (const double multiplier : {1.2, 2.0, 4.0, 8.0, 1e6}) {
    rt::AppSubmissionConfig config;
    config.slots = 4;
    config.max_queue = kBurst;
    config.start_paused = true;  // the whole burst lands before any run
    rt::AppSubmissionService service(SiteId(0), v.repo_directory,
                                     tasklib::builtin_registry(), config);
    std::vector<common::AppId> apps;
    for (std::size_t i = 0; i < kBurst; ++i) {
      rt::SubmissionRequest request;
      request.graph = pipeline_graph("burst" + std::to_string(i));
      request.qos.deadline_s = multiplier * idle_estimate;
      request.user = "user" + std::to_string(i % 4);
      request.seed = i + 1;
      apps.push_back(service.submit(std::move(request)));
    }
    service.resume();
    service.drain();

    std::size_t admitted = 0, rejected = 0, completed = 0;
    for (const auto app : apps) {
      const auto status = service.wait(app);
      if (status.state == rt::SubmissionState::kCompleted) {
        ++completed;
      }
      if (status.state == rt::SubmissionState::kRejected) {
        ++rejected;
      } else {
        ++admitted;
      }
    }
    std::cout << std::fixed << std::setprecision(1) << multiplier << ","
              << admitted << "," << rejected << "," << completed << ","
              << std::setprecision(2)
              << static_cast<double>(completed) / kBurst << "\n";
  }
  std::cout << "shape check: tighter deadlines admit fewer of the burst "
               "(the residual estimate charges every already-admitted "
               "app's host-seconds); every admitted app completes, so "
               "admitted == completed on every row.\n";
}

}  // namespace

int main() {
  throughput_sweep();
  admission_pressure_sweep();
  return 0;
}
