// F2 (paper Figure 2): interactions among the VDCE modules, plus the
// E22 streaming data-path bench.
//
// Default mode traces one application through the full module pipeline
// — Editor -> AFG -> Application Scheduler (with inter-site
// coordination via Site Managers) -> allocation table -> Runtime
// System -> measured times back into the repository — and reports the
// control-plane message counts each hop produced.
//
// --stream [--json [path]] [--quick] runs the E22 sustained-stream
// bench instead: the four-stage streaming pipeline (windowed source ->
// 3/2 resampler -> power spectrum -> sink) over bounded RingChannels,
// reporting frames/sec, end-to-end p50/p99 latency, and RSS flatness
// while streaming >=100x the channel capacity in frames; then the same
// stream with a mid-stream host crash recovered from the last
// checkpoint window.  Written to BENCH_streaming.json by CI.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench/harness.hpp"
#include "common/clock.hpp"
#include "editor/editor.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/engine.hpp"
#include "runtime/streaming.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/streaming.hpp"

namespace {

using namespace vdce;
using common::AppId;
using common::HostId;
using common::SiteId;
using common::TaskId;

// ------------------------------------------------------------- F2

int run_f2() {
  bench::banner("F2", "module interaction pipeline (paper Figure 2)");
  auto v = bench::bring_up(netsim::make_campus_testbed(17));

  // Application Editor phase.
  const auto graph = sim::make_linear_solver_graph();
  std::cout << "editor: produced AFG '" << graph.name() << "' with "
            << graph.task_count() << " tasks / " << graph.link_count()
            << " links\n";

  // Application Scheduler phase (local site + k nearest).
  sched::SiteScheduler scheduler(v.site_managers[0]->site(), v.directory);
  const auto allocation = scheduler.schedule(graph);
  std::cout << "scheduler: consulted " << scheduler.consulted_sites().size()
            << " sites, produced " << allocation.size()
            << " allocation rows across "
            << allocation.hosts_involved().size() << " hosts\n";
  std::cout << "scheduler: AFG multicasts="
            << v.directory.stats().afg_multicasts
            << " transfer_queries=" << v.directory.stats().transfer_queries
            << "\n";

  // Allocation distribution (Site Manager -> Group Managers -> ACs).
  std::size_t distributed = 0;
  for (auto& sm : v.site_managers) {
    distributed += sm->distribute_allocation(allocation).size();
  }
  std::cout << "site managers: delivered portions to " << distributed
            << " application controllers\n";

  // Runtime phase.
  rt::ExecutionEngine engine(tasklib::builtin_registry());
  const auto result =
      engine.execute(graph, allocation, v.site_managers[0].get());
  std::cout << "runtime: executed " << result.records.size()
            << " tasks, makespan " << result.makespan_s << "s\n";

  // Feedback: measured times recorded.
  std::cout << "repository: task_times_recorded="
            << v.site_managers[0]->stats().task_times_recorded << "\n";

  bench::header("\nhop,messages");
  std::cout << "afg_multicast," << v.directory.stats().afg_multicasts << "\n"
            << "allocation_portions," << distributed << "\n"
            << "task_time_feedback,"
            << v.site_managers[0]->stats().task_times_recorded << "\n"
            << "monitoring_updates,"
            << v.site_managers[0]->stats().workload_updates << "\n";
  std::cout << "\nshape check: every Figure 2 arrow exercised "
               "(editor->scheduler->runtime->repository).\n";
  return 0;
}

// ------------------------------------------------------------- E22

/// Resident set size in KB from /proc/self/status (0 if unreadable).
std::uint64_t rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmRSS:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      std::uint64_t kb = 0;
      fields >> kb;
      return kb;
    }
  }
  return 0;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(p * (values.size() - 1));
  return values[idx];
}

afg::FlowGraph make_stream_graph() {
  afg::FlowGraph g("e22_stream");
  const TaskId src = g.add_task("stream_window_source", "src");
  const TaskId rs = g.add_task("stream_resample", "rs");
  const TaskId fft = g.add_task("stream_window_fft", "fft");
  const TaskId sink = g.add_task("stream_sink", "sink");
  g.add_link(src, rs, 0.001);
  g.add_link(rs, fft, 0.001);
  g.add_link(fft, sink, 0.001);
  return g;
}

sched::AllocationTable make_stream_alloc(const afg::FlowGraph& g) {
  sched::AllocationTable table(g.name());
  std::uint64_t host = 1;
  for (const auto& node : g.tasks()) {
    sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {HostId(host++)};
    e.site = SiteId(0);
    table.add(e);
  }
  return table;
}

struct StreamCell {
  double frames_per_s = 0.0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t max_ring_occupancy = 0;
  std::uint64_t producer_parks = 0;
  std::uint64_t rss_baseline_kb = 0;
  std::uint64_t rss_peak_kb = 0;
  int restarts = 0;
  std::uint64_t frames_resumed = 0;
  std::uint64_t frames_skipped = 0;
  std::uint64_t windows_captured = 0;
};

StreamCell summarize(const rt::StreamRunResult& run, TaskId sink,
                     std::uint64_t baseline_kb, std::uint64_t peak_kb) {
  StreamCell cell;
  const auto& s = run.sinks.at(sink);
  cell.frames = s.frames_emitted;
  cell.frames_per_s =
      run.elapsed_s > 0.0 ? static_cast<double>(s.frames_emitted) /
                                run.elapsed_s
                          : 0.0;
  cell.p50_latency_us = percentile(run.sink_latencies_s, 0.50) * 1e6;
  cell.p99_latency_us = percentile(run.sink_latencies_s, 0.99) * 1e6;
  cell.max_ring_occupancy = run.max_ring_occupancy;
  cell.producer_parks = run.producer_parks;
  cell.rss_baseline_kb = baseline_kb;
  cell.rss_peak_kb = peak_kb;
  cell.restarts = run.restarts;
  cell.frames_resumed = run.frames_resumed;
  cell.frames_skipped = s.frames_skipped;
  cell.windows_captured = s.windows_captured;
  return cell;
}

int run_stream(bool json, const std::string& out_path, bool quick) {
  const std::uint64_t frames = quick ? 2000 : 50000;
  constexpr std::size_t kCapacity = 8;
  constexpr std::uint64_t kWindow = 64;

  bench::banner("E22", "sustained streaming over bounded channels");
  const auto graph = make_stream_graph();
  const auto alloc = make_stream_alloc(graph);
  const TaskId sink = *graph.find_by_label("sink");

  // ---- steady state: RSS sampled mid-stream must stay flat while
  // the stream covers frames >> channel capacity.
  const std::uint64_t rss_before = rss_kb();
  std::atomic<std::uint64_t> rss_mid{0};
  rt::StreamingConfig cfg;
  cfg.seed = 22;
  cfg.frames = frames;
  cfg.channel_capacity = kCapacity;
  cfg.track_latency = true;
  cfg.on_sink_frame = [&](TaskId, std::uint64_t k) {
    if (k == frames / 4 || k == (3 * frames) / 4) {
      std::uint64_t now = rss_kb();
      std::uint64_t prev = rss_mid.load();
      while (now > prev && !rss_mid.compare_exchange_weak(prev, now)) {
      }
    }
  };
  rt::StreamingEngine engine(tasklib::builtin_registry(), cfg);
  const auto steady_run = engine.execute(graph, alloc, nullptr, AppId(220));
  const std::uint64_t rss_after = rss_kb();
  const std::uint64_t rss_peak =
      std::max(rss_mid.load(), std::max(rss_before, rss_after));
  const StreamCell steady =
      summarize(steady_run, sink, rss_before, rss_peak);

  bench::header("mode,frames,frames_per_s,p50_us,p99_us,occupancy,parks");
  std::cout << "steady," << steady.frames << "," << steady.frames_per_s
            << "," << steady.p50_latency_us << "," << steady.p99_latency_us
            << "," << steady.max_ring_occupancy << ","
            << steady.producer_parks << "\n";

  // ---- faulted: the resampler's host dies halfway through; the
  // stream resumes from the last durable checkpoint window.
  std::atomic<bool> dead{false};
  const HostId victim = alloc.entry(*graph.find_by_label("rs")).primary_host();
  rt::StreamingConfig fault_cfg;
  fault_cfg.seed = 22;
  fault_cfg.frames = frames;
  fault_cfg.channel_capacity = kCapacity;
  fault_cfg.track_latency = true;
  fault_cfg.checkpoint_window = kWindow;
  fault_cfg.on_sink_frame = [&](TaskId, std::uint64_t k) {
    if (k == frames / 2) dead.store(true, std::memory_order_relaxed);
  };
  rt::FaultTolerance ft;
  ft.host_alive = [&](HostId h) {
    return !(dead.load(std::memory_order_relaxed) && h == victim);
  };
  ft.reschedule = [](const afg::TaskNode& node, const std::vector<HostId>&)
      -> std::optional<sched::AllocationEntry> {
    sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {HostId(90 + node.id.value())};
    e.site = SiteId(0);
    return e;
  };
  rt::CheckpointStore store;
  common::VirtualClock clock;  // restart backoff costs no wall-clock
  rt::StreamingEngine faulted_engine(tasklib::builtin_registry(), fault_cfg,
                                     clock);
  const auto faulted_run =
      faulted_engine.execute(graph, alloc, &ft, AppId(221), &store);
  const StreamCell faulted = summarize(faulted_run, sink, 0, 0);

  std::cout << "faulted," << faulted.frames << "," << faulted.frames_per_s
            << "," << faulted.p50_latency_us << ","
            << faulted.p99_latency_us << "," << faulted.max_ring_occupancy
            << "," << faulted.producer_parks << "\n";
  std::cout << "faulted: restarts=" << faulted.restarts
            << " frames_resumed=" << faulted.frames_resumed
            << " frames_skipped=" << faulted.frames_skipped
            << " windows_captured=" << faulted.windows_captured << "\n";

  const std::uint64_t rss_growth =
      rss_peak > rss_before ? rss_peak - rss_before : 0;
  const double capacity_multiple =
      static_cast<double>(frames) / static_cast<double>(kCapacity);
  // Flat = bounded-memory claim holds: growth under 32 MB while the
  // stream covered >=100x the channel capacity in frames.
  const bool rss_flat = rss_growth < 32 * 1024 && capacity_multiple >= 100.0;
  std::cout << "rss: baseline=" << rss_before << "kb peak=" << rss_peak
            << "kb growth=" << rss_growth << "kb over "
            << capacity_multiple << "x channel capacity ("
            << (rss_flat ? "flat" : "NOT FLAT") << ")\n";

  const double recovery_overhead_pct =
      steady.frames_per_s > 0.0
          ? 100.0 * (1.0 - faulted.frames_per_s / steady.frames_per_s)
          : 0.0;
  std::cout << "recovery overhead: " << recovery_overhead_pct
            << "% of steady throughput\n";

  if (!json) return 0;
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << "{\n  \"bench\": \"streaming\",\n";
  out << "  \"mode\": \"" << (quick ? "quick" : "full") << "\",\n";
  out << "  \"pipeline\": {\"stages\": " << graph.task_count()
      << ", \"channel_capacity\": " << kCapacity
      << ", \"frames\": " << frames
      << ", \"checkpoint_window\": " << kWindow << "},\n";
  out << "  \"steady\": {\"frames_per_s\": " << steady.frames_per_s
      << ", \"p50_latency_us\": " << steady.p50_latency_us
      << ", \"p99_latency_us\": " << steady.p99_latency_us
      << ", \"max_ring_occupancy\": " << steady.max_ring_occupancy
      << ", \"producer_parks\": " << steady.producer_parks
      << ", \"rss_baseline_kb\": " << steady.rss_baseline_kb
      << ", \"rss_peak_kb\": " << steady.rss_peak_kb
      << ", \"rss_growth_kb\": " << rss_growth << "},\n";
  out << "  \"faulted\": {\"frames_per_s\": " << faulted.frames_per_s
      << ", \"p50_latency_us\": " << faulted.p50_latency_us
      << ", \"p99_latency_us\": " << faulted.p99_latency_us
      << ", \"restarts\": " << faulted.restarts
      << ", \"frames_resumed\": " << faulted.frames_resumed
      << ", \"frames_skipped\": " << faulted.frames_skipped
      << ", \"windows_captured\": " << faulted.windows_captured
      << ", \"recovery_overhead_pct\": " << recovery_overhead_pct
      << "},\n";
  out << "  \"summary\": {\"rss_flat\": " << (rss_flat ? "true" : "false")
      << ", \"frames_over_capacity_x\": " << capacity_multiple << "}\n}\n";
  std::cout << "wrote " << out_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool stream = false;
  bool json = false;
  bool quick = false;
  std::string out_path = "BENCH_streaming.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--stream") {
      stream = true;
    } else if (arg == "--json") {
      json = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') out_path = argv[++i];
    } else if (arg == "--quick") {
      quick = true;
    }
  }
  if (stream) return run_stream(json, out_path, quick);
  return run_f2();
}
