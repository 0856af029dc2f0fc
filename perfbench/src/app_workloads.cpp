// apps_daemon and bulk_tcp: closed-loop clients submitting application
// flow graphs to one AppSubmissionService and waiting for each result.
//
//   apps_daemon  the paper's small applications at scale 1; both campus
//                sites' control planes run as vdce_site_daemon processes
//                behind Watchdog + RemoteSiteDirectory; in-memory data.
//   bulk_tcp     Fourier analysis on 1 MiB signal vectors, two for every
//                Figure-3 solver at order 128; in-process control plane
//                with feedback; TCP data transport.
#include <algorithm>
#include <atomic>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.hpp"
#include "daemon/client.hpp"
#include "datamgr/frame.hpp"
#include "process_probes.hpp"
#include "runtime/submission.hpp"
#include "runtime/watchdog.hpp"
#include "sim/workloads.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using vdce::common::AppId;
using vdce::common::SiteId;
using vdce::common::TaskId;

/// Closed-loop clients, and the service's execution slots.
constexpr std::size_t kClients = 2;
/// bulk_tcp sizing: signal scale 512 is 2^17 samples (1 MiB vectors on
/// every Fourier link); matrix scale 4 is a solver of order 128.
constexpr double kBulkSignalScale = 512.0;
constexpr double kBulkMatrixScale = 4.0;
/// Largest accepted ||Ax-b||_inf of a solver application.
constexpr double kResidualTolerance = 1e-8;
/// Percentile of latency_tail_ms.  p99 would be the highest with 10
/// samples beyond it on apps_daemon, but its run-to-run spread on a
/// 4-vCPU VM (IQR/median 0.4-1.0) exceeds any usable bound; p99 is
/// reported per layer instead (runtime.turnaround_ms_p99).
constexpr double kTailPercentile = 90.0;
/// Rounds the timed window is cut into for the end-to-end figures: as
/// many as keep min_samples_for(kTailPercentile) apps in each, within
/// these limits.  Short rounds let the steal cut (rounds_to_use) keep
/// the quiet seconds of a window that a steal episode covers in part.
constexpr std::size_t kMinRounds = 3;
constexpr std::size_t kMaxRounds = 40;
/// Sampled apps kept for the replay check (their outputs stay in
/// memory until the window ends, so peak RSS must not grow with the
/// run's throughput).
constexpr std::size_t kMaxReplays = 8;
/// Applications run before the timed window (threads, caches, pools).
constexpr std::uint64_t kWarmUpApps = 8;
/// Warm-up applications draw their inputs from this index range.
constexpr std::uint64_t kWarmUpIndexBase = 1ull << 40;

enum class AppKind : std::uint8_t { kLinearSolver, kC3i, kFourier };

/// What differs between the two batch workloads.
struct Profile {
  bool daemons = false;
  vdce::dm::TransportKind transport = vdce::dm::TransportKind::kInProcess;
  /// About one application in this many is replayed in-process.
  std::uint64_t replay_every = 100;
  /// Feed measured task times back into the local Site Manager.
  bool feedback = false;
};

Profile profile_of(AppWorkload workload) {
  Profile p;
  if (workload == AppWorkload::kAppsDaemon) {
    p.daemons = true;
    p.replay_every = 100;
  } else {
    p.transport = vdce::dm::TransportKind::kTcp;
    p.replay_every = 16;
    p.feedback = true;
  }
  return p;
}

/// One application's inputs, a pure function of (workload, seed, index).
struct AppSpec {
  AppKind kind = AppKind::kLinearSolver;
  double scale = 1.0;
  std::uint64_t seed = 1;
};

AppSpec app_spec(AppWorkload workload, std::uint64_t seed,
                 std::uint64_t index) {
  const std::uint64_t h = mix64(seed ^ mix64(index));
  AppSpec spec;
  spec.seed = mix64(h);
  if (workload == AppWorkload::kAppsDaemon) {
    spec.kind = static_cast<AppKind>(h % 3);
  } else {
    // Two Fourier apps per solver: with a 1:1 mix the median turnaround
    // falls in the gap between the two kinds' modes and jumps between
    // them from run to run.
    const bool fourier = (index + seed) % 3 != 0;
    spec.kind = fourier ? AppKind::kFourier : AppKind::kLinearSolver;
    spec.scale = fourier ? kBulkSignalScale : kBulkMatrixScale;
  }
  return spec;
}

vdce::afg::FlowGraph make_graph(const AppSpec& spec) {
  switch (spec.kind) {
    case AppKind::kLinearSolver:
      return vdce::sim::make_linear_solver_graph(spec.scale);
    case AppKind::kC3i:
      return vdce::sim::make_c3i_graph(spec.scale);
    case AppKind::kFourier:
      return vdce::sim::make_fourier_graph(spec.scale);
  }
  return {};
}

/// Client-side record of one application.
struct AppSample {
  double submit_start = 0.0;
  double submit_end = 0.0;
  double wait_end = 0.0;
  double makespan_s = 0.0;
  /// Sum of TaskRunRecord::compute_s over the app's tasks.
  double compute_s = 0.0;
  std::uint32_t tasks = 0;
  std::uint32_t attempts = 0;
  bool completed = false;
  bool output_ok = false;
};

/// A completed application kept for the in-process replay check.
struct ReplayCase {
  AppSpec spec;
  AppId app;
  vdce::sched::AllocationTable allocation;
  std::map<TaskId, std::vector<std::byte>> outputs;
};

/// Everything one phase of closed-loop submissions produced.
struct Phase {
  std::vector<std::uint64_t> indices;  // applications run, ascending
  std::vector<AppSample> samples;      // same order as indices
  std::vector<ReplayCase> replays;
  double start_s = 0.0;
  double end_s = 0.0;

  [[nodiscard]] double wall_s() const { return end_s - start_s; }
};

/// Which application indices a phase runs: either every index until
/// the timed window is done (window_done) and `min_apps` were started,
/// or exactly a given list.
struct Schedule {
  const StealSampler* steal = nullptr;
  double start_s = 0.0;
  double length_s = 0.0;
  /// The phase ends here even if min_apps were not started.
  double hard_deadline_s = 0.0;
  std::uint64_t min_apps = 0;
  const std::vector<std::uint64_t>* fixed = nullptr;
};

bool output_ok(const AppSpec& spec, const vdce::afg::FlowGraph& graph,
               const vdce::rt::RunResult& result) {
  if (result.outputs.size() != graph.task_count()) return false;
  if (spec.kind == AppKind::kLinearSolver) {
    const auto residual = graph.find_by_label("residual");
    if (!residual) return false;
    const double r = result.outputs.at(*residual).as_scalar();
    if (!(r >= 0.0 && r < kResidualTolerance)) return false;
  }
  return true;
}

class ClosedLoop {
 public:
  ClosedLoop(vdce::rt::AppSubmissionService& service, AppWorkload workload,
             std::uint64_t seed, const Profile& profile, SpanLog* log)
      : service_(&service),
        workload_(workload),
        seed_(seed),
        profile_(profile),
        log_(log) {}

  Phase run(const Schedule& schedule) {
    next_.store(0);
    std::vector<std::vector<std::pair<std::uint64_t, AppSample>>> done(
        kClients);
    std::vector<std::vector<ReplayCase>> replays(kClients);
    Phase phase;
    phase.start_s = now_s();
    {
      std::vector<std::jthread> clients;
      for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
          client(c, schedule, done[c], replays[c]);
        });
      }
    }
    std::vector<std::pair<std::uint64_t, AppSample>> all;
    for (auto& d : done) all.insert(all.end(), d.begin(), d.end());
    std::sort(all.begin(), all.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    phase.end_s = phase.start_s;
    for (const auto& [index, sample] : all) {
      phase.indices.push_back(index);
      phase.samples.push_back(sample);
      phase.end_s = std::max(phase.end_s, sample.wait_end);
    }
    for (auto& r : replays) {
      for (auto& c : r) phase.replays.push_back(std::move(c));
    }
    return phase;
  }

 private:
  /// The next application index to run, or nullopt when the phase ends.
  std::optional<std::uint64_t> next_index(const Schedule& schedule) {
    const std::uint64_t n = next_.fetch_add(1);
    if (schedule.fixed != nullptr) {
      if (n >= schedule.fixed->size()) return std::nullopt;
      return (*schedule.fixed)[n];
    }
    const double t = now_s();
    if (t >= schedule.hard_deadline_s ||
        (n >= schedule.min_apps &&
         window_done(*schedule.steal, schedule.start_s, schedule.length_s,
                     t))) {
      return std::nullopt;
    }
    return n;
  }

  void client(std::size_t c, const Schedule& schedule,
              std::vector<std::pair<std::uint64_t, AppSample>>& done,
              std::vector<ReplayCase>& replays) {
    while (const auto index = next_index(schedule)) {
      const AppSpec spec = app_spec(workload_, seed_, *index);
      vdce::rt::SubmissionRequest request;
      request.graph = make_graph(spec);
      request.qos.deadline_s = 1e9;
      request.user = "client" + std::to_string(c);
      request.seed = spec.seed;
      AppSample s;
      try {
        s.submit_start = now_s();
        AppId app;
        {
          const ScopedSpan span(log_, SpanKind::kSubmit, 0, *index + 1);
          app = service_->submit(std::move(request));
        }
        s.submit_end = now_s();
        vdce::rt::SubmissionStatus status;
        {
          const ScopedSpan span(log_, SpanKind::kWait, 0, *index + 1);
          status = service_->wait(app);
        }
        s.wait_end = now_s();
        s.completed = status.state == vdce::rt::SubmissionState::kCompleted;
        if (!s.completed) {
          std::cerr << "app " << *index << " " << to_string(status.state)
                    << ": " << status.error << "\n";
        } else {
          const auto graph = make_graph(spec);
          s.output_ok = output_ok(spec, graph, status.result);
          s.makespan_s = status.result.makespan_s;
          for (const auto& record : status.result.records) {
            s.compute_s += record.compute_s;
            s.attempts += static_cast<std::uint32_t>(record.attempts);
            ++s.tasks;
          }
          if (mix64(seed_ ^ (*index * 0x2545F4914F6CDD1Dull)) %
                      profile_.replay_every ==
                  0 &&
              replays_taken_.fetch_add(1) < kMaxReplays) {
            ReplayCase r{spec, app, status.allocation, {}};
            for (const auto& [task, payload] : status.result.outputs) {
              r.outputs[task] = payload.to_wire();
            }
            replays.push_back(std::move(r));
          }
        }
      } catch (const std::exception& e) {
        s.wait_end = now_s();
        std::cerr << "app " << *index << " threw: " << e.what() << "\n";
      }
      done.emplace_back(*index, s);
    }
  }

  vdce::rt::AppSubmissionService* service_;
  AppWorkload workload_;
  std::uint64_t seed_;
  Profile profile_;
  SpanLog* log_;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::size_t> replays_taken_{0};
};

/// D14: a completed app replayed through an in-process engine with the
/// same graph, seed, app id and allocation is bit-identical.
bool replay_matches(const ReplayCase& c) {
  vdce::rt::EngineConfig config;
  config.seed = c.spec.seed;
  vdce::rt::ExecutionEngine engine(vdce::tasklib::builtin_registry(), config);
  const auto result = engine.execute(make_graph(c.spec), c.allocation,
                                     nullptr, nullptr, nullptr, c.app);
  if (result.outputs.size() != c.outputs.size()) return false;
  for (const auto& [task, payload] : result.outputs) {
    const auto it = c.outputs.find(task);
    if (it == c.outputs.end() || it->second != payload.to_wire()) return false;
  }
  return true;
}

/// The coordinator's side of one workload: campus control planes, the
/// daemons (apps_daemon) and the submission service.  Members are
/// destroyed in reverse order: service, directory, daemons, campus.
struct Stack {
  std::unique_ptr<Campus> campus;
  std::unique_ptr<vdce::rt::Watchdog> watchdog;
  std::unique_ptr<vdce::daemon::RemoteSiteDirectory> remote;
  std::unique_ptr<vdce::rt::AppSubmissionService> service;

  [[nodiscard]] vdce::sched::SiteDirectory& directory() {
    if (remote) return *remote;
    return campus->directory;
  }
};

std::unique_ptr<vdce::rt::AppSubmissionService> make_service(
    const Profile& profile, vdce::sched::SiteDirectory& directory,
    const vdce::tasklib::TaskRegistry& registry, Campus& campus) {
  vdce::rt::AppSubmissionConfig config;
  config.slots = kClients;
  config.max_queue = 16;
  // Results reach the clients through wait(); keep few terminal
  // records (each holds its app's outputs) so resident memory does not
  // grow with the run length.  8 stays well above the kClients apps
  // that can finish while a client has not yet returned from wait().
  config.terminal_record_cap = 8;
  config.engine.transport = profile.transport;
  auto service = std::make_unique<vdce::rt::AppSubmissionService>(
      SiteId(0), directory, registry, config);
  if (profile.feedback) service->set_feedback(campus.managers.front().get());
  return service;
}

std::unique_ptr<Stack> bring_up(const Profile& profile,
                                std::uint64_t testbed_seed) {
  auto stack = std::make_unique<Stack>();
  stack->campus = std::make_unique<Campus>(testbed_seed);
  stack->campus->warm_up(kWarmUpTicks);
  if (profile.daemons) {
    vdce::rt::WatchdogConfig config;
    config.daemon_path = PERFBENCH_SITE_DAEMON_PATH;
    config.seed = testbed_seed;
    config.heartbeat_period_s = 0.05;
    // Generous: a loaded machine must not make a healthy site suspect.
    config.heartbeat_timeout_s = 5.0;
    config.liveness.suspicion_timeout_s = 5.0;
    stack->watchdog = std::make_unique<vdce::rt::Watchdog>(config);
    const auto sites = stack->campus->testbed->sites();
    for (const SiteId site : sites) stack->watchdog->spawn(site);
    for (const SiteId site : sites) {
      (void)stack->watchdog->rpc_endpoint(site, 30.0);
    }
    stack->remote = std::make_unique<vdce::daemon::RemoteSiteDirectory>(
        stack->campus->directory, *stack->watchdog, sites);
    for (double t = 1.0; t <= kWarmUpTicks; t += 1.0) {
      stack->remote->tick_all(t);
    }
  }
  stack->service =
      make_service(profile, stack->directory(),
                   vdce::tasklib::builtin_registry(), *stack->campus);
  return stack;
}

/// Public counters read before and after the unwrapped phase.
struct Counters {
  ProcessSample process;
  double daemon_cpu_s = 0.0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t rpc_retries = 0;
  std::uint64_t transport_failures = 0;
};

Counters read_counters(Stack& stack) {
  Counters c;
  c.process = sample_process();
  if (stack.watchdog) {
    for (const SiteId site : stack.campus->testbed->sites()) {
      c.daemon_cpu_s +=
          std::max(0.0, process_cpu_s(stack.watchdog->status(site).pid));
    }
    c.transport_failures = stack.remote->stats().transport_failures;
  }
  for (const auto& manager : stack.campus->managers) {
    const auto stats = manager->prediction_cache().stats();
    c.cache_hits += stats.hits;
    c.cache_misses += stats.misses;
  }
  auto& metrics = vdce::common::MetricsRegistry::global();
  c.frames_sent = metrics.counter("datamgr.frames_sent").value();
  c.bytes_sent = metrics.counter("datamgr.bytes_sent").value();
  c.rpc_retries = metrics.counter("daemon.rpc_retries").value();
  const auto pool = vdce::dm::FramePool::global().stats();
  c.pool_hits = pool.reuse_hits;
  c.pool_misses = pool.reuse_misses;
  return c;
}

/// Output checks of one phase: every app completed with correct
/// outputs, and every sampled app replays bit-identically.  Returns
/// the failed count.
std::uint64_t check_phase(const Phase& phase) {
  std::uint64_t failed = 0;
  for (const AppSample& s : phase.samples) {
    if (!s.completed || !s.output_ok) ++failed;
  }
  for (const ReplayCase& c : phase.replays) {
    if (!replay_matches(c)) {
      std::cerr << "app " << c.app.value()
                << " diverged from its in-process replay\n";
      ++failed;
    }
  }
  return failed;
}

std::vector<double> turnarounds(const Phase& phase) {
  std::vector<double> out;
  for (const AppSample& s : phase.samples) {
    if (s.completed) out.push_back(s.wait_end - s.submit_start);
  }
  return out;
}

std::vector<double> admissions(const Phase& phase) {
  std::vector<double> out;
  for (const AppSample& s : phase.samples) {
    if (s.completed) out.push_back(s.submit_end - s.submit_start);
  }
  return out;
}

/// The end-to-end figures of one phase.  The window is cut into equal
/// rounds by completion time and each figure is the median over the
/// rounds rounds_to_use keeps of its per-round value.
void add_end_to_end(RunOutcome& out, const Phase& phase,
                    const StealSampler& steal, double setup_s) {
  const std::size_t per_round = min_samples_for(kTailPercentile);
  const std::size_t rounds = std::clamp(turnarounds(phase).size() / per_round,
                                        kMinRounds, kMaxRounds);
  const double length = phase.wall_s() / static_cast<double>(rounds);
  std::vector<std::vector<double>> turn(rounds);
  for (const AppSample& s : phase.samples) {
    if (!s.completed) continue;
    const auto r = static_cast<std::size_t>((s.wait_end - phase.start_s) /
                                            length);
    turn[std::min(r, rounds - 1)].push_back(s.wait_end - s.submit_start);
  }
  std::vector<double> throughput;
  std::vector<double> p50;
  std::vector<double> tail;
  std::vector<std::pair<double, double>> intervals;
  for (std::size_t r = 0; r < rounds; ++r) {
    throughput.push_back(ratio(static_cast<double>(turn[r].size()), length));
    p50.push_back(percentile(turn[r], 50.0));
    tail.push_back(percentile(turn[r], kTailPercentile));
    const double start = phase.start_s + static_cast<double>(r) * length;
    intervals.emplace_back(start, start + length);
  }
  const std::vector<bool> use = rounds_to_use(steal, intervals);
  out.metrics["setup_s"] = setup_s;
  out.metrics["ok_frac"] =
      ratio(static_cast<double>(out.attempted - out.failed),
            static_cast<double>(out.attempted));
  out.metrics["throughput_per_s"] = median_of(throughput, use);
  out.metrics["latency_p50_ms"] = median_of(p50, use) * 1e3;
  out.metrics["latency_tail_ms"] = median_of(tail, use) * 1e3;
}

/// Per-layer metrics: counters from the unwrapped phase, spans from the
/// wrapped one (both ran the same applications).
void add_per_layer(RunOutcome& out, const Profile& profile,
                   const Phase& plain, const Phase& traced,
                   const Counters& before, const Counters& after,
                   const SpanLog& log) {
  auto& m = out.metrics;
  const std::uint64_t apps = plain.samples.size();
  const std::uint64_t traced_apps = traced.samples.size();

  const auto admit = admissions(plain);
  m["runtime.admit_ms_p50"] = percentile(admit, 50.0) * 1e3;
  m["runtime.admit_ms_p99"] = percentile(admit, 99.0) * 1e3;
  m["runtime.turnaround_ms_p99"] = percentile(turnarounds(plain), 99.0) * 1e3;

  std::vector<double> prestart;
  std::vector<double> makespan;
  double attempts = 0.0;
  double tasks = 0.0;
  for (const AppSample& s : plain.samples) {
    if (!s.completed) continue;
    prestart.push_back(s.wait_end - s.submit_end - s.makespan_s);
    makespan.push_back(s.makespan_s);
    attempts += s.attempts;
    tasks += s.tasks;
  }
  m["runtime.prestart_ms_p50"] = percentile(prestart, 50.0) * 1e3;
  m["runtime.makespan_ms_p50"] = percentile(makespan, 50.0) * 1e3;
  m["runtime.attempts_per_task"] = ratio(attempts, tasks);

  // Spans, grouped by thread for the self-time subtraction.
  const std::vector<Span> spans = log.spans();
  std::map<std::uint32_t, std::vector<const Span*>> by_thread;
  std::map<std::uint32_t, std::vector<Interval>> selection_by_site;
  std::vector<double> selection_s;
  double task_s = 0.0;
  for (const Span& s : spans) {
    by_thread[s.thread].push_back(&s);
    if (s.kind == SpanKind::kHostSelection) {
      selection_s.push_back(s.seconds());
      selection_by_site[s.tag].push_back(Interval{
          static_cast<double>(s.start_ns), static_cast<double>(s.end_ns)});
    }
    if (s.kind == SpanKind::kTask) task_s += s.seconds();
  }
  std::vector<double> submit_self;
  for (const auto& [thread, list] : by_thread) {
    std::vector<Interval> intervals;
    for (const Span* s : list) {
      intervals.push_back(Interval{static_cast<double>(s->start_ns),
                                   static_cast<double>(s->end_ns)});
    }
    const auto self = self_times(intervals);
    for (std::size_t i = 0; i < list.size(); ++i) {
      if (list[i]->kind == SpanKind::kSubmit) {
        submit_self.push_back(self[i] * 1e-9);
      }
    }
  }
  m["runtime.submit_self_ms_p50"] = percentile(submit_self, 50.0) * 1e3;
  m["scheduler.site_queries_per_app"] =
      ratio(static_cast<double>(selection_s.size()),
            static_cast<double>(traced_apps));
  m["scheduler.host_selection_ms_p50"] = percentile(selection_s, 50.0) * 1e3;
  m["scheduler.host_selection_ms_p99"] = percentile(selection_s, 99.0) * 1e3;

  m["predict.cache_hit_rate"] = ratio(
      static_cast<double>(after.cache_hits - before.cache_hits),
      static_cast<double>(after.cache_hits - before.cache_hits +
                          after.cache_misses - before.cache_misses));

  if (profile.daemons) {
    double overlapped = 0.0;
    double total = 0.0;
    for (const auto& [site, intervals] : selection_by_site) {
      double site_total = 0.0;
      for (const Interval& i : intervals) site_total += i.end - i.start;
      overlapped += overlap_fraction(intervals) * site_total;
      total += site_total;
    }
    m["daemon.rpc_overlap_frac"] = ratio(overlapped, total);
    m["daemon.cpu_ms_per_app"] =
        per_op(before.daemon_cpu_s, after.daemon_cpu_s, apps) * 1e3;
  }
  m["daemon.transport_failures"] =
      static_cast<double>(after.transport_failures - before.transport_failures);
  m["daemon.rpc_retries"] =
      static_cast<double>(after.rpc_retries - before.rpc_retries);

  double traced_compute_s = 0.0;
  for (const AppSample& s : traced.samples) traced_compute_s += s.compute_s;
  m["tasklib.compute_ms_per_app"] = per_op(0.0, task_s, traced_apps) * 1e3;
  m["datamgr.in_task_io_ms_per_app"] =
      per_op(task_s, traced_compute_s, traced_apps) * 1e3;
  m["datamgr.frames_per_app"] =
      per_op(static_cast<double>(before.frames_sent),
             static_cast<double>(after.frames_sent), apps);
  m["datamgr.mb_per_app"] = per_op(static_cast<double>(before.bytes_sent),
                                   static_cast<double>(after.bytes_sent),
                                   apps) /
                            (1024.0 * 1024.0);
  m["datamgr.pool_reuse_frac"] = ratio(
      static_cast<double>(after.pool_hits - before.pool_hits),
      static_cast<double>(after.pool_hits - before.pool_hits +
                          after.pool_misses - before.pool_misses));
  m["datamgr.pool_high_water_mb"] =
      static_cast<double>(vdce::dm::FramePool::global().stats()
                              .high_water_bytes) /
      (1024.0 * 1024.0);

  m["process.cpu_ms_per_app"] =
      per_op(before.process.cpu_s, after.process.cpu_s, apps) * 1e3;
  m["process.allocs_per_app"] =
      per_op(static_cast<double>(before.process.allocations),
             static_cast<double>(after.process.allocations), apps);
  m["process.ctx_switches_per_app"] =
      per_op(static_cast<double>(before.process.ctx_switches),
             static_cast<double>(after.process.ctx_switches), apps);
  m["trace.overhead_frac"] = ratio(traced.wall_s(), plain.wall_s()) - 1.0;
}

}  // namespace

RunOutcome run_app_workload(AppWorkload workload, const RunOptions& options) {
  const Profile profile = profile_of(workload);

  // Set-up and the timed window (a second away) both start on a quiet
  // host.
  await_quiet_host();
  std::unique_ptr<Stack> stack;
  const auto timed_bring_up = [&] {
    stack.reset();
    const double t0 = now_s();
    stack = bring_up(profile, kTestbedSeed);
    return now_s() - t0;
  };
  std::vector<double> setup_per_cpu;
  time_setups(timed_bring_up, setup_per_cpu);
  stack.reset();
  stack = bring_up(profile, kTestbedSeed);

  RunOutcome out;
  {
    std::vector<std::uint64_t> warm(kWarmUpApps);
    for (std::uint64_t i = 0; i < kWarmUpApps; ++i) {
      warm[i] = kWarmUpIndexBase + i;
    }
    Schedule schedule;
    schedule.fixed = &warm;
    ClosedLoop loop(*stack->service, workload, options.seed, profile,
                    nullptr);
    if (check_phase(loop.run(schedule)) != 0) {
      std::cerr << "warm-up applications failed\n";
      out.correct = false;
    }
  }

  // The traced run shares its measuring time between the unwrapped
  // phase and the wrapped replay of the same applications.
  const double length = options.trace ? options.seconds / 2 : options.seconds;
  const StealSampler steal;
  const Counters before = read_counters(*stack);
  Schedule schedule;
  schedule.steal = &steal;
  schedule.start_s = now_s();
  schedule.length_s = length;
  schedule.hard_deadline_s = schedule.start_s + kMaxWindowFactor * length;
  schedule.min_apps = kMinRounds * min_samples_for(kTailPercentile);
  ClosedLoop loop(*stack->service, workload, options.seed, profile, nullptr);
  const Phase plain = loop.run(schedule);
  const Counters after = read_counters(*stack);
  const double peak_rss = peak_rss_mb();

  out.attempted = plain.samples.size();
  out.failed = check_phase(plain);

  if (!options.trace) {
    time_setups(timed_bring_up, setup_per_cpu);  // the run's stack is done
    add_end_to_end(out, plain, steal, median(setup_per_cpu));
    out.metrics["peak_rss_mb"] = peak_rss;
  } else {
    stack->service.reset();
    SpanLog log;
    TimingDirectory timing(stack->directory(), log);
    const auto registry = timed_registry(vdce::tasklib::builtin_registry(),
                                         log);
    auto service = make_service(profile, timing, registry, *stack->campus);
    Schedule same;
    same.fixed = &plain.indices;
    ClosedLoop traced_loop(*service, workload, options.seed, profile, &log);
    const Phase traced = traced_loop.run(same);
    service.reset();
    const std::uint64_t traced_failed = check_phase(traced);
    if (traced.samples.size() != plain.samples.size() ||
        traced_failed != out.failed) {
      std::cerr << "traced run diverged: " << traced.samples.size()
                << " apps, " << traced_failed << " failed vs "
                << plain.samples.size() << " apps, " << out.failed
                << " failed\n";
      out.correct = false;
    }
    add_per_layer(out, profile, plain, traced, before, after, log);
    if (!options.spans_path.empty() && !log.write_csv(options.spans_path)) {
      std::cerr << "cannot write spans to " << options.spans_path << "\n";
    }
  }
  if (out.failed != 0) out.correct = false;
  return out;
}

}  // namespace perfbench
