// The benchmark's workloads and the metric catalogue they report into.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "netsim/testbed.hpp"
#include "process_probes.hpp"
#include "predict/forecaster.hpp"
#include "repository/repository.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/site_manager.hpp"
#include "runtime/sm_directory.hpp"

namespace perfbench {

/// Command-line options of one run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: report the end-to-end metrics of an unwrapped run.  true:
  /// run the same work twice -- unwrapped, then with the span wrappers
  /// installed -- and report the per-layer metrics.
  bool trace = false;
  /// Where the traced phase writes its spans (empty = not written).
  std::string spans_path;
};

/// What one run measured and checked.
struct RunOutcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
};

/// A metric every run of the given mode reports, with its unit.
struct MetricDef {
  const char* name;
  const char* unit;
};

/// End-to-end metrics: every workload reports every one (see
/// perfbench/README.md for what each means on each workload).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ok_frac", "frac"},
    {"throughput_per_s", "1/s"},
    {"latency_p50_ms", "ms"},
    {"latency_tail_ms", "ms"},
};

/// Per-layer metrics of the traced run.  A workload that never enters a
/// layer reports that layer's metrics as 0.
inline constexpr MetricDef kPerLayer[] = {
    {"runtime.admit_ms_p50", "ms"},
    {"runtime.admit_ms_p99", "ms"},
    {"runtime.turnaround_ms_p99", "ms"},
    {"runtime.frame_latency_ms_p99", "ms"},
    {"runtime.submit_self_ms_p50", "ms"},
    {"runtime.prestart_ms_p50", "ms"},
    {"runtime.makespan_ms_p50", "ms"},
    {"runtime.attempts_per_task", "count"},
    {"runtime.stage_busy_frac_max", "frac"},
    {"runtime.stream_handoff_us_per_frame", "us"},
    {"scheduler.site_queries_per_app", "count"},
    {"scheduler.host_selection_ms_p50", "ms"},
    {"scheduler.host_selection_ms_p99", "ms"},
    {"predict.cache_hit_rate", "frac"},
    {"daemon.rpc_overlap_frac", "frac"},
    {"daemon.cpu_ms_per_app", "ms"},
    {"daemon.transport_failures", "count"},
    {"daemon.rpc_retries", "count"},
    {"tasklib.compute_ms_per_app", "ms"},
    {"tasklib.compute_us_per_frame.source", "us"},
    {"tasklib.compute_us_per_frame.resample", "us"},
    {"tasklib.compute_us_per_frame.spectrum", "us"},
    {"tasklib.compute_us_per_frame.sink", "us"},
    {"datamgr.frames_per_app", "count"},
    {"datamgr.mb_per_app", "MiB"},
    {"datamgr.in_task_io_ms_per_app", "ms"},
    {"datamgr.pool_reuse_frac", "frac"},
    {"datamgr.pool_high_water_mb", "MiB"},
    {"datamgr.ring_parks_per_frame", "count"},
    {"datamgr.ring_max_occupancy", "count"},
    {"process.cpu_ms_per_app", "ms"},
    {"process.cpu_us_per_frame", "us"},
    {"process.allocs_per_app", "count"},
    {"process.allocs_per_frame", "count"},
    {"process.ctx_switches_per_app", "count"},
    {"process.ctx_switches_per_frame", "count"},
    {"trace.overhead_frac", "frac"},
};

/// Which batch workload run_app_workload drives.
enum class AppWorkload { kAppsDaemon, kBulkTcp };

[[nodiscard]] RunOutcome run_app_workload(AppWorkload workload,
                                          const RunOptions& options);
[[nodiscard]] RunOutcome run_stream_workload(const RunOptions& options);

/// Every site of the seeded campus testbed with its in-process control
/// plane (repository, forecaster, Site Manager, Control Manager), the
/// same recipe each vdce_site_daemon rebuilds on its side.
struct Campus {
  std::unique_ptr<vdce::netsim::VirtualTestbed> testbed;
  std::vector<std::unique_ptr<vdce::repo::SiteRepository>> repositories;
  std::vector<std::unique_ptr<vdce::predict::LoadForecaster>> forecasters;
  std::vector<std::unique_ptr<vdce::rt::SiteManager>> managers;
  std::vector<std::unique_ptr<vdce::rt::ControlManager>> controls;
  vdce::rt::SiteManagerDirectory directory;

  explicit Campus(std::uint64_t seed);
  /// Drives every Control Manager through ticks 1..until (seconds).
  void warm_up(double until);
};

/// The campus testbed every workload runs on.  It is the deployment,
/// not an input: --seed varies the applications and their data only.
inline constexpr std::uint64_t kTestbedSeed = 13;
/// Warm-up ticks every testbed gets before the timed window.
inline constexpr double kWarmUpTicks = 10.0;
/// Timed set-ups per CPU in one pass (see time_setups).
inline constexpr int kSetupsPerCpu = 4;

/// One pass of set-up timing: runs `set_up`, which builds a stack and
/// returns the seconds it took, kSetupsPerCpu times on each CPU the
/// process may run on, with the calling thread pinned to that CPU, and
/// appends the per-CPU medians to `per_cpu`.  setup_s is the median of
/// the per-CPU medians of two passes, one before the timed window and
/// one after it.  The vCPUs of a shared VM differ in speed (stream
/// set-ups seconds apart took 0.33 ms on one and 0.74 ms on another)
/// and drift together (runs a minute apart had median stream set-ups
/// of 0.35-0.40 or of 0.55-0.65 ms), while an unpinned run stays on
/// whichever vCPU it started on.  The calling thread's CPU mask is
/// restored afterwards; a stack built while pinned must not be measured,
/// since its threads and daemons inherit the one-CPU mask.
void time_setups(const std::function<double()>& set_up,
                 std::vector<double>& per_cpu);

/// On a shared VM the hypervisor steals 10-40% of the CPU in episodes
/// of a minute or more, and every workload slows 2-4x inside one: a
/// figure measured there measures the host (quiet rounds see 0-5%).
/// So before its set-ups a run waits, at most kQuietMaxWaitS, until a
/// probe sees less than kQuietSteal of the CPU stolen; and the
/// end-to-end medians leave out the rounds (or streams) with more than
/// kRoundMaxSteal stolen, or keep the kMinQuietRounds least stolen when
/// fewer are under it.
inline constexpr double kQuietSteal = 0.03;
inline constexpr double kQuietMaxWaitS = 20.0;
inline constexpr double kRoundMaxSteal = 0.05;
inline constexpr std::size_t kMinQuietRounds = 3;
/// A steal episode that spans a whole window leaves no quiet round.  So
/// a timed window of nominal length L runs on past L until its slices
/// with under kRoundMaxSteal stolen add up to kQuietShare * L, for at
/// most kMaxWindowFactor * L in all.
inline constexpr double kQuietShare = 0.5;
inline constexpr double kMaxWindowFactor = 3.0;

/// Waits for a quiet host (see kQuietSteal); reports a wait on stderr.
void await_quiet_host();

/// Whether a timed window that began at `start` with nominal `length`
/// has measured enough by `t` (steady-clock seconds; see kQuietShare).
[[nodiscard]] bool window_done(const StealSampler& steal, double start,
                               double length, double t);

/// Which rounds -- [start, end) intervals in steady-clock seconds -- the
/// end-to-end medians use (see kRoundMaxSteal and kMinQuietRounds).
/// Reports on stderr.
[[nodiscard]] std::vector<bool> rounds_to_use(
    const StealSampler& steal,
    const std::vector<std::pair<double, double>>& rounds);

/// Median of the values whose flag in `use` is set.
[[nodiscard]] double median_of(const std::vector<double>& values,
                               const std::vector<bool>& use);

/// splitmix64: the benchmark's seed-to-input hash.
[[nodiscard]] std::uint64_t mix64(std::uint64_t x);

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

}  // namespace perfbench
