// stream_spectrum: the E22 four-stage StreamingEngine pipeline
// (windowed source -> 3/2 resampler -> power spectrum -> digesting
// sink) over 8-frame rings on 85-sample windows, with windowed
// checkpoints into a CheckpointStore and no faults.  Streams of
// kStreamFrames frames run back to back until the timed window is done
// (window_done).
#include <algorithm>
#include <iostream>
#include <map>
#include <memory>
#include <vector>

#include "datamgr/frame.hpp"
#include "process_probes.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/streaming.hpp"
#include "scheduler/site_scheduler.hpp"
#include "stats.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using vdce::common::AppId;
using vdce::common::SiteId;
using vdce::common::TaskId;

constexpr std::uint64_t kStreamFrames = 20000;
constexpr std::size_t kRingCapacity = 8;
/// The capacity of the reference re-stream the digests are checked
/// against.
constexpr std::size_t kCheckRingCapacity = 3;
constexpr std::uint64_t kCheckpointWindow = 64;
/// Source window, samples.  The 3/2 resampler turns 85 samples into
/// exactly 128, so the spectrum stage runs an unpadded 128-point FFT
/// and the resampler is the one bottleneck stage (about 15 against
/// 11 us per frame).  At the library's 64-sample unit window the two
/// cost 12 and 11.5 us, the bottleneck changed from stream to stream,
/// and with it how many rings stood full: the per-stream median frame
/// latency had two modes 1.5x apart.
constexpr double kWindowSamples = 85.0;
/// Unit size of the streaming tasks' input_size, samples.
constexpr double kUnitSamples = 64.0;
/// Percentile of latency_tail_ms (2000 frames beyond it per stream).
/// A stream's p99 counts how many millisecond stalls the host dealt
/// its stage threads: it ranged 0.26-2.4 ms between streams of one run,
/// and its median over streams spread 0.11-0.26 (IQR/median) across
/// runs on a 4-vCPU VM.  p99 is reported per layer instead
/// (runtime.frame_latency_ms_p99).
constexpr double kTailPercentile = 90.0;
/// Streams re-streamed at kCheckRingCapacity after the timed window.
constexpr std::size_t kDigestChecks = 2;
/// Stream app ids start here.
constexpr std::uint32_t kFirstStreamApp = 1000;

/// Library task -> per-layer metric suffix, in pipeline order.
constexpr std::pair<const char*, const char*> kStages[] = {
    {"stream_window_source", "source"},
    {"stream_resample", "resample"},
    {"stream_window_fft", "spectrum"},
    {"stream_sink", "sink"},
};

vdce::afg::FlowGraph make_stream_graph() {
  vdce::afg::FlowGraph g("stream_spectrum");
  vdce::afg::TaskProperties window;
  window.input_size = kWindowSamples / kUnitSamples;
  const TaskId src = g.add_task("stream_window_source", "src", window);
  const TaskId rs = g.add_task("stream_resample", "rs");
  const TaskId fft = g.add_task("stream_window_fft", "fft");
  const TaskId sink = g.add_task("stream_sink", "sink");
  g.add_link(src, rs, 0.001);
  g.add_link(rs, fft, 0.001);
  g.add_link(fft, sink, 0.001);
  return g;
}

/// One stream's outcome as the client sees it.
struct StreamSample {
  double wall_s = 0.0;
  /// Steady-clock seconds the stream ran between.
  double start_s = 0.0;
  double end_s = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t skipped = 0;
  std::uint64_t rolled_back = 0;
  std::uint64_t digest = 0;
  std::uint64_t producer_parks = 0;
  std::size_t max_occupancy = 0;
  /// Source-birth-to-sink frame latency percentiles of this stream.
  double latency_p50_s = 0.0;
  double latency_tail_s = 0.0;
  double latency_p99_s = 0.0;
};

struct Setup {
  std::unique_ptr<Campus> campus;
  vdce::afg::FlowGraph graph;
  vdce::sched::AllocationTable allocation;
};

Setup set_up(std::uint64_t testbed_seed) {
  Setup s;
  s.campus = std::make_unique<Campus>(testbed_seed);
  s.campus->warm_up(kWarmUpTicks);
  s.graph = make_stream_graph();
  vdce::sched::SiteScheduler scheduler(SiteId(0), s.campus->directory);
  s.allocation = scheduler.schedule(s.graph);
  return s;
}

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t index) {
  return mix64(seed ^ mix64(index + 0x5EED));
}

/// Runs stream `index` of the workload.  `log` (traced phase) records a
/// span per stage call and an instant per sink frame.
StreamSample run_stream(const Setup& setup,
                        const vdce::tasklib::TaskRegistry& registry,
                        std::uint64_t seed, std::uint64_t index,
                        std::size_t capacity, SpanLog* log) {
  vdce::rt::StreamingConfig config;
  config.seed = stream_seed(seed, index);
  config.channel_capacity = capacity;
  config.frames = kStreamFrames;
  config.checkpoint_window = kCheckpointWindow;
  config.track_latency = true;
  if (log != nullptr) {
    config.on_sink_frame = [log](TaskId, std::uint64_t) {
      record_instant(log, SpanKind::kSinkFrame);
    };
  }
  vdce::rt::StreamingEngine engine(registry, config);
  vdce::rt::CheckpointStore store;
  const AppId app(kFirstStreamApp + static_cast<std::uint32_t>(index));
  const std::int64_t t0 = now_ns();
  const auto result =
      engine.execute(setup.graph, setup.allocation, nullptr, app, &store);
  const std::int64_t t1 = now_ns();
  store.drop_app(app);

  StreamSample s;
  s.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  s.start_s = static_cast<double>(t0) * 1e-9;
  s.end_s = static_cast<double>(t1) * 1e-9;
  s.producer_parks = result.producer_parks;
  s.max_occupancy = result.max_ring_occupancy;
  s.latency_p50_s = percentile(result.sink_latencies_s, 50.0);
  s.latency_tail_s = percentile(result.sink_latencies_s, kTailPercentile);
  s.latency_p99_s = percentile(result.sink_latencies_s, 99.0);
  for (const auto& [task, sink] : result.sinks) {
    s.frames += sink.frames_emitted;
    s.skipped += sink.frames_skipped;
    s.rolled_back += sink.frames_rolled_back;
    s.digest = sink.digest;
  }
  return s;
}

/// Missing plus duplicated frames of one stream.
std::uint64_t bad_frames(const StreamSample& s) {
  const std::uint64_t missing =
      s.frames < kStreamFrames ? kStreamFrames - s.frames : 0;
  const std::uint64_t extra =
      s.frames > kStreamFrames ? s.frames - kStreamFrames : 0;
  return missing + extra + s.skipped + s.rolled_back;
}

struct Counters {
  ProcessSample process;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
};

Counters read_counters() {
  Counters c;
  c.process = sample_process();
  const auto pool = vdce::dm::FramePool::global().stats();
  c.pool_hits = pool.reuse_hits;
  c.pool_misses = pool.reuse_misses;
  return c;
}

}  // namespace

RunOutcome run_stream_workload(const RunOptions& options) {
  // Set-up and the timed window (a second away) both start on a quiet
  // host.
  await_quiet_host();
  Setup setup;
  const auto timed_set_up = [&setup] {
    setup = Setup{};
    const double t0 = now_s();
    setup = set_up(kTestbedSeed);
    return now_s() - t0;
  };
  std::vector<double> setup_per_cpu;
  time_setups(timed_set_up, setup_per_cpu);
  setup = set_up(kTestbedSeed);
  const auto& builtin = vdce::tasklib::builtin_registry();

  // Warm-up stream: threads, pool slabs and page faults before timing.
  (void)run_stream(setup, builtin, options.seed, 1u << 20, kRingCapacity,
                   nullptr);

  RunOutcome out;
  const StealSampler steal;
  const Counters before = read_counters();
  std::vector<StreamSample> plain;
  // The traced run shares its measuring time between the unwrapped
  // phase and the wrapped replay of the same streams.
  const double length = options.trace ? options.seconds / 2 : options.seconds;
  const double start = now_s();
  do {
    plain.push_back(run_stream(setup, builtin, options.seed, plain.size(),
                               kRingCapacity, nullptr));
  } while (!window_done(steal, start, length, now_s()));
  const Counters after = read_counters();
  const double peak_rss = peak_rss_mb();

  // Output checks, outside the timed window: every stream counted
  // exactly its frames, and a seeded sample of streams has the digest
  // of the same seed re-streamed at another ring capacity.
  std::vector<bool> recheck(plain.size(), false);
  for (std::size_t n = 0; n < kDigestChecks; ++n) {
    recheck[mix64(options.seed ^ (0xC0DE + n)) % plain.size()] = true;
  }
  for (std::size_t i = 0; i < plain.size(); ++i) {
    out.attempted += kStreamFrames;
    std::uint64_t bad = bad_frames(plain[i]);
    if (recheck[i]) {
      const StreamSample reference = run_stream(
          setup, builtin, options.seed, i, kCheckRingCapacity, nullptr);
      if (reference.digest != plain[i].digest ||
          bad_frames(reference) != 0) {
        std::cerr << "stream " << i << " digest differs from the capacity-"
                  << kCheckRingCapacity << " re-stream\n";
        bad = kStreamFrames;
      }
    }
    out.failed += std::min(bad, kStreamFrames);
  }

  // Per-stream figures, summarised by their median over the streams
  // rounds_to_use keeps.
  double wall = 0.0;
  std::uint64_t frames = 0;
  std::uint64_t parks = 0;
  std::size_t occupancy = 0;
  std::vector<double> rates;
  std::vector<double> latency_p50;
  std::vector<double> latency_tail;
  std::vector<double> latency_p99;
  std::vector<std::pair<double, double>> intervals;
  for (const StreamSample& s : plain) {
    intervals.emplace_back(s.start_s, s.end_s);
    wall += s.wall_s;
    frames += s.frames;
    parks += s.producer_parks;
    occupancy = std::max(occupancy, s.max_occupancy);
    rates.push_back(ratio(static_cast<double>(s.frames), s.wall_s));
    latency_p50.push_back(s.latency_p50_s);
    latency_tail.push_back(s.latency_tail_s);
    latency_p99.push_back(s.latency_p99_s);
  }

  auto& m = out.metrics;
  if (!options.trace) {
    time_setups(timed_set_up, setup_per_cpu);  // the run's stack is done
    m["setup_s"] = median(setup_per_cpu);
    m["peak_rss_mb"] = peak_rss;
    m["ok_frac"] = ratio(static_cast<double>(out.attempted - out.failed),
                         static_cast<double>(out.attempted));
    const std::vector<bool> use = rounds_to_use(steal, intervals);
    m["throughput_per_s"] = median_of(rates, use);
    m["latency_p50_ms"] = median_of(latency_p50, use) * 1e3;
    m["latency_tail_ms"] = median_of(latency_tail, use) * 1e3;
  } else {
    SpanLog log;
    const auto registry = timed_registry(builtin, log);
    double traced_wall = 0.0;
    std::uint64_t traced_frames = 0;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      const StreamSample s = run_stream(setup, registry, options.seed, i,
                                        kRingCapacity, &log);
      traced_wall += s.wall_s;
      traced_frames += s.frames;
      if (s.digest != plain[i].digest || bad_frames(s) != 0) {
        std::cerr << "traced stream " << i << " diverged\n";
        out.correct = false;
      }
    }
    if (traced_frames != frames) out.correct = false;

    // Stage compute from the task spans; the steady frame period from
    // the sink-frame instants (one buffer per sink thread, so each
    // stream's instants are contiguous in one thread's buffer).
    std::map<std::string, double> stage_s;
    std::map<std::uint32_t, std::vector<std::int64_t>> sink_times;
    for (const Span& s : log.spans()) {
      if (s.kind == SpanKind::kTask) {
        stage_s[log.task_names().at(s.tag)] += s.seconds();
      } else if (s.kind == SpanKind::kSinkFrame) {
        sink_times[s.thread].push_back(s.start_ns);
      }
    }
    double period_s = 0.0;
    std::uint64_t periods = 0;
    for (const auto& [thread, times] : sink_times) {
      if (times.size() < 2) continue;
      period_s += static_cast<double>(times.back() - times.front()) * 1e-9;
      periods += times.size() - 1;
    }
    double bottleneck_s = 0.0;
    for (const auto& [task, suffix] : kStages) {
      const double total = stage_s[task];
      bottleneck_s = std::max(bottleneck_s, total);
      m[std::string("tasklib.compute_us_per_frame.") + suffix] =
          per_op(0.0, total, traced_frames) * 1e6;
    }
    m["runtime.frame_latency_ms_p99"] = median(latency_p99) * 1e3;
    m["runtime.stage_busy_frac_max"] = ratio(bottleneck_s, traced_wall);
    m["runtime.stream_handoff_us_per_frame"] =
        (per_op(0.0, period_s, periods) -
         per_op(0.0, bottleneck_s, traced_frames)) *
        1e6;
    m["datamgr.ring_parks_per_frame"] =
        per_op(0.0, static_cast<double>(parks), frames);
    m["datamgr.ring_max_occupancy"] = static_cast<double>(occupancy);
    m["datamgr.pool_reuse_frac"] = ratio(
        static_cast<double>(after.pool_hits - before.pool_hits),
        static_cast<double>(after.pool_hits - before.pool_hits +
                            after.pool_misses - before.pool_misses));
    m["datamgr.pool_high_water_mb"] =
        static_cast<double>(
            vdce::dm::FramePool::global().stats().high_water_bytes) /
        (1024.0 * 1024.0);
    m["process.cpu_us_per_frame"] =
        per_op(before.process.cpu_s, after.process.cpu_s, frames) * 1e6;
    m["process.allocs_per_frame"] =
        per_op(static_cast<double>(before.process.allocations),
               static_cast<double>(after.process.allocations), frames);
    m["process.ctx_switches_per_frame"] =
        per_op(static_cast<double>(before.process.ctx_switches),
               static_cast<double>(after.process.ctx_switches), frames);
    m["trace.overhead_frac"] = ratio(traced_wall, wall) - 1.0;
    if (!options.spans_path.empty() && !log.write_csv(options.spans_path)) {
      std::cerr << "cannot write spans to " << options.spans_path << "\n";
    }
  }
  if (out.failed != 0) out.correct = false;
  return out;
}

}  // namespace perfbench
