// Tests for the D16 streaming execution mode: the streaming tasklib
// family, the StreamingEngine's bounded-channel pipeline, the
// differential wall pinning a finite stream bit-identical to the batch
// ExecutionEngine, windowed checkpoint resume, and the chaos soak
// (host crash mid-stream -> resume from the last window with zero
// re-emitted frames and exact metric reconciliation).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "netsim/chaos.hpp"
#include "netsim/testbed.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/engine.hpp"
#include "runtime/streaming.hpp"
#include "scheduler/allocation.hpp"
#include "tasklib/registry.hpp"
#include "tasklib/streaming.hpp"

namespace vdce::rt {
namespace {

using common::AppId;
using common::HostId;
using common::SiteId;
using common::TaskId;

std::uint64_t counter_value(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

/// The canonical streaming pipeline: windowed source -> 3/2 resampler
/// -> power spectrum -> digesting sink (the C3I sensor chain's shape).
afg::FlowGraph make_pipeline() {
  afg::FlowGraph g("stream_pipeline");
  const TaskId src = g.add_task("stream_window_source", "src");
  const TaskId rs = g.add_task("stream_resample", "rs");
  const TaskId fft = g.add_task("stream_window_fft", "fft");
  const TaskId sink = g.add_task("stream_sink", "sink");
  g.add_link(src, rs, 0.001);
  g.add_link(rs, fft, 0.001);
  g.add_link(fft, sink, 0.001);
  return g;
}

/// One allocation row per task on the given hosts (round-robin).
sched::AllocationTable make_alloc(const afg::FlowGraph& g,
                                  const std::vector<HostId>& hosts) {
  sched::AllocationTable table(g.name());
  std::size_t i = 0;
  for (const auto& node : g.tasks()) {
    sched::AllocationEntry e;
    e.task = node.id;
    e.task_label = node.label;
    e.library_task = node.library_task;
    e.hosts = {hosts[i++ % hosts.size()]};
    e.site = SiteId(0);
    table.add(e);
  }
  return table;
}

/// Distinct synthetic hosts, one per pipeline stage.
std::vector<HostId> fake_hosts() {
  return {HostId(1), HostId(2), HostId(3), HostId(4)};
}

TaskId id_of(const afg::FlowGraph& g, const std::string& label) {
  return *g.find_by_label(label);
}

// ------------------------------------------------- streaming tasklib

TEST(StreamingMenu, RegisteredWithTheBuiltins) {
  const auto& reg = tasklib::builtin_registry();
  for (const char* name : {"stream_window_source", "stream_resample",
                           "stream_window_fft", "stream_sink"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    EXPECT_EQ(reg.get(name).menu, "streaming");
  }
  const auto menus = reg.menus();
  EXPECT_NE(std::find(menus.begin(), menus.end(), "streaming"), menus.end());
}

TEST(StreamingMenu, WindowedSincHasUnitDcGain) {
  const auto h = tasklib::windowed_sinc_fir(33, 0.25);
  double sum = 0.0;
  for (const double v : h) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_THROW((void)tasklib::windowed_sinc_fir(0, 0.25), common::StateError);
  EXPECT_THROW((void)tasklib::windowed_sinc_fir(8, 0.0), common::StateError);
  EXPECT_THROW((void)tasklib::windowed_sinc_fir(8, 0.7), common::StateError);
}

TEST(StreamingMenu, RationalResamplePreservesLevelAndLength) {
  // A constant signal through a 3/2 converter stays (approximately)
  // constant away from the filter edges, at 3/2 the length.
  const std::vector<double> flat(64, 1.0);
  const auto out = tasklib::rational_resample(flat, 3, 2);
  EXPECT_EQ(out.size(), 96u);
  for (std::size_t i = 32; i < 64; ++i) {
    EXPECT_NEAR(out[i], 1.0, 0.05) << "at " << i;
  }
  EXPECT_TRUE(tasklib::rational_resample({}, 3, 2).empty());
  EXPECT_THROW((void)tasklib::rational_resample(flat, 0, 2),
               common::StateError);
}

// ------------------------------------------------- finite streams

TEST(StreamingEngine, FiniteStreamRunsToEos) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  StreamingConfig cfg;
  cfg.seed = 5;
  cfg.frames = 12;
  cfg.channel_capacity = 4;
  StreamingEngine engine(tasklib::builtin_registry(), cfg);

  const auto run = engine.execute(graph, alloc, nullptr, AppId(31));

  EXPECT_EQ(run.source_frames, 12u);
  EXPECT_EQ(run.restarts, 0);
  for (const auto& node : graph.tasks()) {
    EXPECT_EQ(run.stage_frames.at(node.id), 12u) << node.label;
  }
  ASSERT_EQ(run.sinks.size(), 1u);
  const auto& sink = run.sinks.at(id_of(graph, "sink"));
  EXPECT_EQ(sink.label, "sink");
  EXPECT_EQ(sink.frames_emitted, 12u);
  EXPECT_EQ(sink.frames_skipped, 0u);
  EXPECT_GT(sink.bytes_emitted, 0u);
  EXPECT_NE(sink.digest, 0u);
  EXPECT_LE(run.max_ring_occupancy, cfg.channel_capacity);
  EXPECT_GT(run.elapsed_s, 0.0);
}

TEST(StreamingEngine, DeterministicAcrossRuns) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  StreamingConfig cfg;
  cfg.seed = 99;
  cfg.frames = 8;
  cfg.collect_outputs = true;

  StreamingEngine a(tasklib::builtin_registry(), cfg);
  StreamingEngine b(tasklib::builtin_registry(), cfg);
  const auto ra = a.execute(graph, alloc, nullptr, AppId(42));
  const auto rb = b.execute(graph, alloc, nullptr, AppId(42));

  const TaskId sink = id_of(graph, "sink");
  EXPECT_EQ(ra.sinks.at(sink).digest, rb.sinks.at(sink).digest);
  EXPECT_EQ(ra.sinks.at(sink).outputs, rb.sinks.at(sink).outputs);
}

TEST(StreamingEngine, BackpressureParksFastProducers) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  StreamingConfig cfg;
  cfg.seed = 3;
  cfg.frames = 30;
  cfg.channel_capacity = 2;
  // A deliberately slow sink: upstream stages must fill their bounded
  // rings and park instead of buffering ahead without limit.
  cfg.on_sink_frame = [](TaskId, std::uint64_t k) {
    if (k < 10) std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  StreamingEngine engine(tasklib::builtin_registry(), cfg);

  const auto run = engine.execute(graph, alloc, nullptr, AppId(33));

  EXPECT_EQ(run.sinks.at(id_of(graph, "sink")).frames_emitted, 30u);
  EXPECT_LE(run.max_ring_occupancy, 2u);
  EXPECT_GT(run.producer_parks, 0u);
}

TEST(StreamingEngine, TracksSourceToSinkLatency) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  StreamingConfig cfg;
  cfg.seed = 4;
  cfg.frames = 10;
  cfg.track_latency = true;
  StreamingEngine engine(tasklib::builtin_registry(), cfg);

  const auto run = engine.execute(graph, alloc, nullptr, AppId(34));

  ASSERT_EQ(run.sink_latencies_s.size(), 10u);
  for (const double s : run.sink_latencies_s) EXPECT_GT(s, 0.0);
}

TEST(StreamingEngine, RequestStopEndsAnUnboundedStream) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  StreamingEngine* engine_ptr = nullptr;
  StreamingConfig cfg;
  cfg.seed = 6;
  cfg.frames = 0;  // unbounded
  cfg.on_sink_frame = [&engine_ptr](TaskId, std::uint64_t k) {
    if (k >= 5) engine_ptr->request_stop();
  };
  StreamingEngine engine(tasklib::builtin_registry(), cfg);
  engine_ptr = &engine;

  const auto run = engine.execute(graph, alloc, nullptr, AppId(35));

  const auto& sink = run.sinks.at(id_of(graph, "sink"));
  EXPECT_GE(sink.frames_emitted, 6u);   // frames 0..5 at least
  EXPECT_EQ(sink.frames_emitted, run.stage_frames.at(id_of(graph, "sink")));
}

// --------------------------------------------- differential test wall

/// A finite stream must be bit-identical to the batch ExecutionEngine:
/// frame k of the stream equals a batch run of the same AFG with
/// EngineConfig.seed = stream_frame_seed(seed, k) and the same app id,
/// output wire for output wire.
class StreamBatchDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StreamBatchDifferential, FiniteStreamMatchesBatchEngine) {
  const std::uint64_t seed = GetParam();
  constexpr std::uint64_t kFrames = 5;
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  const TaskId sink = id_of(graph, "sink");
  const AppId app(55);

  StreamingConfig cfg;
  cfg.seed = seed;
  cfg.frames = kFrames;
  cfg.collect_outputs = true;
  StreamingEngine streaming(tasklib::builtin_registry(), cfg);
  const auto stream_run = streaming.execute(graph, alloc, nullptr, app);

  const auto& sink_res = stream_run.sinks.at(sink);
  ASSERT_EQ(sink_res.outputs.size(), kFrames);
  EXPECT_EQ(sink_res.frames_emitted, kFrames);
  EXPECT_EQ(stream_run.source_frames, kFrames);

  for (std::uint64_t k = 0; k < kFrames; ++k) {
    EngineConfig batch_cfg;
    batch_cfg.seed = stream_frame_seed(seed, k);
    ExecutionEngine batch(tasklib::builtin_registry(), batch_cfg);
    const auto batch_run =
        batch.execute(graph, alloc, nullptr, nullptr, nullptr, app);
    EXPECT_EQ(batch_run.outputs.at(sink).to_wire(), sink_res.outputs[k])
        << "frame " << k << " diverged from the batch engine";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, StreamBatchDifferential,
                         ::testing::Values(11u, 29u, 47u));

// ------------------------------------- faults, checkpoints, resume

/// Kills one synthetic host on cue from the sink.
struct FaultPlan {
  std::atomic<bool> dead{false};
  HostId victim;
  /// The engines' clock: restart backoff sleeps virtually.
  common::VirtualClock clock;

  FaultTolerance hooks() {
    FaultTolerance ft;
    ft.host_alive = [this](HostId h) {
      return !(dead.load(std::memory_order_relaxed) && h == victim);
    };
    ft.reschedule = [](const afg::TaskNode& node,
                       const std::vector<HostId>&)
        -> std::optional<sched::AllocationEntry> {
      sched::AllocationEntry e;
      e.task = node.id;
      e.task_label = node.label;
      e.library_task = node.library_task;
      e.hosts = {HostId(90 + node.id.value())};  // a fresh standby
      e.site = SiteId(0);
      return e;
    };
    return ft;
  }
};

TEST(StreamingEngine, ResumesFromTheLastCheckpointWindowAfterACrash) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  const TaskId sink = id_of(graph, "sink");
  constexpr std::uint64_t kFrames = 24;
  constexpr std::uint64_t kWindow = 4;
  const AppId app(60);

  // Fault-free reference digest (same app id => same per-frame seeds).
  std::uint64_t reference_digest = 0;
  {
    StreamingConfig cfg;
    cfg.seed = 7;
    cfg.frames = kFrames;
    cfg.channel_capacity = 2;
    StreamingEngine engine(tasklib::builtin_registry(), cfg);
    reference_digest =
        engine.execute(graph, alloc, nullptr, app).sinks.at(sink).digest;
  }

  FaultPlan plan;
  plan.victim = alloc.entry(id_of(graph, "rs")).primary_host();
  StreamingConfig cfg;
  cfg.seed = 7;
  cfg.frames = kFrames;
  cfg.channel_capacity = 2;  // keeps frames in flight past the crash
  cfg.checkpoint_window = kWindow;
  cfg.track_latency = true;
  cfg.on_sink_frame = [&plan](TaskId, std::uint64_t k) {
    if (k == 10) plan.dead.store(true, std::memory_order_relaxed);
  };
  const FaultTolerance ft = plan.hooks();
  CheckpointStore store;
  StreamingEngine engine(tasklib::builtin_registry(), cfg, plan.clock);

  const auto run = engine.execute(graph, alloc, &ft, app, &store);

  const auto& s = run.sinks.at(sink);
  EXPECT_EQ(run.restarts, 1);
  EXPECT_GE(run.reschedules, 1u);
  // Exactly-once emission: every frame counted once, despite the
  // re-flow below the watermark after the resume.
  EXPECT_EQ(s.frames_emitted, kFrames);
  EXPECT_EQ(s.frames_rolled_back, 0u);  // the sink's host survived
  EXPECT_EQ(run.stage_frames.at(sink), kFrames + s.frames_skipped);
  // The resume started at a durable window boundary, not frame zero:
  // the sink had emitted past frame 10 when the crash hit, so at least
  // windows 1 and 2 (frames 0..7) were durable.
  EXPECT_GE(run.frames_resumed, 8u);
  EXPECT_EQ(run.frames_resumed % kWindow, 0u);
  EXPECT_GE(s.windows_captured, kFrames / kWindow);
  // Bit-identical to the fault-free stream.
  EXPECT_EQ(s.digest, reference_digest);
  // One latency sample per emitted frame, across both attempts.
  ASSERT_EQ(run.sink_latencies_s.size(), s.frames_emitted);
  for (const double l : run.sink_latencies_s) EXPECT_GT(l, 0.0);
}

TEST(StreamingEngine, SinkCrashKeepsOneLatencySamplePerEmittedFrame) {
  // The sink's own host dies: the frames it emitted past its last
  // durable window roll back and are emitted again after the resume.
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  const TaskId sink = id_of(graph, "sink");
  FaultPlan plan;
  plan.victim = alloc.entry(sink).primary_host();
  StreamingConfig cfg;
  cfg.seed = 7;
  cfg.frames = 24;
  cfg.channel_capacity = 2;
  cfg.checkpoint_window = 4;
  cfg.track_latency = true;
  cfg.on_sink_frame = [&plan](TaskId, std::uint64_t k) {
    if (k == 10) plan.dead.store(true, std::memory_order_relaxed);
  };
  const FaultTolerance ft = plan.hooks();
  CheckpointStore store;
  StreamingEngine engine(tasklib::builtin_registry(), cfg, plan.clock);

  const auto run = engine.execute(graph, alloc, &ft, AppId(61), &store);

  const auto& s = run.sinks.at(sink);
  EXPECT_EQ(s.frames_emitted, 24u);
  EXPECT_GT(s.frames_rolled_back, 0u);
  ASSERT_EQ(run.sink_latencies_s.size(), s.frames_emitted);
  for (const double l : run.sink_latencies_s) EXPECT_GT(l, 0.0);
}

TEST(StreamingEngine, WithoutACheckpointStoreTheStreamReplaysFromZero) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  const TaskId sink = id_of(graph, "sink");
  constexpr std::uint64_t kFrames = 24;

  FaultPlan plan;
  plan.victim = alloc.entry(id_of(graph, "rs")).primary_host();
  StreamingConfig cfg;
  cfg.seed = 8;
  cfg.frames = kFrames;
  cfg.channel_capacity = 2;
  cfg.on_sink_frame = [&plan](TaskId, std::uint64_t k) {
    if (k == 10) plan.dead.store(true, std::memory_order_relaxed);
  };
  const FaultTolerance ft = plan.hooks();
  StreamingEngine engine(tasklib::builtin_registry(), cfg, plan.clock);

  const auto run = engine.execute(graph, alloc, &ft, AppId(61));

  const auto& s = run.sinks.at(sink);
  EXPECT_EQ(run.restarts, 1);
  EXPECT_EQ(run.frames_resumed, 0u);  // no durable window to resume from
  EXPECT_EQ(s.frames_emitted, kFrames);  // still exactly once (watermark)
  // The whole emitted prefix re-flowed and was skipped: the cost the
  // windowed checkpoints exist to avoid.
  EXPECT_GE(s.frames_skipped, 11u);
}

TEST(StreamingEngine, ResumeSpansSeparateExecuteCalls) {
  // Process-restart shape: a first run streams 12 frames and captures
  // its windows; a second run of the same app with a larger target
  // resumes at the durable watermark instead of frame zero.
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());
  const TaskId sink = id_of(graph, "sink");
  const AppId app(62);
  CheckpointStore store;

  StreamingConfig first;
  first.seed = 21;
  first.frames = 12;
  first.checkpoint_window = 4;
  {
    StreamingEngine engine(tasklib::builtin_registry(), first);
    const auto run = engine.execute(graph, alloc, nullptr, app, &store);
    EXPECT_EQ(run.sinks.at(sink).frames_emitted, 12u);
  }

  StreamingConfig second = first;
  second.frames = 24;
  StreamingEngine engine(tasklib::builtin_registry(), second);
  const auto resumed = engine.execute(graph, alloc, nullptr, app, &store);
  EXPECT_EQ(resumed.source_frames, 12u);  // only the tail was streamed
  EXPECT_EQ(resumed.sinks.at(sink).frames_emitted, 24u);
  EXPECT_EQ(resumed.sinks.at(sink).frames_skipped, 0u);

  // Digest continuity: identical to one uninterrupted 24-frame run.
  StreamingConfig whole = second;
  StreamingEngine reference(tasklib::builtin_registry(), whole);
  const auto ref = reference.execute(graph, alloc, nullptr, app);
  EXPECT_EQ(resumed.sinks.at(sink).digest, ref.sinks.at(sink).digest);
}

TEST(StreamingEngine, FailureWithoutReschedulerThrowsAfterUnparking) {
  const auto graph = make_pipeline();
  const auto alloc = make_alloc(graph, fake_hosts());

  FaultPlan plan;
  plan.victim = alloc.entry(id_of(graph, "rs")).primary_host();
  StreamingConfig cfg;
  cfg.seed = 9;
  cfg.frames = 20;
  cfg.channel_capacity = 2;
  cfg.on_sink_frame = [&plan](TaskId, std::uint64_t k) {
    if (k == 3) plan.dead.store(true, std::memory_order_relaxed);
  };
  FaultTolerance ft = plan.hooks();
  ft.reschedule = nullptr;  // detection without recovery
  StreamingEngine engine(tasklib::builtin_registry(), cfg, plan.clock);

  // Every stage must be unparked and joined before the throw; a hang
  // here is the bug this guards against.
  EXPECT_THROW((void)engine.execute(graph, alloc, &ft, AppId(63)),
               common::StateError);
}

// ------------------------------------------------------- chaos soak

TEST(StreamingChaos, HostCrashMidStreamResumesWithExactReconciliation) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  const auto graph = make_pipeline();
  const auto site_hosts = bed.hosts_in_site(SiteId(0));
  ASSERT_GE(site_hosts.size(), 4u);
  const auto alloc = make_alloc(graph, site_hosts);
  const TaskId sink = id_of(graph, "sink");
  constexpr std::uint64_t kFrames = 30;
  constexpr std::uint64_t kWindow = 5;
  const AppId app(64);

  // Fault-free reference first (its metrics are not part of the
  // deltas measured around the chaos run).
  std::uint64_t reference_digest = 0;
  {
    StreamingConfig cfg;
    cfg.seed = 17;
    cfg.frames = kFrames;
    cfg.channel_capacity = 2;
    StreamingEngine engine(tasklib::builtin_registry(), cfg);
    reference_digest =
        engine.execute(graph, alloc, nullptr, app).sinks.at(sink).digest;
  }

  // The resampler's host crashes at t=10 and never comes back; the
  // sink advances the testbed clock into the crash window mid-stream.
  const HostId victim = alloc.entry(id_of(graph, "rs")).primary_host();
  netsim::ChaosSchedule schedule;
  netsim::ChaosEvent crash;
  crash.kind = netsim::ChaosEventKind::kHostCrash;
  crash.host = victim;
  crash.start = 10.0;
  crash.length = 1e9;
  schedule.add(crash);
  schedule.apply(bed);
  bed.set_live_time(0.0);

  StreamingConfig cfg;
  cfg.seed = 17;
  cfg.frames = kFrames;
  cfg.channel_capacity = 2;
  cfg.checkpoint_window = kWindow;
  cfg.on_sink_frame = [&bed](TaskId, std::uint64_t k) {
    if (k == 12) bed.set_live_time(15.0);  // into the crash window
  };
  FaultTolerance ft;
  ft.host_alive = bed.liveness_probe();
  ft.reschedule = [&](const afg::TaskNode& node,
                      const std::vector<HostId>& excluded)
      -> std::optional<sched::AllocationEntry> {
    for (const HostId h : site_hosts) {
      if (std::find(excluded.begin(), excluded.end(), h) != excluded.end()) {
        continue;
      }
      if (!bed.is_alive(h, bed.live_time())) continue;
      sched::AllocationEntry e;
      e.task = node.id;
      e.task_label = node.label;
      e.library_task = node.library_task;
      e.hosts = {h};
      e.site = SiteId(0);
      return e;
    }
    return std::nullopt;
  };
  CheckpointStore store;
  common::VirtualClock clock;  // restart backoff sleeps virtually
  StreamingEngine engine(tasklib::builtin_registry(), cfg, clock);

  const std::uint64_t emitted0 = counter_value("streaming.frames_emitted");
  const std::uint64_t skipped0 = counter_value("streaming.frames_skipped");
  const std::uint64_t resumed0 = counter_value("streaming.frames_resumed");
  const std::uint64_t restarts0 = counter_value("streaming.restarts");
  const std::uint64_t windows0 = counter_value("streaming.windows_captured");
  const std::uint64_t rolled0 = counter_value("streaming.frames_rolled_back");

  const auto run = engine.execute(graph, alloc, &ft, app, &store);

  const auto& s = run.sinks.at(sink);
  EXPECT_GE(run.restarts, 1);
  EXPECT_GE(run.reschedules, 1u);
  // Zero re-emitted frames at the sink: the final count is exact.
  EXPECT_EQ(s.frames_emitted, kFrames);
  // Resume came from a durable window boundary (sink was past frame
  // 12 when the crash hit => windows for frames 0..9 were durable).
  EXPECT_GE(run.frames_resumed, 10u);
  EXPECT_EQ(run.frames_resumed % kWindow, 0u);
  // Bit-identical to the fault-free stream.
  EXPECT_EQ(s.digest, reference_digest);

  // Exact metric reconciliation: the global counters moved by exactly
  // what this run reports.
  EXPECT_EQ(counter_value("streaming.frames_emitted") - emitted0, kFrames);
  EXPECT_EQ(counter_value("streaming.frames_skipped") - skipped0,
            s.frames_skipped);
  EXPECT_EQ(counter_value("streaming.frames_resumed") - resumed0,
            run.frames_resumed);
  EXPECT_EQ(counter_value("streaming.restarts") - restarts0,
            static_cast<std::uint64_t>(run.restarts));
  EXPECT_EQ(counter_value("streaming.windows_captured") - windows0,
            s.windows_captured);
  EXPECT_EQ(counter_value("streaming.frames_rolled_back") - rolled0,
            s.frames_rolled_back);
  EXPECT_EQ(s.frames_rolled_back, 0u);  // the sink's host survived
}

}  // namespace
}  // namespace vdce::rt
