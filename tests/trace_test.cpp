// Tests for the common::trace recorder and common::metrics registry
// (design decision D10): sharded concurrent recording, Chrome
// trace-event JSON export, the inert disabled mode, and the engine's
// per-attempt span instrumentation end to end.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "runtime/engine.hpp"
#include "scheduler/allocation.hpp"
#include "tasklib/registry.hpp"

namespace vdce::common {
namespace {

using rt::EngineConfig;
using rt::ExecutionEngine;
using rt::FaultTolerance;

// ------------------------------------------------------ TraceRecorder

TEST(TraceRecorderTest, InertWhenNoRecorderInstalled) {
  ASSERT_EQ(TraceRecorder::current(), nullptr);
  EXPECT_FALSE(trace_enabled());
  ScopedSpan span("orphan", "test");
  EXPECT_FALSE(span.active());
  span.arg("ignored", 1);       // all no-ops
  span.rename("still-orphan");
  trace_instant("orphan", "test", {{"k", "v"}});
}

#ifndef VDCE_TRACE_DISABLED

TEST(TraceRecorderTest, RecordsSpansAndInstants) {
  TraceRecorder recorder;
  TraceRecorder::install(&recorder);
  EXPECT_TRUE(trace_enabled());

  {
    ScopedSpan span("outer", "test");
    ASSERT_TRUE(span.active());
    span.arg("string", "value");
    span.arg("number", 42);
    trace_instant("marker", "test", {{"k", "v"}});
  }
  TraceRecorder::install(nullptr);

  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 2u);
  // snapshot() is sorted by timestamp: the instant fired inside the
  // span, whose ts is its *start*, so the span sorts first.
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(events[0].phase, 'X');
  ASSERT_EQ(events[0].args.size(), 2u);
  EXPECT_EQ(events[0].args[0].first, "string");
  EXPECT_EQ(events[0].args[1].second, "42");
  EXPECT_EQ(events[1].name, "marker");
  EXPECT_EQ(events[1].phase, 'i');
}

TEST(TraceRecorderTest, RenameOverridesSpanName) {
  TraceRecorder recorder;
  TraceRecorder::install(&recorder);
  {
    ScopedSpan span("generic", "test");
    span.rename("specific:label");
  }
  TraceRecorder::install(nullptr);
  const auto events = recorder.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "specific:label");
}

TEST(TraceRecorderTest, ConcurrentShardedWritersLoseNothing) {
  // TSan coverage of the sharded write path: many threads record spans
  // and instants at once; every event must land exactly once.
  TraceRecorder recorder;
  TraceRecorder::install(&recorder);

  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  {
    std::vector<std::jthread> writers;
    writers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([t] {
        for (int i = 0; i < kPerThread; ++i) {
          if (i % 2 == 0) {
            ScopedSpan span("work", "test");
            span.arg("thread", t);
          } else {
            trace_instant("tick", "test");
          }
        }
      });
    }
  }
  TraceRecorder::install(nullptr);

  EXPECT_EQ(recorder.event_count(),
            static_cast<std::size_t>(kThreads) * kPerThread);
  // The merged snapshot is globally sorted by timestamp.
  const auto events = recorder.snapshot();
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].ts_us, events[i].ts_us);
  }
}

TEST(TraceRecorderTest, ChromeJsonIsWellFormed) {
  TraceRecorder recorder;
  TraceRecorder::install(&recorder);
  {
    ScopedSpan span("na\"me\n", "cat");
    span.arg("key", "va\\lue");
  }
  trace_instant("instant", "cat");
  TraceRecorder::install(nullptr);

  std::ostringstream out;
  recorder.write_chrome_json(out);
  const std::string json = out.str();

  // Structure: one traceEvents array, balanced braces/brackets, all
  // special characters escaped (no raw quote or newline inside a
  // string).
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\\\""), std::string::npos);  // escaped quote
  EXPECT_NE(json.find("\\n"), std::string::npos);   // escaped newline
  EXPECT_NE(json.find("\\\\"), std::string::npos);  // escaped backslash
  EXPECT_EQ(json.find('\n'), std::string::npos);    // no raw newline
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (c == '\\') {
      escaped = true;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
      EXPECT_GE(depth, 0);
    }
  }
  EXPECT_EQ(depth, 0);
  EXPECT_FALSE(in_string);
  // The instant carries the thread-scope marker.
  EXPECT_NE(json.find("\"ph\":\"i\",\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(TraceRecorderTest, TextSummaryAggregatesPerCategoryAndName) {
  TraceRecorder recorder;
  TraceRecorder::install(&recorder);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("step", "phase1");
    span.arg("i", i);
  }
  trace_instant("blip", "phase2");
  TraceRecorder::install(nullptr);

  const std::string summary = recorder.text_summary();
  EXPECT_NE(summary.find("11 events"), std::string::npos);
  EXPECT_NE(summary.find("phase1,step,10,0"), std::string::npos);
  EXPECT_NE(summary.find("phase2,blip,0,1"), std::string::npos);
}

TEST(TraceRecorderTest, DestructorUninstallsItself) {
  {
    TraceRecorder recorder;
    TraceRecorder::install(&recorder);
    EXPECT_TRUE(trace_enabled());
  }
  // A recorder destroyed while installed must not leave a dangling
  // global behind.
  EXPECT_FALSE(trace_enabled());
}

// ------------------------------------------------------- TraceSession

TEST(TraceSessionTest, WritesJsonFileOnDestruction) {
  const std::string path = ::testing::TempDir() + "trace_session_test.json";
  std::remove(path.c_str());
  {
    TraceSession session(path);
    EXPECT_TRUE(session.active());
    ScopedSpan span("session_span", "test");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "trace file not written: " << path;
  std::stringstream buf;
  buf << in.rdbuf();
  EXPECT_NE(buf.str().find("session_span"), std::string::npos);
  std::remove(path.c_str());
}

#endif  // !VDCE_TRACE_DISABLED

TEST(TraceSessionTest, InertWithoutPathOrEnvVar) {
  ASSERT_EQ(::unsetenv("VDCE_TRACE"), 0);
  TraceSession session;
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(trace_enabled());
}

#ifdef VDCE_TRACE_DISABLED
// The disabled-mode guarantee is compile-time: the whole API must be
// stateless (the header static_asserts is_empty on the no-op types) and
// a TraceSession must stay inert even when given a path.
TEST(TraceSessionTest, DisabledBuildIgnoresPath) {
  TraceSession session("/tmp/never_written.json");
  EXPECT_FALSE(session.active());
  EXPECT_FALSE(trace_enabled());
}
#endif

// ------------------------------------------------------------ metrics

TEST(MetricsTest, CounterGaugeBasics) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
  c.reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.set(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 2.5);
  g.reset();
  EXPECT_DOUBLE_EQ(g.value(), 0.0);
}

TEST(MetricsTest, HistogramSnapshotMatchesObservations) {
  Histogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_DOUBLE_EQ(snap.mean, 50.5);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  EXPECT_DOUBLE_EQ(snap.p50, 50.0);
  EXPECT_DOUBLE_EQ(snap.p95, 95.0);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
}

TEST(MetricsTest, RegistryReturnsStableReferences) {
  MetricsRegistry registry;
  Counter& a = registry.counter("test.counter");
  Counter& b = registry.counter("test.counter");
  EXPECT_EQ(&a, &b);
  a.add(7);
  // Force rebalancing pressure: more instruments must not move `a`.
  for (int i = 0; i < 100; ++i) {
    registry.counter("test.other" + std::to_string(i));
  }
  EXPECT_EQ(registry.counter("test.counter").value(), 7u);

  registry.gauge("test.gauge").set(1.0);
  registry.histogram("test.hist").observe(3.0);
  const std::string summary = registry.text_summary();
  EXPECT_NE(summary.find("test.counter"), std::string::npos);
  EXPECT_NE(summary.find("test.gauge"), std::string::npos);
  EXPECT_NE(summary.find("test.hist"), std::string::npos);

  registry.reset();
  EXPECT_EQ(a.value(), 0u);  // reference survived the reset
}

TEST(MetricsTest, ConcurrentCountersAreExact) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  {
    std::vector<std::jthread> writers;
    for (int t = 0; t < kThreads; ++t) {
      writers.emplace_back([&registry] {
        Counter& c = registry.counter("concurrent.hits");
        for (int i = 0; i < kPerThread; ++i) c.add();
      });
    }
  }
  EXPECT_EQ(registry.counter("concurrent.hits").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
}

// ------------------------------------- engine spans (the end-to-end)

#ifndef VDCE_TRACE_DISABLED
TEST(EngineTraceTest, EveryAttemptBecomesADistinctSpan) {
  // A flaky task that fails once: with tracing on, the run must emit
  // one engine.task span per executed task, and the retried task's
  // attempts must appear as *distinct* spans (the gang attempt that
  // errored plus the recovery attempt), with the retry backoff visible
  // as an instant event.
  static std::atomic<int> calls{0};
  calls = 0;

  tasklib::TaskRegistry registry;
  tasklib::register_builtin_tasks(registry);
  tasklib::LibraryEntry flaky;
  flaky.name = "flaky_source";
  flaky.menu = "synthetic";
  flaky.description = "fails on the first call, succeeds after";
  flaky.min_inputs = 0;
  flaky.max_inputs = 0;
  flaky.fn = [](const std::vector<tasklib::Payload>&,
                const tasklib::TaskContext&) {
    if (calls.fetch_add(1) == 0) {
      throw StateError("transient fault");
    }
    return tasklib::Payload::of_scalar(42.0);
  };
  registry.add(std::move(flaky));

  afg::FlowGraph g("flaky-traced");
  const auto src = g.add_task("flaky_source", "flaky");
  const auto sink = g.add_task("synth_sink", "sink");
  g.add_link(src, sink, 0.1);

  sched::AllocationTable allocation("flaky-traced");
  for (const auto& [task, host] :
       {std::pair{src, HostId(0)}, std::pair{sink, HostId(1)}}) {
    sched::AllocationEntry entry;
    entry.task = task;
    entry.task_label = g.task(task).label;
    entry.library_task = g.task(task).library_task;
    entry.hosts = {host};
    entry.site = SiteId(0);
    allocation.add(entry);
  }

  FaultTolerance ft;
  ft.reschedule = [](const afg::TaskNode&, const std::vector<HostId>&)
      -> std::optional<sched::AllocationEntry> { return std::nullopt; };
  // Virtual sleep: the naps advance the clock instead of stalling the
  // gang.
  VirtualClock clock;

  TraceRecorder recorder;
  TraceRecorder::install(&recorder);
  EngineConfig config;
  config.retry_backoff_s = 0.001;
  config.attempt_timeout_s = 20.0;
  config.recv_timeout_s = 20.0;
  ExecutionEngine engine(registry, config, clock);
  const auto result = engine.execute(g, allocation, nullptr, nullptr, &ft);
  TraceRecorder::install(nullptr);

  EXPECT_EQ(result.failures_recovered, 2u);
  EXPECT_GT(clock.now(), 0.0);  // the engine napped

  std::size_t flaky_attempts = 0;
  std::size_t sink_attempts = 0;
  std::size_t backoff_instants = 0;
  bool saw_app_span = false;
  for (const auto& ev : recorder.snapshot()) {
    if (ev.category == "engine.task" && ev.name == "task:flaky") {
      ++flaky_attempts;
      EXPECT_EQ(ev.phase, 'X');
    }
    if (ev.category == "engine.task" && ev.name == "task:sink") {
      ++sink_attempts;
    }
    if (ev.name == "retry_backoff") ++backoff_instants;
    if (ev.name == "app:flaky-traced") saw_app_span = true;
  }
  // >= 1 span per executed task; the retried tasks carry one span per
  // attempt (gang + recovery).
  EXPECT_GE(flaky_attempts, 2u);
  EXPECT_GE(sink_attempts, 2u);
  EXPECT_GT(backoff_instants, 0u);
  EXPECT_TRUE(saw_app_span);

  // The same run also moved the global engine counters.
  auto& metrics = MetricsRegistry::global();
  EXPECT_GE(metrics.counter("engine.tasks_completed").value(), 2u);
  EXPECT_GE(metrics.counter("engine.retries").value(), 2u);
}
#endif  // !VDCE_TRACE_DISABLED

TEST(EngineTraceTest, BackoffIsCappedCumulatively) {
  // With a tiny cumulative cap, the total virtually slept time across
  // all retries must never exceed max_total_backoff_s, however large
  // the per-round schedule grows.
  static std::atomic<int> calls{0};
  calls = 0;

  tasklib::TaskRegistry registry;
  tasklib::register_builtin_tasks(registry);
  tasklib::LibraryEntry flaky;
  flaky.name = "very_flaky";
  flaky.menu = "synthetic";
  flaky.description = "fails three times, succeeds after";
  flaky.min_inputs = 0;
  flaky.max_inputs = 0;
  flaky.fn = [](const std::vector<tasklib::Payload>&,
                const tasklib::TaskContext&) {
    if (calls.fetch_add(1) < 3) {
      throw StateError("transient fault");
    }
    return tasklib::Payload::of_scalar(1.0);
  };
  registry.add(std::move(flaky));

  afg::FlowGraph g("capped");
  const auto src = g.add_task("very_flaky", "flaky");

  sched::AllocationTable allocation("capped");
  sched::AllocationEntry entry;
  entry.task = src;
  entry.task_label = "flaky";
  entry.library_task = "very_flaky";
  entry.hosts = {HostId(0)};
  entry.site = SiteId(0);
  allocation.add(entry);

  FaultTolerance ft;
  ft.reschedule = [](const afg::TaskNode&, const std::vector<HostId>&)
      -> std::optional<sched::AllocationEntry> { return std::nullopt; };
  VirtualClock clock;  // its reading is the total nap

  EngineConfig config;
  config.max_attempts = 5;
  config.retry_backoff_s = 10.0;  // would sleep 10+20+40s uncapped
  config.max_total_backoff_s = 0.05;
  config.attempt_timeout_s = 20.0;
  config.recv_timeout_s = 20.0;
  ExecutionEngine engine(registry, config, clock);
  const auto result = engine.execute(g, allocation, nullptr, nullptr, &ft);

  EXPECT_EQ(result.records.at(0).attempts, 4);
  EXPECT_LE(clock.now(), config.max_total_backoff_s + 1e-12);
  EXPECT_GT(clock.now(), 0.0);
}

}  // namespace
}  // namespace vdce::common
