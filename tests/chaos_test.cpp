// Chaos and failover tests (DESIGN.md D12): the CheckpointStore, the
// flapping-host circuit breaker, the ChaosSchedule fault harness, and
// the AppSubmissionService's site-level failover loop -- including the
// acceptance property that a run killed mid-flight resumes from its
// checkpoint on surviving resources, re-executes zero completed tasks,
// and produces output bit-identical to a fault-free run.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "netsim/chaos.hpp"
#include "netsim/testbed.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/submission.hpp"
#include "scheduler/qos.hpp"
#include "sim/workloads.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {
namespace {

using common::AppId;
using common::HostId;
using common::SiteId;
using common::TaskId;

std::uint64_t counter_value(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

// ------------------------------------------------------ CheckpointStore

TEST(CheckpointStore, CapturesReplaysAndDrops) {
  CheckpointStore store;
  const AppId app(1);
  const tasklib::Payload out = tasklib::Payload::of_scalar(42.0);

  EXPECT_FALSE(store.completed(app, TaskId(0)));
  store.record(app, TaskId(0), 1, HostId(3), out, 0.5);
  EXPECT_TRUE(store.completed(app, TaskId(0)));
  EXPECT_EQ(store.completed_count(app), 1u);

  const auto entry = store.replay(app, TaskId(0));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->attempt, 1);
  EXPECT_EQ(entry->host, HostId(3));
  EXPECT_EQ(entry->compute_s, 0.5);
  EXPECT_EQ(entry->frame.to_vector(), out.to_wire());

  EXPECT_FALSE(store.replay(app, TaskId(9)).has_value());
  EXPECT_FALSE(store.replay(AppId(2), TaskId(0)).has_value());

  store.drop_app(app);
  EXPECT_EQ(store.completed_count(app), 0u);
  store.drop_app(app);  // idempotent

  const auto stats = store.stats();
  EXPECT_EQ(stats.tasks_captured, 1u);
  EXPECT_EQ(stats.frames_replayed, 1u);
  EXPECT_EQ(stats.bytes_captured, 0u);  // dropped
  EXPECT_EQ(stats.apps_dropped, 1u);
}

TEST(CheckpointStore, RecordIsIdempotentPerAttempt) {
  CheckpointStore store;
  const AppId app(1);
  const auto a = tasklib::Payload::of_scalar(1.0);
  const auto b = tasklib::Payload::of_vector({1.0, 2.0, 3.0});

  store.record(app, TaskId(0), 1, HostId(1), a, 0.1);
  store.record(app, TaskId(0), 1, HostId(2), b, 0.2);  // same attempt: kept
  EXPECT_EQ(store.replay(app, TaskId(0))->host, HostId(1));

  store.record(app, TaskId(0), 3, HostId(5), b, 0.3);  // higher: replaces
  const auto entry = store.replay(app, TaskId(0));
  EXPECT_EQ(entry->attempt, 3);
  EXPECT_EQ(entry->host, HostId(5));
  EXPECT_EQ(entry->frame.to_vector(), b.to_wire());

  store.record(app, TaskId(0), 2, HostId(9), a, 0.4);  // lower: ignored
  EXPECT_EQ(store.replay(app, TaskId(0))->attempt, 3);

  const auto stats = store.stats();
  EXPECT_EQ(stats.tasks_captured, 1u);
  EXPECT_EQ(stats.tasks_replaced, 1u);
  EXPECT_EQ(stats.bytes_captured, b.to_wire().size());
}

TEST(CheckpointStore, ReplayBitIdenticalAfterSlabRecycled) {
  // D13 regression: the store holds a refcounted VIEW of the pooled
  // frame, not a copy.  The view must pin its slab, so pool churn in the
  // same size class after the originating Frame is gone cannot corrupt
  // the captured bytes.
  CheckpointStore store;
  auto& pool = dm::FramePool::global();
  const AppId app(7);

  std::vector<std::byte> wire;
  wire.reserve(4096);
  for (int i = 0; i < 4096; ++i) {
    wire.push_back(static_cast<std::byte>((i * 31) & 0xFF));
  }
  store.record(app, TaskId(1), 1, HostId(2), pool.copy_of(wire), 0.1);

  // Churn the captured frame's size class hard; every one of these
  // slabs is allocated, scribbled over, and recycled.
  for (int i = 0; i < 256; ++i) {
    dm::Frame f = pool.allocate(wire.size());
    std::fill_n(f.data(), f.size(), std::byte{0xAA});
  }

  const auto entry = store.replay(app, TaskId(1));
  ASSERT_TRUE(entry.has_value());
  EXPECT_EQ(entry->frame.to_vector(), wire);
  store.drop_app(app);
}

// -------------------------------------------------- HostCircuitBreaker

TEST(HostCircuitBreaker, OpensOnFailureRateAndDecaysClosed) {
  CircuitBreakerConfig config;
  config.enabled = true;
  config.open_threshold = 3.0;
  config.close_threshold = 1.0;
  config.decay_half_life_s = 10.0;
  common::VirtualClock clock;
  HostCircuitBreaker breaker(config, clock);

  const HostId flappy(4);
  EXPECT_FALSE(breaker.record_failure(flappy));
  EXPECT_FALSE(breaker.record_failure(flappy));
  EXPECT_FALSE(breaker.quarantined(flappy));
  EXPECT_TRUE(breaker.record_failure(flappy));  // 3rd: opens
  EXPECT_TRUE(breaker.quarantined(flappy));
  EXPECT_EQ(breaker.trips(), 1u);
  EXPECT_EQ(breaker.quarantined_hosts(),
            std::vector<HostId>{flappy});

  // Other hosts are unaffected.
  EXPECT_FALSE(breaker.quarantined(HostId(5)));
  EXPECT_EQ(breaker.score(HostId(5)), 0.0);

  // Two half-lives later the score decays 3 -> 0.75 < close threshold:
  // the breaker closes (hysteresis: it opened at 3, closes below 1).
  clock.advance_to(20.0);
  EXPECT_FALSE(breaker.quarantined(flappy));
  EXPECT_NEAR(breaker.score(flappy), 0.75, 1e-9);

  // Re-opening requires climbing back over the open threshold.
  EXPECT_FALSE(breaker.record_failure(flappy));
  EXPECT_FALSE(breaker.record_failure(flappy));
  EXPECT_TRUE(breaker.record_failure(flappy));
  EXPECT_EQ(breaker.trips(), 2u);
}

TEST(HostCircuitBreaker, DisabledBreakerNeverQuarantines) {
  HostCircuitBreaker breaker;  // enabled = false
  for (int i = 0; i < 10; ++i) {
    EXPECT_FALSE(breaker.record_failure(HostId(1)));
  }
  EXPECT_FALSE(breaker.quarantined(HostId(1)));
  EXPECT_TRUE(breaker.quarantined_hosts().empty());
  EXPECT_EQ(breaker.trips(), 0u);
}

// --------------------------------------------------------- ChaosSchedule

TEST(ChaosSchedule, GenerationIsDeterministicAndScalesWithIntensity) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));

  netsim::ChaosScheduleConfig config;
  config.seed = 99;
  config.intensity = 1.0;
  const auto a = netsim::ChaosSchedule::generate(bed, config);
  const auto b = netsim::ChaosSchedule::generate(bed, config);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].start, b.events()[i].start);
    EXPECT_EQ(a.events()[i].length, b.events()[i].length);
    EXPECT_EQ(a.events()[i].host, b.events()[i].host);
    EXPECT_EQ(a.events()[i].site, b.events()[i].site);
  }
  EXPECT_EQ(a.count(netsim::ChaosEventKind::kHostCrash),
            static_cast<std::size_t>(config.max_crashes));
  EXPECT_EQ(a.count(netsim::ChaosEventKind::kSiteOutage),
            static_cast<std::size_t>(config.max_site_outages));

  config.intensity = 0.0;
  EXPECT_TRUE(netsim::ChaosSchedule::generate(bed, config).events().empty());

  config.intensity = 1.0;
  config.seed = 100;
  const auto c = netsim::ChaosSchedule::generate(bed, config);
  bool differs = c.events().size() != a.events().size();
  for (std::size_t i = 0; !differs && i < a.events().size(); ++i) {
    differs = a.events()[i].start != c.events()[i].start ||
              a.events()[i].host != c.events()[i].host;
  }
  EXPECT_TRUE(differs) << "different seeds produced identical schedules";
}

TEST(ChaosSchedule, ProtectedSitesAreNeverTargeted) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  netsim::ChaosScheduleConfig config;
  config.seed = 7;
  config.intensity = 1.0;
  config.protected_sites = {SiteId(0)};
  const auto schedule = netsim::ChaosSchedule::generate(bed, config);
  for (const auto& event : schedule.events()) {
    switch (event.kind) {
      case netsim::ChaosEventKind::kHostCrash:
      case netsim::ChaosEventKind::kGrayHost:
      case netsim::ChaosEventKind::kDeadlineStorm:
        EXPECT_NE(bed.site_of(event.host), SiteId(0));
        break;
      case netsim::ChaosEventKind::kSiteOutage:
      case netsim::ChaosEventKind::kDaemonKill:
        EXPECT_NE(event.site, SiteId(0));
        break;
      case netsim::ChaosEventKind::kPartition:
        break;  // partitions may involve any site (links, not hosts)
    }
  }
}

TEST(ChaosSchedule, AppliedEventsDriveTestbedTruth) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  netsim::ChaosSchedule schedule;

  // Whole-site outage during [10, 20).
  netsim::ChaosEvent outage;
  outage.kind = netsim::ChaosEventKind::kSiteOutage;
  outage.site = SiteId(1);
  outage.start = 10.0;
  outage.length = 10.0;
  schedule.add(outage);

  // Deadline storm on one host of site 0: 2 pulses over [30, 40).
  const HostId stormy = bed.hosts_in_site(SiteId(0)).front();
  netsim::ChaosEvent storm;
  storm.kind = netsim::ChaosEventKind::kDeadlineStorm;
  storm.host = stormy;
  storm.start = 30.0;
  storm.length = 10.0;
  storm.pulses = 2;
  schedule.add(storm);

  schedule.apply(bed);

  for (const HostId host : bed.hosts_in_site(SiteId(1))) {
    EXPECT_TRUE(bed.is_alive(host, 9.9));
    EXPECT_FALSE(bed.is_alive(host, 15.0));
    EXPECT_TRUE(bed.is_alive(host, 20.1));
  }
  // Pulse layout: dead [30, 32.5), alive [32.5, 35), dead [35, 37.5).
  EXPECT_FALSE(bed.is_alive(stormy, 31.0));
  EXPECT_TRUE(bed.is_alive(stormy, 33.0));
  EXPECT_FALSE(bed.is_alive(stormy, 36.0));
  EXPECT_TRUE(bed.is_alive(stormy, 38.0));
}

TEST(ChaosSchedule, PartitionSplitsObserversWithoutKillingHosts) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  netsim::ChaosSchedule schedule;
  netsim::ChaosEvent split;
  split.kind = netsim::ChaosEventKind::kPartition;
  split.site = SiteId(0);
  split.other_site = SiteId(1);
  split.start = 5.0;
  split.length = 10.0;
  schedule.add(split);
  schedule.apply(bed);  // installs nothing: partitions are probe-level

  const HostId far = bed.hosts_in_site(SiteId(1)).front();
  const HostId near = bed.hosts_in_site(SiteId(0)).front();

  // Inside the window: site 0 observers cannot see site 1, both sides
  // stay truly alive, and a site-1 observer still sees its own host.
  EXPECT_TRUE(bed.is_alive(far, 10.0));
  EXPECT_FALSE(schedule.reachable(bed, SiteId(0), far, 10.0));
  EXPECT_TRUE(schedule.reachable(bed, SiteId(0), near, 10.0));
  EXPECT_TRUE(schedule.reachable(bed, SiteId(1), far, 10.0));
  EXPECT_TRUE(schedule.partitioned(SiteId(0), SiteId(1), 10.0));
  EXPECT_TRUE(schedule.partitioned(SiteId(1), SiteId(0), 10.0));

  // Outside the window everything heals.
  EXPECT_TRUE(schedule.reachable(bed, SiteId(0), far, 16.0));
  EXPECT_FALSE(schedule.partitioned(SiteId(0), SiteId(1), 16.0));

  // The probe binds the observer site and the testbed live clock.
  bed.set_live_time(10.0);
  const auto probe = schedule.liveness_probe(bed, SiteId(0));
  EXPECT_FALSE(probe(far));
  EXPECT_TRUE(probe(near));
  bed.set_live_time(16.0);
  EXPECT_TRUE(probe(far));
}

TEST(ChaosSchedule, GrayHostCarriesInjectedLoad) {
  netsim::VirtualTestbed bed(netsim::make_campus_testbed(13));
  const HostId gray = bed.hosts_in_site(SiteId(0)).front();
  netsim::ChaosSchedule schedule;
  netsim::ChaosEvent event;
  event.kind = netsim::ChaosEventKind::kGrayHost;
  event.host = gray;
  event.start = 10.0;
  event.length = 5.0;
  event.extra_load = 6.0;
  schedule.add(event);
  schedule.apply(bed);

  EXPECT_TRUE(bed.is_alive(gray, 12.0));  // answers pings...
  EXPECT_GE(bed.true_load(gray, 12.0), 6.0);  // ...but is buried in load
  EXPECT_LT(bed.true_load(gray, 20.0), 6.0);  // recovers after the window
}

// ------------------------------------------- site-level failover (D12)

/// Shared state of the `chaos_trip` library task: the first
/// `remaining_trips` invocations run `on_trip` (e.g. "kill my site")
/// and throw; later invocations compute a deterministic output.
struct TripState {
  std::atomic<int> remaining_trips{0};
  std::atomic<int> invocations{0};
  std::function<void()> on_trip;
};

/// The builtin library plus `chaos_trip`: passes its inputs through a
/// deterministic checksum -- except that the first N invocations fail
/// after firing a side effect, which is how the tests inject an
/// engine-fatal failure at an exact dataflow position.
tasklib::TaskRegistry trip_registry(std::shared_ptr<TripState> state) {
  tasklib::TaskRegistry registry;
  for (const auto& name : tasklib::builtin_registry().all_tasks()) {
    registry.add(tasklib::builtin_registry().get(name));
  }
  tasklib::LibraryEntry entry;
  entry.name = "chaos_trip";
  entry.menu = "synthetic";
  entry.description = "fails its first N invocations";
  entry.min_inputs = 0;
  entry.max_inputs = 8;
  entry.default_perf.task_name = "chaos_trip";
  entry.default_perf.base_time_s = 0.01;
  entry.default_perf.computation_size = 0.1;
  entry.default_perf.communication_size_mb = 0.001;
  entry.default_perf.memory_req_mb = 0.01;
  entry.fn = [state](const std::vector<tasklib::Payload>& in,
                     const tasklib::TaskContext& ctx) {
    state->invocations.fetch_add(1);
    if (state->remaining_trips.fetch_sub(1) > 0) {
      if (state->on_trip) state->on_trip();
      throw common::StateError("chaos_trip: injected failure");
    }
    state->remaining_trips.fetch_add(1);  // undo the decrement below 0
    double acc = ctx.rng->uniform();
    for (const tasklib::Payload& p : in) {
      acc += static_cast<double>(p.size_bytes() % 1009);
    }
    return tasklib::Payload::of_scalar(acc);
  };
  registry.add(std::move(entry));
  return registry;
}

/// Full multi-site wiring (FaultEnv shape) with a submission service
/// configured for site-level failover.
class FailoverEnv : public ::testing::Test {
 protected:
  void SetUp() override {
    state_ = std::make_shared<TripState>();
    registry_ = trip_registry(state_);
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(13));
    for (const SiteId site : testbed_->sites()) {
      auto repository = std::make_unique<repo::SiteRepository>(site);
      registry_.install_defaults(repository->tasks());
      testbed_->populate_repository(*repository, site);
      auto forecaster = std::make_unique<predict::LoadForecaster>();
      directory_.add_site(site, repository.get(), forecaster.get());
      repositories_.push_back(std::move(repository));
      forecasters_.push_back(std::move(forecaster));
    }
  }

  /// A failover-enabled service.  The engine gets no reschedule hook
  /// (the site's Control Manager is presumed lost with the site), so
  /// any failure is engine-fatal and recovery happens at the service
  /// level: quarantine via the testbed health probe, replan, resume
  /// from checkpoint.
  [[nodiscard]] std::unique_ptr<AppSubmissionService> make_service(
      int max_restarts, bool checkpointing, bool paused = false) {
    AppSubmissionConfig config;
    config.slots = 1;
    config.start_paused = paused;
    config.max_restarts = max_restarts;
    config.checkpointing = checkpointing;
    config.restart_backoff_s = 0.001;
    config.engine.max_attempts = 1;  // no in-gang retry: fail fast
    config.engine.recv_timeout_s = 5.0;
    auto service = std::make_unique<AppSubmissionService>(
        SiteId(0), directory_, registry_, config, clock_);
    service->set_health_probe(testbed_->liveness_probe());
    service->set_fault_hooks(
        [this](const afg::FlowGraph&, const sched::AllocationTable&) {
          FaultTolerance ft;
          ft.host_alive = testbed_->liveness_probe();
          return ft;
        });
    return service;
  }

  [[nodiscard]] static afg::FlowGraph trip_pipeline() {
    afg::FlowGraph g("trip-pipeline");
    const auto a = g.add_task("synth_source", "a");
    const auto b = g.add_task("synth_compute", "b");
    const auto c = g.add_task("chaos_trip", "c");
    const auto d = g.add_task("synth_sink", "d");
    g.add_link(a, b, 0.05);
    g.add_link(b, c, 0.05);
    g.add_link(c, d, 0.05);
    return g;
  }

  [[nodiscard]] static SubmissionRequest request_for(afg::FlowGraph graph,
                                                     std::uint64_t seed) {
    SubmissionRequest request;
    request.graph = std::move(graph);
    request.qos.deadline_s = 1e9;
    request.user = "chaos";
    request.seed = seed;
    return request;
  }

  std::shared_ptr<TripState> state_;
  tasklib::TaskRegistry registry_;
  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::vector<std::unique_ptr<repo::SiteRepository>> repositories_;
  std::vector<std::unique_ptr<predict::LoadForecaster>> forecasters_;
  sched::RepositoryDirectory directory_;
  /// Virtual: the breaker's decay and every backoff nap run on it, so
  /// restarts cost no wall-clock.
  common::VirtualClock clock_;
};

TEST_F(FailoverEnv, SiteOutageFailoverResumesFromCheckpoint) {
  // THE acceptance scenario: a seeded "chaos" event kills the entire
  // site hosting task c mid-run.  The admitted app must resume on
  // surviving sites from its checkpoint, re-execute zero completed
  // tasks, and produce output bit-identical to a fault-free run.
  const std::uint64_t kSeed = 1234;

  // Fault-free reference outputs first (fresh service, same ticket
  // counter, so the app id -- and with it every task RNG -- matches).
  std::map<TaskId, std::vector<std::byte>> reference;
  {
    state_->remaining_trips.store(0);
    auto service = make_service(/*max_restarts=*/0, /*checkpointing=*/false);
    const AppId app =
        service->submit(request_for(trip_pipeline(), kSeed));
    const auto status = service->wait(app);
    ASSERT_EQ(status.state, SubmissionState::kCompleted) << status.error;
    for (const auto& [task, payload] : status.result.outputs) {
      reference[task] = payload.to_wire();
    }
  }

  const auto captured_before = counter_value("engine.checkpoint.captured");
  const auto replayed_before = counter_value("engine.checkpoint.replayed");
  const auto restarts_before = counter_value("submission.restarts");

  // Chaos run: start paused so the allocation is known before the trip
  // is armed with "kill the site that hosts c".
  state_->remaining_trips.store(1);
  state_->invocations.store(0);  // don't count the reference run
  auto service = make_service(/*max_restarts=*/2, /*checkpointing=*/true,
                              /*paused=*/true);
  const AppId app = service->submit(request_for(trip_pipeline(), kSeed));

  const auto queued = service->status(app);
  ASSERT_TRUE(queued.admission.admitted) << queued.error;
  TaskId task_c{};
  for (const auto& row : queued.allocation.rows()) {
    if (row.library_task == "chaos_trip") task_c = row.task;
  }
  const SiteId doomed = queued.allocation.entry(task_c).site;
  const HostId doomed_host = queued.allocation.entry(task_c).primary_host();

  // Install the outage windows now, while the service is paused and no
  // engine thread reads the testbed (fail_host is not locked); the trip
  // itself only flips the atomic live clock into the outage window.
  netsim::ChaosSchedule chaos;
  netsim::ChaosEvent outage;
  outage.kind = netsim::ChaosEventKind::kSiteOutage;
  outage.site = doomed;
  outage.start = 100.0;
  outage.length = 1e6;
  chaos.add(outage);
  chaos.apply(*testbed_);
  state_->on_trip = [this] { testbed_->set_live_time(200.0); };
  service->resume();

  const auto final_status = service->wait(app);
  ASSERT_EQ(final_status.state, SubmissionState::kCompleted)
      << final_status.error;
  EXPECT_EQ(final_status.restarts, 1u);

  // Resumed on surviving resources: every task that ran in the restart
  // avoids the dead site; a/b stayed replayed from their checkpoint.
  ASSERT_EQ(final_status.result.records.size(), 4u);
  EXPECT_EQ(final_status.result.tasks_replayed, 2u);
  std::size_t replayed_records = 0;
  for (const auto& record : final_status.result.records) {
    if (record.replayed) {
      ++replayed_records;
    } else {
      EXPECT_NE(testbed_->site_of(record.host), doomed)
          << "task re-executed on the dead site";
      EXPECT_TRUE(testbed_->is_alive_now(record.host));
    }
  }
  EXPECT_EQ(replayed_records, 2u);
  EXPECT_NE(final_status.allocation.entry(task_c).primary_host(),
            doomed_host);

  // Zero re-execution: c ran twice (trip + success), a/b/d exactly
  // once; captured covers each task exactly once across both attempts.
  EXPECT_EQ(state_->invocations.load(), 2);
  EXPECT_EQ(counter_value("engine.checkpoint.captured") - captured_before,
            4u);
  EXPECT_EQ(counter_value("engine.checkpoint.replayed") - replayed_before,
            2u);
  EXPECT_EQ(counter_value("submission.restarts") - restarts_before, 1u);

  // Bit-identical to the fault-free run.
  ASSERT_EQ(final_status.result.outputs.size(), reference.size());
  for (const auto& [task, payload] : final_status.result.outputs) {
    EXPECT_EQ(payload.to_wire(), reference.at(task))
        << "task " << task.value() << " output diverged";
  }
}

TEST_F(FailoverEnv, RestartBudgetExhaustionFailsTheSubmission) {
  // More trips than max_restarts: the failover loop gives up and the
  // submission lands in kFailed with the engine's error preserved.
  state_->remaining_trips.store(10);
  auto service = make_service(/*max_restarts=*/2, /*checkpointing=*/true);
  const AppId app = service->submit(request_for(trip_pipeline(), 77));
  const auto status = service->wait(app);
  EXPECT_EQ(status.state, SubmissionState::kFailed);
  EXPECT_EQ(status.restarts, 2u);
  EXPECT_NE(status.error.find("chaos_trip"), std::string::npos);

  const auto stats = service->stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.restarts, 2u);
}

TEST_F(FailoverEnv, FailoverDisabledPreservesSeedBehaviour) {
  // max_restarts = 0 (the default): a fatal engine error fails the
  // submission on the spot, exactly as before this feature existed.
  state_->remaining_trips.store(1);
  auto service = make_service(/*max_restarts=*/0, /*checkpointing=*/false);
  const AppId app = service->submit(request_for(trip_pipeline(), 5));
  const auto status = service->wait(app);
  EXPECT_EQ(status.state, SubmissionState::kFailed);
  EXPECT_EQ(status.restarts, 0u);
}

// --------------------------- bit-identity property (seeds x schedules)

TEST_F(FailoverEnv, CheckpointReplayBitIdenticalAcrossSeedsAndSchedules) {
  // Property: for every (seed, fault schedule), the checkpoint-resumed
  // run's outputs are bit-identical to the uninterrupted run's, and the
  // submission.* / engine.checkpoint.* counters reconcile exactly.
  const std::uint64_t seeds[] = {1, 7, 42};
  // Fault schedules: how many consecutive invocations of the trip task
  // fail (1 = one mid-run failure, 2 = the restarted run is killed
  // again and a second failover resumes it).
  const int schedules[] = {1, 2};

  for (const std::uint64_t seed : seeds) {
    // Uninterrupted reference.
    std::map<TaskId, std::vector<std::byte>> reference;
    {
      state_->remaining_trips.store(0);
      auto service =
          make_service(/*max_restarts=*/0, /*checkpointing=*/false);
      const auto status =
          service->wait(service->submit(request_for(trip_pipeline(), seed)));
      ASSERT_EQ(status.state, SubmissionState::kCompleted) << status.error;
      for (const auto& [task, payload] : status.result.outputs) {
        reference[task] = payload.to_wire();
      }
    }

    for (const int trips : schedules) {
      const auto captured_before =
          counter_value("engine.checkpoint.captured");
      const auto submitted_before = counter_value("submission.submitted");
      const auto completed_before = counter_value("submission.completed");
      const auto restarts_before = counter_value("submission.restarts");

      state_->remaining_trips.store(trips);
      auto service =
          make_service(/*max_restarts=*/3, /*checkpointing=*/true);
      const auto status =
          service->wait(service->submit(request_for(trip_pipeline(), seed)));
      ASSERT_EQ(status.state, SubmissionState::kCompleted)
          << "seed " << seed << " trips " << trips << ": " << status.error;
      EXPECT_EQ(status.restarts, static_cast<std::size_t>(trips));

      for (const auto& [task, payload] : status.result.outputs) {
        EXPECT_EQ(payload.to_wire(), reference.at(task))
            << "seed " << seed << " trips " << trips << " task "
            << task.value();
      }

      // Exact counter reconciliation: each of the 4 tasks is captured
      // exactly once across all attempts (zero re-execution), and the
      // service-level books balance.
      EXPECT_EQ(
          counter_value("engine.checkpoint.captured") - captured_before,
          4u);
      EXPECT_EQ(counter_value("submission.restarts") - restarts_before,
                static_cast<std::uint64_t>(trips));
      EXPECT_EQ(counter_value("submission.submitted") - submitted_before,
                1u);
      EXPECT_EQ(counter_value("submission.completed") - completed_before,
                1u);
      const auto stats = service->stats();
      EXPECT_EQ(stats.submitted,
                stats.admitted + stats.rejected + stats.queued);
      EXPECT_EQ(stats.queued, stats.queued_then_admitted);
      EXPECT_EQ(stats.completed + stats.failed,
                stats.admitted + stats.queued_then_admitted);
    }
  }
}

// ------------------------------------------- circuit breaker x service

TEST_F(FailoverEnv, BreakerTripBumpsStatsAndInvalidatesPredictions) {
  AppSubmissionConfig config;
  config.breaker.enabled = true;
  config.breaker.open_threshold = 3.0;
  AppSubmissionService service(SiteId(0), directory_, registry_, config,
                               clock_);
  for (auto& forecaster : forecasters_) {
    service.add_forecaster(forecaster.get());
  }

  const HostId flappy = testbed_->all_hosts().front();
  const auto version_before = forecasters_.front()->version();
  const auto trips_before = counter_value("submission.breaker_trips");

  service.breaker().record_failure(flappy);
  service.breaker().record_failure(flappy);
  EXPECT_EQ(service.stats().breaker_trips, 0u);
  service.breaker().record_failure(flappy);  // opens

  EXPECT_TRUE(service.breaker().quarantined(flappy));
  EXPECT_EQ(service.stats().breaker_trips, 1u);
  EXPECT_EQ(counter_value("submission.breaker_trips") - trips_before, 1u);
  // The open transition version-bumped the forecaster (forget(host)),
  // so prediction-cache entries computed before the flap are stale.
  EXPECT_GT(forecasters_.front()->version(), version_before);
}

TEST_F(FailoverEnv, QuarantinedHostIsExcludedByWrappedLiveness) {
  // The service wraps factory hooks so a quarantined host reads dead
  // even when the raw probe says alive: the engine's fault guard and
  // recovery then steer around the flapping machine.
  AppSubmissionConfig config;
  config.breaker.enabled = true;
  config.breaker.open_threshold = 1.0;   // first failure quarantines
  config.breaker.close_threshold = 0.1;  // ...and it stays open a while
  config.max_restarts = 1;
  config.engine.max_attempts = 1;
  AppSubmissionService service(SiteId(0), directory_, registry_, config,
                               clock_);
  service.set_health_probe(
      [this](HostId host) { return testbed_->is_alive_now(host); });
  service.set_fault_hooks(
      [this](const afg::FlowGraph&, const sched::AllocationTable&) {
        FaultTolerance ft;
        ft.host_alive = testbed_->liveness_probe();
        return ft;
      });

  const HostId flappy = testbed_->all_hosts().front();
  service.breaker().record_failure(flappy);
  ASSERT_TRUE(service.breaker().quarantined(flappy));

  // A healthy app run completes while steering clear of the
  // quarantined host (host_alive reads false for it pre-compute).
  state_->remaining_trips.store(0);
  SubmissionRequest request;
  request.graph = trip_pipeline();
  request.qos.deadline_s = 1e9;
  request.seed = 3;
  const auto status = service.wait(service.submit(std::move(request)));
  ASSERT_EQ(status.state, SubmissionState::kCompleted) << status.error;
  for (const auto& record : status.result.records) {
    EXPECT_NE(record.host, flappy);
  }
}

}  // namespace
}  // namespace vdce::rt
