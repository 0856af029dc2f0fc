// The Application Submission Service: VDCE as a *shared* environment.
//
// "At each site, the VDCE Server runs the server software, called site
//  manager, which manages the VDCE resources" (Section 2) -- for all
//  users at once.  The QoS framework of Section 2.2 admits
//  applications, plural; up to this point the runtime executed exactly
//  one AFG at a time.  This service is the multi-application front
//  door:
//
//    submit(AFG, deadline, user, weight, priority)
//      -> schedule (Figure 4, per-submission Site Scheduler; runs
//         OUTSIDE the service lock, so concurrent submitters overlap
//         their placement work)
//      -> residual-capacity QoS admission: the makespan estimate
//         charges the predicted host occupancy of every application
//         already admitted and not yet finished, so the same
//         host-seconds are never promised twice; submit_batch admits
//         an entire arrival burst under one lock acquisition and one
//         occupancy snapshot
//      -> load-shedding tiers (DESIGN.md D15):
//           0. early shed (opt-in): a full queue rejects before any
//              scheduling work is spent, unless the newcomer's
//              priority could preempt;
//           1. reject-with-slack (QoS miss) and bounded-queue
//              backpressure;
//           2. priority preemption: a full queue evicts the youngest
//              QUEUED submission of the lowest priority tier strictly
//              below the newcomer's (running apps are never touched);
//           3. shed_queued(): bulk-drop queued work below a priority
//              cutoff (the operator's pressure valve).
//      -> sharded stride fair-share ready queue (rt::FairShareQueue):
//         O(log n) grant picks keyed on pass value with FIFO seq
//         tie-break, user-hash shard locks, pass renormalization, and
//         idle-share eviction
//      -> execution on a pool of engine slots; each running app gets
//         its own ExecutionEngine keyed by its AppId ticket (per-app
//         broker, per-app seeds, per-app FaultTolerance hooks)
//      -> prediction feedback + submission.* metrics, spans carrying
//         app= arguments; terminal records retire into compact stubs
//         so millions of submissions do not grow the record map
//         without bound.
//
// Determinism contract (the concurrency tests lean on it): admission
// decisions and grant order are serialised under one lock, per-app
// outputs depend only on (graph, seed, app id) -- never on what else
// is running -- and a paused service queues every admitted submission
// so tests fix the queue contents before releasing the workers.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "predict/forecaster.hpp"
#include "runtime/checkpoint.hpp"
#include "runtime/engine.hpp"
#include "runtime/fair_share.hpp"
#include "scheduler/qos.hpp"
#include "scheduler/site_scheduler.hpp"

namespace vdce::rt {

/// Flapping-host circuit breaker tunables (DESIGN.md D12).  A host
/// accumulates one point per reported host-failure; the score decays
/// exponentially with `decay_half_life_s`.  Crossing `open_threshold`
/// quarantines the host (probes report it dead, replans exclude it);
/// decaying below `close_threshold` readmits it.
struct CircuitBreakerConfig {
  /// Off by default: quarantine changes which hosts the engine trusts,
  /// so it is an explicit opt-in of the failover deployments.
  bool enabled = false;
  double open_threshold = 3.0;
  double close_threshold = 1.0;
  double decay_half_life_s = 30.0;
};

/// Thread-safe decayed-failure-rate quarantine.  Machine threads feed
/// it via the wrapped FaultTolerance::on_failure hook; probes and the
/// failover replanner consult quarantined().  The on-open callback
/// fires OUTSIDE the breaker's lock (it takes the service lock to bump
/// counters and invalidate forecasters).
class HostCircuitBreaker {
 public:
  /// The score decays on `clock`, which must outlive the breaker.
  explicit HostCircuitBreaker(CircuitBreakerConfig config = {},
                              common::Clock& clock = common::steady_clock());

  /// Fired once per open transition, outside the internal lock.
  void set_on_open(std::function<void(common::HostId)> callback);

  /// Records one failure report; returns true when this report opened
  /// the breaker (after invoking the on-open callback).
  bool record_failure(common::HostId host);

  /// Whether the host is currently quarantined (decay is evaluated and
  /// may close the breaker on the spot).
  [[nodiscard]] bool quarantined(common::HostId host);
  [[nodiscard]] std::vector<common::HostId> quarantined_hosts();
  /// Decayed failure score right now (0 for never-failed hosts).
  [[nodiscard]] double score(common::HostId host);
  /// Total open transitions.
  [[nodiscard]] std::uint64_t trips() const;

  [[nodiscard]] const CircuitBreakerConfig& config() const {
    return config_;
  }

 private:
  struct Entry {
    double score = 0.0;
    double updated_at = 0.0;
    bool open = false;
  };
  /// Decays `entry` to `now` and applies the close threshold; lock held.
  void refresh_locked(Entry& entry, double now) const;

  CircuitBreakerConfig config_;
  common::Clock* clock_;
  std::function<void(common::HostId)> on_open_;
  mutable std::mutex mu_;
  std::map<common::HostId, Entry> entries_;
  std::atomic<std::uint64_t> trips_{0};
};

/// One application submission: the AFG plus the user's QoS contract.
struct SubmissionRequest {
  afg::FlowGraph graph;
  sched::QosRequirement qos;
  /// Submitting user (fair-share accounting key).
  std::string user = "anonymous";
  /// Fair-share weight (> 0): a user with weight 2 receives execution
  /// grants twice as often as a user with weight 1 under contention.
  double weight = 1.0;
  /// Admission priority tier from the user-accounts repository (paper
  /// Section 2.1's per-user records): a submission arriving at a full
  /// queue preempts the youngest QUEUED submission of the lowest tier
  /// strictly below its own; shed_queued() drops queued work below a
  /// cutoff.  Priority never reorders grants among queued work -- the
  /// stride race stays weight-driven -- it only decides who survives
  /// load shedding.
  int priority = 0;
  /// Engine seed for this application; together with the assigned app
  /// id it fixes every task's RNG stream, so a completed app's outputs
  /// can be reproduced by replaying (graph, seed, app id) alone.
  std::uint64_t seed = 1;
};

/// Lifecycle of one submission.
enum class SubmissionState : std::uint8_t {
  kQueued,     // admitted, waiting for an execution slot
  kRunning,    // granted a slot, executing
  kCompleted,  // finished successfully
  kRejected,   // refused at admission, preempted, or shed
  kFailed,     // admitted but execution ultimately failed
};

[[nodiscard]] const char* to_string(SubmissionState state);

/// Point-in-time view of one submission (wait() returns the terminal
/// snapshot).
struct SubmissionStatus {
  common::AppId app;
  SubmissionState state = SubmissionState::kQueued;
  std::string user;
  /// The admission decision (residual-capacity estimate and slack).
  /// For backpressure rejections admitted is true but the queue was
  /// full -- `error` distinguishes the two.
  sched::QosAdmission admission;
  /// Queue-with-ETA backpressure signal: estimated seconds until this
  /// submission is granted a slot (0 when it ran immediately).
  double queue_eta_s = 0.0;
  /// The allocation the admission was based on.
  sched::AllocationTable allocation;
  /// Execution grant order (1 = first grant; 0 = never granted).  The
  /// fair-share tests assert on this.
  std::size_t grant_index = 0;
  /// Site-level failover restarts this submission consumed.
  std::size_t restarts = 0;
  /// kCompleted only.
  RunResult result;
  /// kRejected / kFailed reason.
  std::string error;
  /// True when the full record has been retired into a compact stub
  /// (allocation/result/error no longer held; see terminal_record_cap).
  bool retired = false;
};

/// Service-local counters (mirrored into the global MetricsRegistry as
/// submission.*).  Reconciliation invariants after drain():
///   submitted == admitted + rejected + queued
///   queued    == queued_then_admitted + preempted + shed
///   admitted + queued_then_admitted == completed + failed
struct SubmissionStats {
  std::uint64_t submitted = 0;
  /// Admitted with a free slot: ran without queueing.
  std::uint64_t admitted = 0;
  /// Refused at admission: QoS slack < 0, backpressure (early or
  /// post-QoS), or scheduling failure.
  std::uint64_t rejected = 0;
  /// Admitted but queued behind busy slots.
  std::uint64_t queued = 0;
  /// Queued submissions later granted a slot.
  std::uint64_t queued_then_admitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  /// Queued submissions evicted by a higher-priority arrival (shedding
  /// tier 2).
  std::uint64_t preempted = 0;
  /// Queued submissions dropped by shed_queued() (shedding tier 3).
  std::uint64_t shed = 0;
  /// Rejections taken by the early-shed fast path before any
  /// scheduling work (shedding tier 0; a subset of `rejected`).
  std::uint64_t early_shed = 0;
  /// Terminal records compacted into stubs (memory reclamation).
  std::uint64_t retired = 0;
  /// Site-level failover restarts across all submissions.
  std::uint64_t restarts = 0;
  /// Circuit-breaker open transitions.
  std::uint64_t breaker_trips = 0;
  std::size_t running = 0;
  std::size_t queue_depth = 0;
  /// Full records currently held (bounded by terminal_record_cap plus
  /// live submissions).
  std::size_t records_retained = 0;
};

/// Tunables of the submission service.
struct AppSubmissionConfig {
  /// Concurrent execution slots (worker threads running engines).
  std::size_t slots = 4;
  /// Bounded ready queue: an admitted submission arriving when this
  /// many are already waiting is rejected (backpressure) unless its
  /// priority preempts a queued lower tier.
  std::size_t max_queue = 16;
  /// Start with grants paused: admitted submissions queue until
  /// resume() -- the deterministic-test hook.
  bool start_paused = false;
  /// Shedding tier 0: when the queue is full and the arrival's
  /// priority cannot preempt anything queued, reject before spending
  /// any scheduling work.  Off by default: the early rejection carries
  /// no QoS estimate, which changes the (pinned) rejection shape of
  /// the seed behaviour.
  bool early_shed = false;
  /// Terminal (completed/failed/rejected) records beyond this many are
  /// retired: the heavy record (graph, allocation, outputs) is dropped
  /// and a compact stub keeps state/grant_index/restarts for status().
  /// 0 = retain everything (the pre-D15 behaviour).
  std::size_t terminal_record_cap = 65536;
  /// Retired stubs beyond this many are forgotten entirely (status()
  /// then throws NotFoundError).  0 = retain all stubs.
  std::size_t retired_stub_cap = 1 << 20;
  /// Sharded stride queue tunables (DESIGN.md D15).
  FairShareConfig fair_share;
  /// Predicted load each allocated task adds to its primary host's
  /// forecaster while its application is admitted-but-unfinished
  /// (registered on every forecaster added with add_forecaster); 0
  /// disables the contribution.
  double admitted_load_bias = 0.0;
  /// Per-submission Site Scheduler configuration.
  sched::SiteSchedulerConfig scheduler;
  /// Engine configuration template; `engine.seed` is overridden by
  /// each submission's own seed.
  EngineConfig engine;

  /// Site-level failover (DESIGN.md D12): when an admitted app's engine
  /// surfaces an unrecoverable failure, quarantine the hosts the health
  /// probe reports dead, re-run the Figure-4 scheduler over surviving
  /// resources for the *incomplete* subgraph, re-admit through
  /// residual-capacity QoS, and resume from checkpoint.  0 = failover
  /// off (a fatal engine error fails the submission, the seed
  /// behaviour).
  int max_restarts = 0;
  /// Exponential backoff between restart attempts; jitter is seeded
  /// from (engine seed, app, restart attempt), never global state.
  double restart_backoff_s = 0.05;
  double restart_backoff_multiplier = 2.0;
  double restart_backoff_jitter = 0.5;
  /// Capture completions into the service checkpoint store and resume
  /// restarts from the completed frontier.  Off: restarts re-execute
  /// the whole graph (the wasted-work baseline of EXPERIMENTS.md E18).
  bool checkpointing = true;
  /// Flapping-host circuit breaker (off unless breaker.enabled).
  CircuitBreakerConfig breaker;
};

/// Builds the per-application FaultTolerance hook set for one admitted
/// run; both references stay valid for the run's duration.  Empty
/// factory = no fault tolerance (failures are fatal for that app only).
using FaultHookFactory = std::function<FaultTolerance(
    const afg::FlowGraph& graph, const sched::AllocationTable& allocation)>;

/// Concurrent multi-application admission and execution front door.
class AppSubmissionService {
 public:
  /// `directory`, `registry` and `clock` must outlive the service.
  /// `clock` times the breaker's decay, the restart naps and the
  /// backoff naps of every engine the service builds.
  AppSubmissionService(SiteId local_site, sched::SiteDirectory& directory,
                       const tasklib::TaskRegistry& registry,
                       AppSubmissionConfig config = {},
                       common::Clock& clock = common::steady_clock());

  /// Drains the ready queue (shutdown still executes admitted work),
  /// then joins the slot workers.
  ~AppSubmissionService();

  AppSubmissionService(const AppSubmissionService&) = delete;
  AppSubmissionService& operator=(const AppSubmissionService&) = delete;

  /// Optional wiring, set before the first submit():
  /// post-run measurements flow into `manager`'s task-performance DB.
  void set_feedback(SiteManager* manager) { feedback_ = manager; }
  /// Admitted-app load commitments are registered on every added
  /// forecaster (see AppSubmissionConfig::admitted_load_bias).
  void add_forecaster(predict::LoadForecaster* forecaster);
  /// Per-app fault-tolerance hook factory.
  void set_fault_hooks(FaultHookFactory factory) {
    fault_hooks_ = std::move(factory);
  }
  /// Cluster-health probe the failover replanner consults: hosts the
  /// probe reports dead are quarantined (excluded from replacement
  /// placements).  Typically the testbed/chaos liveness probe; unset =
  /// only circuit-breaker quarantine excludes hosts.
  void set_health_probe(std::function<bool(common::HostId)> probe) {
    std::lock_guard lk(mu_);
    health_probe_ = std::move(probe);
  }
  /// D17 quorum verdict feed: the watchdog's on_site_down/on_site_up
  /// hooks mark a whole site dead (its hosts are excluded from
  /// failover replacement placements) or alive again.  Only the
  /// quorum-confirmed verdict should be fed here -- a merely SUSPECT
  /// site keeps its placements.
  void note_site_liveness(common::SiteId site, bool dead);
  /// Sites currently marked dead via note_site_liveness (sorted).
  [[nodiscard]] std::vector<common::SiteId> dead_sites() const;

  /// Schedules + admits one application; thread-safe.  Placement runs
  /// outside the service lock, admission bookkeeping inside it; the
  /// call never waits for execution.  Returns the submission's AppId
  /// ticket; poll status() or block in wait() for the outcome.
  common::AppId submit(SubmissionRequest request);

  /// Batched admission for an arrival burst: every graph is validated
  /// up front (an invalid graph throws before any submission is
  /// recorded), every placement runs outside the lock, and the whole
  /// burst is admitted under ONE lock acquisition against one
  /// residual-capacity snapshot -- semantically identical to calling
  /// submit() in a loop, minus per-submission lock and snapshot churn.
  std::vector<common::AppId> submit_batch(
      std::vector<SubmissionRequest> requests);

  /// Blocks until the submission reaches a terminal state and returns
  /// that snapshot.  Throws NotFoundError for an unknown ticket.
  [[nodiscard]] SubmissionStatus wait(common::AppId app) const;

  /// Non-blocking snapshot.  Throws NotFoundError for an unknown
  /// ticket.
  [[nodiscard]] SubmissionStatus status(common::AppId app) const;

  /// Releases grants on a paused service.
  void resume();

  /// Pauses grants: queued submissions hold until resume().  Running
  /// applications are unaffected.
  void pause();

  /// Shedding tier 3: drops every queued submission with priority
  /// strictly below `below_priority` (their state becomes kRejected
  /// with a "shed" error; charges and ETAs are released).  Running
  /// applications are never touched.  Returns how many were dropped.
  std::size_t shed_queued(
      int below_priority = std::numeric_limits<int>::max());

  /// Blocks until no submission is queued or running.
  void drain() const;

  [[nodiscard]] SubmissionStats stats() const;
  [[nodiscard]] const AppSubmissionConfig& config() const { return config_; }

  /// The service's checkpoint store (tests inspect frontier sizes).
  [[nodiscard]] CheckpointStore& checkpoints() { return checkpoints_; }
  /// The flapping-host circuit breaker.
  [[nodiscard]] HostCircuitBreaker& breaker() { return breaker_; }
  /// The sharded stride queue (tests inspect user/renorm counters).
  [[nodiscard]] FairShareQueue& fair_share() { return queue_; }

 private:
  struct AppRecord;
  /// Compact remnant of a retired terminal record.
  struct RetiredStub {
    SubmissionState state = SubmissionState::kCompleted;
    std::uint32_t grant_index = 0;
    std::uint32_t restarts = 0;
  };
  /// One submission mid-flight through submit_batch's phases.
  struct Prepared;

  void worker_loop();
  /// Site-level failover: quarantine dead/quarantined hosts, re-place
  /// the incomplete subgraph, re-admit through residual-capacity QoS.
  /// Returns false (with `rec.error` set) when no feasible restart
  /// exists; mu_ must NOT be held.
  [[nodiscard]] bool replan_for_restart(AppRecord& rec,
                                        const std::string& why);
  /// Wraps factory-produced hooks with circuit-breaker feeding
  /// (on_failure) and quarantine-aware liveness (host_alive).
  [[nodiscard]] FaultTolerance wrap_hooks(FaultTolerance hooks);
  /// Registers/releases an app's occupancy, forecaster commitments and
  /// pending-prediction (ETA) charge; mu_ must be held.
  void charge_locked(AppRecord& record);
  void release_locked(AppRecord& record);
  /// Marks a queued victim rejected (preempted or shed) and releases
  /// its charges; mu_ must be held.
  void evict_queued_locked(AppRecord& record, std::string reason,
                           std::uint64_t SubmissionStats::*counter,
                           const char* metric);
  /// Retires the oldest terminal records beyond terminal_record_cap
  /// into compact stubs; mu_ must be held.
  void note_terminal_locked(const std::shared_ptr<AppRecord>& record);
  [[nodiscard]] SubmissionStatus snapshot_locked(const AppRecord& rec) const;

  SiteId local_site_;
  sched::SiteDirectory* directory_;
  const tasklib::TaskRegistry* registry_;
  AppSubmissionConfig config_;
  common::Clock* clock_;
  SiteManager* feedback_ = nullptr;
  std::vector<predict::LoadForecaster*> forecasters_;
  FaultHookFactory fault_hooks_;
  std::function<bool(common::HostId)> health_probe_;
  /// Sites quorum-declared dead (note_site_liveness); guarded by mu_.
  std::set<common::SiteId> dead_sites_;
  CheckpointStore checkpoints_;
  HostCircuitBreaker breaker_;
  /// Sharded stride ready queue; all mutations happen under mu_ (its
  /// internal shard locks nest beneath), reads like grant_pass() are
  /// lock-free.
  FairShareQueue queue_;

  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  bool paused_ = false;
  bool shutdown_ = false;
  std::uint32_t next_ticket_ = 1;
  std::uint64_t next_seq_ = 1;
  std::size_t next_grant_ = 1;
  std::size_t running_ = 0;
  /// Queued submissions (queue_.size() mirrors it; this one is the
  /// authority because it only changes under mu_).
  std::size_t queued_count_ = 0;
  /// Sum of predicted makespans over queued + running submissions:
  /// the queue-with-ETA estimate reads this instead of walking every
  /// record (the pre-D15 O(all-records) loop).
  double pending_pred_s_ = 0.0;
  std::map<common::AppId, std::shared_ptr<AppRecord>> records_;
  /// Terminal records in retirement order, plus the compacted stubs.
  std::deque<common::AppId> terminal_fifo_;
  std::unordered_map<common::AppId, RetiredStub> retired_;
  std::deque<common::AppId> retired_fifo_;
  sched::HostOccupancy occupancy_;
  SubmissionStats stats_;
  std::vector<std::jthread> workers_;
};

}  // namespace vdce::rt
