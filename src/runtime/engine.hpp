// The real-threaded execution engine: Figure 7 end-to-end.
//
// Every task of a scheduled application runs on its own thread (the
// stand-in for its assigned machine), with a full Figure 7 lifecycle:
//
//   1. the engine (as Site Manager / Group Manager) delivers the
//      execution request to each task's Application Controller;
//   2. each controller activates its Data Manager, which sets up its
//      communication channels through the broker and acknowledges;
//   3. when every acknowledgment has arrived the engine issues the
//      execution startup signal;
//   4. tasks exchange payloads over the configured transport
//      (in-process queues or real TCP loopback sockets) using the
//      configured message-passing library facade;
//   5. measured execution times flow back into the task-performance
//      database via the Site Manager.
//
// Fault tolerance (Section 2.3's "monitors the resources for possible
// failures"): when a FaultTolerance hook set is supplied, a failed or
// guard-refused task is not fatal.  The engine plays the Control
// Manager: it reports the failure, asks the Site Scheduler for a
// replacement placement with the failed host excluded, and re-runs the
// task — pre-compute refusals retry inside the gang (channels intact);
// post-failure recovery re-opens the task's channels and replays its
// recorded inputs.  Retries are bounded by max_attempts with
// exponential backoff, and receive/attempt timeouts keep a dead peer
// from hanging a machine thread forever.
#pragma once

#include <atomic>
#include <limits>
#include <map>
#include <optional>

#include "afg/graph.hpp"
#include "common/clock.hpp"
#include "datamgr/broker.hpp"
#include "runtime/app_controller.hpp"
#include "runtime/site_manager.hpp"
#include "scheduler/allocation.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {

class CheckpointStore;

/// Timing/traffic record of one executed task.
struct TaskRunRecord {
  TaskId task;
  std::string label;
  std::string library_task;
  /// The host that finally ran the task (the replacement after a
  /// recovery, not the originally allocated machine).
  HostId host;
  /// Wall-clock seconds from the startup signal to task completion
  /// (includes waiting for inputs, and for recovered tasks every failed
  /// attempt plus backoff before the one that succeeded).
  Duration turnaround_s = 0.0;
  /// Compute-phase seconds only.
  Duration compute_s = 0.0;
  std::size_t bytes_sent = 0;
  std::size_t bytes_received = 0;
  /// Execution attempts consumed (1 = succeeded first try).
  int attempts = 1;
  /// True when the task was not executed at all: its recorded output
  /// was replayed from a checkpoint (attempts then counts the attempts
  /// the *capturing* run consumed).
  bool replayed = false;
};

/// Result of one application run.
struct RunResult {
  common::AppId app;
  /// Output payload of every task (keyed by task id); exit-task entries
  /// are the application's results.
  std::map<TaskId, tasklib::Payload> outputs;
  std::vector<TaskRunRecord> records;
  /// Wall-clock seconds from the startup signal to the last completion.
  Duration makespan_s = 0.0;
  /// Tasks that needed more than one attempt but still completed.
  std::size_t failures_recovered = 0;
  /// Successful re-placements (task moved to a different machine).
  std::size_t reschedules = 0;
  /// Tasks whose outputs were replayed from a checkpoint instead of
  /// being re-executed (site-level failover resumes, DESIGN.md D12).
  std::size_t tasks_replayed = 0;
};

/// Engine configuration.
struct EngineConfig {
  dm::TransportKind transport = dm::TransportKind::kInProcess;
  dm::MpLibrary library = dm::MpLibrary::kP4;
  /// Seed for per-task deterministic RNGs.
  std::uint64_t seed = 1;
  /// Fault-tolerance retry budget per task (total attempts, first run
  /// included).  Only consulted when execute() is given hooks.
  int max_attempts = 3;
  /// Sleep before the first retry, seconds; doubles-ish per retry.
  double retry_backoff_s = 0.01;
  double retry_backoff_multiplier = 2.0;
  /// Jitter fraction applied to every backoff nap so simultaneous
  /// retries (a whole gang refused by one dead host) do not stampede
  /// the rescheduler in lockstep.  The jitter draw is seeded from
  /// (engine seed, app, task, attempt) -- never from global state --
  /// so a replay with the same seed is bit-identical through recovery.
  /// 0 disables jitter.
  double retry_backoff_jitter = 0.5;
  /// Cap on the CUMULATIVE backoff slept for one task across all of its
  /// retries (gang and recovery rounds combined).  In-gang retries
  /// sleep on the task's machine thread, which stalls gang peers
  /// blocked on its channels -- the cap bounds that stall however the
  /// backoff schedule is configured.  <= 0 disables backoff entirely.
  double max_total_backoff_s = 2.0;
  /// Wall-clock cap on one recovery attempt; an attempt that neither
  /// completes nor fails within this window is shut down and counted as
  /// failed.  <= 0 disables the cap.
  double attempt_timeout_s = 30.0;
  /// Data Manager receive timeout armed when fault tolerance is on, so
  /// a dead peer cannot hang a machine thread.  <= 0 blocks forever.
  double recv_timeout_s = 60.0;
  /// Load-guard threshold applied to every task when the hooks provide
  /// a host_load probe (infinity = guard disabled).
  double load_threshold = std::numeric_limits<double>::infinity();
};

/// The Control Manager's hooks into the live execution path.  All
/// callables may be invoked concurrently from machine threads and must
/// be thread-safe.  Any member may be empty; `reschedule` empty turns
/// recovery off (failures become fatal as without hooks).
struct FaultTolerance {
  /// Asks the Site Scheduler for a replacement placement of one task
  /// with the given hosts excluded (SiteScheduler::reschedule).
  /// Returns std::nullopt when no feasible host remains.
  using Rescheduler = std::function<std::optional<sched::AllocationEntry>(
      const afg::TaskNode&, const std::vector<HostId>&)>;

  Rescheduler reschedule;
  /// Liveness probe (testbed fault windows or Group-Manager belief);
  /// also installed as every controller's fault guard.
  std::function<bool(HostId)> host_alive;
  /// Load probe backing the pre-compute load guard.
  std::function<double(HostId)> host_load;
  /// Failure notification, fired once per failed attempt before the
  /// re-placement is requested (wire to
  /// ControlManager::report_task_failure so the repository learns the
  /// host is down).
  std::function<void(const RescheduleRequest&)> on_failure;
};

/// Executes scheduled applications with real threads and channels.
class ExecutionEngine {
 public:
  /// `registry` and `clock` must outlive the engine.  Retry-backoff
  /// naps sleep on `clock`: tests and simulations pass a VirtualClock
  /// so retries cost no wall-clock.
  explicit ExecutionEngine(const tasklib::TaskRegistry& registry,
                           EngineConfig config = {},
                           common::Clock& clock = common::steady_clock());

  /// Runs `graph` per `allocation`.  When `feedback` is given, measured
  /// compute times are stored into its task-performance database.
  /// `console`, when given, is honoured by every task's compute phase.
  /// When `ft` is given, failed or refused tasks are re-placed and
  /// retried per the config's retry budget before giving up.  Throws
  /// StateError (with the failing task named) if any task ultimately
  /// fails; all other tasks are unblocked and joined first.
  ///
  /// Re-entrant: concurrent execute() calls on one engine are safe --
  /// every run owns its broker, controllers and machine threads, and
  /// app-id assignment is atomic.  `app`, when valid, names the run
  /// explicitly (the submission service keys runs by its own tickets,
  /// and a replay with the same app id reproduces the same per-task
  /// RNG seeds); when invalid an id is drawn from the engine's counter.
  ///
  /// `checkpoint`, when given, turns on checkpoint/restart semantics:
  /// every task completion is captured into the store (even when the
  /// run ultimately throws), and tasks the store already holds for
  /// `app` are NOT re-executed -- their recorded frames are replayed
  /// into the fresh broker so successor tasks receive bit-identical
  /// inputs (DESIGN.md D12).
  [[nodiscard]] RunResult execute(const afg::FlowGraph& graph,
                                  const sched::AllocationTable& allocation,
                                  SiteManager* feedback = nullptr,
                                  dm::ConsoleService* console = nullptr,
                                  const FaultTolerance* ft = nullptr,
                                  common::AppId app = {},
                                  CheckpointStore* checkpoint = nullptr);

 private:
  const tasklib::TaskRegistry* registry_;
  EngineConfig config_;
  common::Clock* clock_;
  /// Atomic: concurrent execute() calls must never share an app id
  /// (broker link keys and per-task seeds are derived from it).
  std::atomic<std::uint32_t> next_app_{1};
};

}  // namespace vdce::rt
