// Application checkpointing: the completed-frontier snapshot.
//
// The paper's Application Scheduler (Figures 4-5) places an AFG once
// and assumes the chosen sites stay reachable for the life of the run;
// the engine's supervised retry (DESIGN.md D9) recovers individual
// attempts, but when no feasible host remains the whole application
// dies and every completed task's work is discarded.  The
// CheckpointStore closes that gap: as the ExecutionEngine records task
// completions it durably captures each finished task's output frame
// (the same wire bytes that flowed through the ChannelBroker), keyed by
// (AppId, task, attempt).  A later run of the same application replays
// the captured frames into a fresh broker, feeding successor tasks
// bit-identical inputs without re-executing finished predecessors --
// the restart half of the site-level failover loop in
// rt::AppSubmissionService (DESIGN.md D12).
//
// Thread-safe: machine threads of one run record concurrently, and a
// restarted run reads while unrelated applications keep writing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <vector>

#include "common/clock.hpp"
#include "common/ids.hpp"
#include "datamgr/frame.hpp"
#include "tasklib/payload.hpp"

namespace vdce::rt {

using common::AppId;
using common::Duration;
using common::HostId;
using common::TaskId;

/// One completed task's durable record.
struct CheckpointEntry {
  TaskId task;
  /// The attempt that produced the output (1 = first try).  A
  /// re-record under a higher attempt replaces the entry; re-recording
  /// the same attempt is idempotent (the frame is already bit-fixed by
  /// the per-task RNG seed).
  int attempt = 1;
  /// The host the completing attempt ran on.
  HostId host;
  /// Wire-encoded output payload, pinned in the frame pool -- since D13
  /// this is a VIEW of the very slab every consumer link carried, so
  /// the capture costs a refcount bump instead of a copy, and the pool
  /// cannot recycle the slab while the store holds the view (the
  /// bit-identity guarantee replay depends on).
  dm::FrameView frame;
  /// Compute-phase seconds of the completing attempt (restored into the
  /// restarted run's records so turnaround accounting survives).
  Duration compute_s = 0.0;
};

/// Store-wide counters (mirrored as engine.checkpoint.* metrics by the
/// engine).  After an application eventually completes,
///   captured(app) == task_count   and
///   replayed(app) == sum over restarts of the frontier size at restart.
struct CheckpointStats {
  std::uint64_t tasks_captured = 0;
  std::uint64_t tasks_replaced = 0;  // re-captures under a higher attempt
  std::uint64_t frames_replayed = 0;
  std::uint64_t bytes_captured = 0;
  std::uint64_t apps_dropped = 0;
};

/// Durable completed-frontier snapshots, one per in-flight application.
class CheckpointStore {
 public:
  /// Captures one finished task's output frame (the wire image, shared
  /// zero-copy with the links that carried it).  Idempotent per (app,
  /// task, attempt); a higher attempt replaces the stored entry.
  void record(AppId app, TaskId task, int attempt, HostId host,
              dm::FrameView frame, Duration compute_s);

  /// Captures a payload: its pooled wire image, pinned by refcount, no
  /// copy.
  void record(AppId app, TaskId task, int attempt, HostId host,
              const tasklib::Payload& output, Duration compute_s);

  /// Whether `task` of `app` has a captured completion.
  [[nodiscard]] bool completed(AppId app, TaskId task) const;

  /// The captured entry, or nullopt.  Returns a copy so the caller may
  /// hold it across concurrent record()/drop_app() calls; counts one
  /// frame replay when found.
  [[nodiscard]] std::optional<CheckpointEntry> replay(AppId app,
                                                      TaskId task) const;

  /// Number of captured completions for `app`.
  [[nodiscard]] std::size_t completed_count(AppId app) const;

  /// The captured task ids of `app`, ascending.
  [[nodiscard]] std::vector<TaskId> completed_tasks(AppId app) const;

  /// Drops an application's snapshot (run finished, or abandoned).
  /// Idempotent.
  void drop_app(AppId app);

  [[nodiscard]] CheckpointStats stats() const;

 private:
  mutable std::mutex mu_;
  std::map<AppId, std::map<TaskId, CheckpointEntry>> apps_;
  mutable CheckpointStats stats_;
};

}  // namespace vdce::rt
