// Streaming execution: long-lived stages, bounded channels, windowed
// checkpoints (DESIGN.md D16).
//
// The batch ExecutionEngine runs an AFG as a gang: every task fires
// once, the gang completes, the run is over.  The paper's C3I tracking
// scenario has no such end — frames arrive forever — so the
// StreamingEngine runs the SAME graph in a different shape:
//
//   * every task becomes a long-lived stage thread that maps one input
//     window to one output window per iteration (tasklib functions are
//     per-frame pure, so a stream is just repeated invocation);
//   * every AFG link becomes a bounded dm::RingChannel registered
//     through the run's ChannelBroker: a fast producer parks when the
//     ring fills (backpressure) instead of buffering without limit, so
//     memory stays flat however long the stream runs;
//   * there is no gang-completes barrier.  Sources emit frame windows
//     until the configured frame count (or request_stop()), then close
//     their rings; end-of-stream drains through the pipeline stage by
//     stage.
//
// Determinism is per FRAME, extending the batch engine's per-task rule:
// frame k of task t computes with Rng seed
//
//     stream_frame_seed(seed, k) ^ (app << 32) ^ t
//
// which for frame k equals a batch run configured with
// EngineConfig.seed = stream_frame_seed(seed, k) and the same app id.
// A finite stream of N frames is therefore bit-identical to N batch
// runs — the differential wall in tests/streaming_test.cpp pins this.
//
// Fault tolerance is windowed: every sink durably captures its stream
// state (watermark, digest, byte count) into the rt::CheckpointStore
// once per checkpoint_window emitted frames, keyed by the window index
// in the store's attempt slot (higher window replaces, same window is
// idempotent — the frames are bit-fixed anyway).  When a stage's host
// dies mid-stream, the failing stage aborts the run's rings through
// ChannelBroker::clear_app (waking every parked producer and
// consumer), dead hosts are re-placed through the FaultTolerance
// rescheduler, and the stream RESUMES from the smallest durable sink
// watermark rather than replaying from frame zero.  Sinks that
// survived keep their in-memory state and skip the re-flowing frames
// below their watermark, so every frame is counted into the sink
// exactly once; a sink whose own host died rolls back to its last
// durable window.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "afg/graph.hpp"
#include "runtime/engine.hpp"
#include "scheduler/allocation.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {

class CheckpointStore;

/// Streaming-run configuration.
struct StreamingConfig {
  /// Base seed; frame k of the stream derives stream_frame_seed(seed, k).
  std::uint64_t seed = 1;
  /// Ring capacity of every link, in frames.  The whole pipeline's
  /// buffered memory is bounded by links * capacity * frame size.
  std::size_t channel_capacity = 8;
  /// Total frames each source emits; 0 = stream until request_stop().
  std::uint64_t frames = 0;
  /// Sink frames between durable checkpoint captures (0 disables
  /// windowed capture even when a store is supplied).
  std::uint64_t checkpoint_window = 16;
  /// Retain every sink output wire image in the result (differential
  /// tests; leave off for long streams).
  bool collect_outputs = false;
  /// Record per-frame source-to-sink latency samples in the result.
  bool track_latency = false;
  /// Total stream attempts (first run included) when fault-tolerance
  /// hooks are supplied.
  int max_attempts = 3;
  /// Ring receive deadline so a dead upstream cannot park a stage
  /// forever.  <= 0 blocks indefinitely.
  double recv_timeout_s = 30.0;
  /// Sleep before a restart attempt, seconds, on the engine's clock
  /// (a VirtualClock makes it cost no wall-clock).
  double retry_backoff_s = 0.01;
  /// Test/bench hook, fired after a sink counts frame k (never for
  /// skipped duplicates).  Called from the sink's stage thread.
  std::function<void(TaskId sink, std::uint64_t k)> on_sink_frame;
};

/// One sink's stream accounting.
struct SinkStreamResult {
  TaskId task;
  std::string label;
  /// Frames counted into this sink, each exactly once.
  std::uint64_t frames_emitted = 0;
  /// Duplicate frames skipped below the watermark after a resume.
  std::uint64_t frames_skipped = 0;
  /// Emitted frames rolled back to the durable window because the
  /// sink's own host died (re-emitted on resume).
  std::uint64_t frames_rolled_back = 0;
  /// Total wire bytes of emitted sink outputs.
  std::uint64_t bytes_emitted = 0;
  /// FNV-1a over the emitted output wire images, in frame order.
  std::uint64_t digest = 0;
  /// Durable checkpoint windows captured.
  std::uint64_t windows_captured = 0;
  /// Emitted output wire images (only when collect_outputs).
  std::vector<std::vector<std::byte>> outputs;
};

/// Result of one streaming run.
struct StreamRunResult {
  common::AppId app;
  /// Per-sink accounting, keyed by (exit) task id.
  std::map<TaskId, SinkStreamResult> sinks;
  /// Frames each stage processed, summed across attempts.
  std::map<TaskId, std::uint64_t> stage_frames;
  /// Frames the sources produced, summed across attempts.
  std::uint64_t source_frames = 0;
  /// Sum over restarts of the resume watermark (frames NOT replayed
  /// from zero thanks to the windowed checkpoints).
  std::uint64_t frames_resumed = 0;
  /// Stream restarts after a mid-stream failure.
  int restarts = 0;
  /// Successful re-placements of dead stages.
  std::size_t reschedules = 0;
  Duration elapsed_s = 0.0;
  /// Highest ring occupancy observed on any link (bounded-memory
  /// witness: never exceeds channel_capacity).
  std::size_t max_ring_occupancy = 0;
  /// Producer parks summed over links: backpressure at work.
  std::uint64_t producer_parks = 0;
  /// Source-to-sink seconds per emitted frame (when track_latency).
  std::vector<double> sink_latencies_s;
};

/// Per-(stream, frame) seed derivation: frame 0 is the plain seed, so a
/// one-frame stream degenerates to the batch engine's seeding.
[[nodiscard]] constexpr std::uint64_t stream_frame_seed(std::uint64_t seed,
                                                        std::uint64_t k) {
  return seed ^ (k * 0x9E3779B97F4A7C15ull);
}

/// Runs AFGs as continuous pipelines over bounded ring channels.
class StreamingEngine {
 public:
  /// `registry` and `clock` must outlive the engine.  Restart backoff
  /// sleeps on `clock`.
  explicit StreamingEngine(const tasklib::TaskRegistry& registry,
                           StreamingConfig config = {},
                           common::Clock& clock = common::steady_clock());

  /// Streams `graph` per `allocation` until the sources finish.  When
  /// `ft` is given, a stage whose host dies is re-placed and the stream
  /// resumes from the last durable checkpoint window (see file
  /// comment); otherwise a mid-stream failure throws after every stage
  /// is unparked and joined.  `app` names the run (invalid draws from
  /// the engine's counter); `checkpoint`, when given with a nonzero
  /// checkpoint_window, turns on windowed sink capture and resume.
  [[nodiscard]] StreamRunResult execute(
      const afg::FlowGraph& graph, const sched::AllocationTable& allocation,
      const FaultTolerance* ft = nullptr, common::AppId app = {},
      CheckpointStore* checkpoint = nullptr);

  /// Asks every source of every in-flight run to finish its current
  /// frame and close the stream (the unbounded-stream off switch).
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

 private:
  const tasklib::TaskRegistry* registry_;
  StreamingConfig config_;
  common::Clock* clock_;
  std::atomic<bool> stop_{false};
  std::atomic<std::uint32_t> next_app_{1};
};

}  // namespace vdce::rt
