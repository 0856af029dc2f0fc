#include "runtime/streaming.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "datamgr/broker.hpp"
#include "datamgr/frame.hpp"
#include "runtime/checkpoint.hpp"

namespace vdce::rt {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t fnv1a(std::uint64_t h, std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    h ^= static_cast<std::uint64_t>(b);
    h *= 0x100000001B3ull;
  }
  return h;
}

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ull;

}  // namespace

StreamingEngine::StreamingEngine(const tasklib::TaskRegistry& registry,
                                 StreamingConfig config, common::Clock& clock)
    : registry_(&registry), config_(std::move(config)), clock_(&clock) {}

StreamRunResult StreamingEngine::execute(const afg::FlowGraph& graph,
                                         const sched::AllocationTable& alloc,
                                         const FaultTolerance* ft,
                                         common::AppId app,
                                         CheckpointStore* checkpoint) {
  graph.validate();
  if (!app.valid()) app = common::AppId(next_app_.fetch_add(1));
  const bool recovery_on = ft != nullptr && static_cast<bool>(ft->reschedule);
  const bool guarded = ft != nullptr && static_cast<bool>(ft->host_alive);
  const bool windowed = checkpoint != nullptr && config_.checkpoint_window > 0;

  auto& metrics = common::MetricsRegistry::global();
  auto& m_emitted = metrics.counter("streaming.frames_emitted");
  auto& m_skipped = metrics.counter("streaming.frames_skipped");
  auto& m_rolled_back = metrics.counter("streaming.frames_rolled_back");
  auto& m_resumed = metrics.counter("streaming.frames_resumed");
  auto& m_restarts = metrics.counter("streaming.restarts");
  auto& m_windows = metrics.counter("streaming.windows_captured");

  const std::vector<TaskId> topo = graph.topological_order();

  // Stage placements; rewritten between attempts when hosts die.
  std::map<TaskId, HostId> hosts;
  for (const TaskId t : topo) hosts[t] = alloc.entry(t).primary_host();

  // Sink accounting persists ACROSS attempts: a sink whose host
  // survived a mid-stream failure keeps its watermark in memory and
  // skips the re-flowing frames below it.
  struct SinkState {
    SinkStreamResult result;
    bool host_died = false;  // roll back to the durable window
    std::vector<double> latencies_s;  // this sink's latency samples
  };
  std::map<TaskId, SinkState> sinks;
  for (const TaskId t : graph.exit_tasks()) {
    SinkState& st = sinks[t];
    st.result.task = t;
    st.result.label = graph.task(t).label;
    st.result.digest = kFnvOffset;
  }

  // Durable sink-state wire image (the per-window checkpoint payload):
  //   u64 watermark (== frames_emitted)   u64 digest   u64 bytes
  //   u32 retained-output count, then each output length-prefixed.
  const auto encode_sink = [&](const SinkStreamResult& r) {
    const std::uint32_t kept =
        config_.collect_outputs ? static_cast<std::uint32_t>(r.outputs.size())
                                : 0;
    std::size_t size = 3 * 8 + 4;
    for (std::uint32_t i = 0; i < kept; ++i) size += 4 + r.outputs[i].size();
    common::WireWriter w;
    w.reserve(size);
    w.write_u64(r.frames_emitted);
    w.write_u64(r.digest);
    w.write_u64(r.bytes_emitted);
    w.write_u32(kept);
    for (std::uint32_t i = 0; i < kept; ++i) w.write_bytes(r.outputs[i]);
    return dm::FramePool::global().copy_of(w.bytes());
  };
  const auto decode_sink = [](const dm::FrameView& fv, SinkStreamResult& r) {
    common::WireReader rd(fv.bytes());
    r.frames_emitted = rd.read_u64();
    r.digest = rd.read_u64();
    r.bytes_emitted = rd.read_u64();
    r.outputs.clear();
    const std::uint32_t kept = rd.read_u32();
    for (std::uint32_t i = 0; i < kept; ++i) {
      r.outputs.push_back(rd.read_bytes());
    }
  };

  StreamRunResult run;
  run.app = app;
  const auto t_start = Clock::now();

  // Per-frame latency samples: sources stamp frame k's birth in slot
  // k mod N, sinks read it back at emission.  N bounds the frames in
  // flight -- every ring full, every stage holding one, plus one -- so
  // a source never reuses a slot before the sink has read it.
  std::size_t links = 0;
  for (const TaskId t : topo) links += graph.ordered_parents(t).size();
  const std::size_t born_slots =
      links * config_.channel_capacity + topo.size() + 1;
  std::vector<std::atomic<Clock::rep>> born(
      config_.track_latency ? born_slots : 0);

  dm::ChannelBroker broker(dm::TransportKind::kInProcess);
  std::vector<HostId> excluded;
  int attempt = 1;

  for (;;) {
    // ---- resume point: reconcile sink state with the durable windows.
    std::uint64_t resume_k = 0;
    if (windowed || !sinks.empty()) {
      std::uint64_t min_durable = std::numeric_limits<std::uint64_t>::max();
      for (auto& [t, st] : sinks) {
        SinkStreamResult durable;
        durable.task = t;
        durable.label = st.result.label;
        durable.digest = kFnvOffset;
        std::uint64_t captured_windows = st.result.windows_captured;
        std::uint64_t skipped = st.result.frames_skipped;
        std::uint64_t rolled = st.result.frames_rolled_back;
        if (windowed) {
          if (const auto entry = checkpoint->replay(app, t)) {
            decode_sink(entry->frame, durable);
          }
        }
        if (st.host_died) {
          // The sink itself died: its in-memory stream state is gone;
          // restart from the last durable window and re-emit the tail.
          const std::uint64_t lost =
              st.result.frames_emitted - durable.frames_emitted;
          st.result = durable;
          st.result.windows_captured = captured_windows;
          st.result.frames_skipped = skipped;
          st.result.frames_rolled_back = rolled + lost;
          m_rolled_back.add(lost);
          st.host_died = false;
          // The rolled-back frames are emitted again: drop their
          // latency samples, the newest ones.
          const auto drop = std::min<std::size_t>(lost, st.latencies_s.size());
          st.latencies_s.resize(st.latencies_s.size() - drop);
        } else if (durable.frames_emitted > st.result.frames_emitted) {
          // Fresh execute() resuming an app the store already holds.
          st.result = durable;
          st.result.windows_captured = captured_windows;
          st.result.frames_skipped = skipped;
          st.result.frames_rolled_back = rolled;
        }
        min_durable = std::min(min_durable, durable.frames_emitted);
      }
      resume_k = sinks.empty() ? 0 : min_durable;
    }
    if (attempt > 1) {
      run.frames_resumed += resume_k;
      m_resumed.add(resume_k);
      if (resume_k > 0) {
        common::log_info("streaming", "app ", app.value(),
                         ": resuming from checkpoint window at frame ",
                         resume_k);
      }
    }

    // ---- wire the pipeline: one bounded ring per AFG link, consumer
    // ends registered first so the producer claims never block.
    std::map<std::pair<TaskId, TaskId>, std::shared_ptr<dm::RingChannel>>
        rings;
    for (const TaskId t : topo) {
      for (const TaskId p : graph.ordered_parents(t)) {
        rings[{p, t}] = broker.open_stream_receive(
            dm::LinkKey{app, p, t}, config_.channel_capacity);
      }
    }
    for (const auto& [key, ring] : rings) {
      (void)broker.open_stream_send(dm::LinkKey{app, key.first, key.second});
    }

    // ---- first failure wins; everyone else unwinds off the aborted
    // rings.
    std::atomic<bool> failed{false};
    std::mutex fail_mu;
    TaskId failed_task;
    HostId failed_host;
    std::string fail_what;
    const auto report_failure = [&](TaskId t, HostId h,
                                    const std::string& what) {
      {
        std::lock_guard lk(fail_mu);
        if (!failed.load(std::memory_order_relaxed)) {
          failed.store(true, std::memory_order_relaxed);
          failed_task = t;
          failed_host = h;
          fail_what = what;
        }
      }
      broker.clear_app(app);  // abort every ring: unpark the pipeline
    };

    std::mutex tally_mu;  // guards run.stage_frames / run.source_frames

    const auto stage_main = [&](TaskId t) {
      const afg::TaskNode& node = graph.task(t);
      std::vector<std::shared_ptr<dm::RingChannel>> in_rings;
      for (const TaskId p : graph.ordered_parents(t)) {
        in_rings.push_back(rings.at({p, t}));
      }
      std::vector<std::shared_ptr<dm::RingChannel>> out_rings;
      for (const TaskId c : graph.children(t)) {
        out_rings.push_back(rings.at({t, c}));
      }
      const bool is_source = in_rings.empty();
      SinkState* sink = nullptr;
      if (const auto it = sinks.find(t); it != sinks.end()) {
        sink = &it->second;
      }

      std::uint64_t k = resume_k;
      std::uint64_t processed = 0;
      std::vector<tasklib::Payload> inputs;
      inputs.reserve(in_rings.size());
      try {
        for (;;) {
          if (is_source) {
            if (config_.frames != 0 && k >= config_.frames) break;
            if (stop_.load(std::memory_order_relaxed)) break;
          }
          if (guarded && !ft->host_alive(hosts[t])) {
            if (sink != nullptr) sink->host_died = true;
            report_failure(t, hosts[t],
                           "host " + std::to_string(hosts[t].value()) +
                               " died mid-stream");
            return;
          }
          // One window per parent, in input-port order — the same
          // input vector the batch engine would assemble.
          bool eos = false;
          for (const auto& in : in_rings) {
            auto fv = in->pop_for(config_.recv_timeout_s);
            if (!fv) {
              eos = true;
              break;
            }
            // Borrow the popped frame: the payload is that frame.
            inputs.push_back(tasklib::Payload::from_wire(std::move(*fv)));
          }
          if (eos) break;

          tasklib::TaskContext ctx;
          ctx.input_size = node.props.input_size;
          common::Rng rng(
              stream_frame_seed(config_.seed, k) ^
              (static_cast<std::uint64_t>(app.value()) << 32) ^ t.value());
          ctx.rng = &rng;
          tasklib::Payload out =
              registry_->run(node.library_task, inputs, ctx);
          // Release the input frames before a push can park on a full
          // ring, so parked stages pin no more slabs than they must.
          inputs.clear();
          ++processed;

          if (is_source && config_.track_latency) {
            born[k % born.size()].store(
                Clock::now().time_since_epoch().count(),
                std::memory_order_relaxed);
          }
          if (sink != nullptr) {
            SinkStreamResult& r = sink->result;
            if (k < r.frames_emitted) {
              // A frame below the watermark re-flowed after a resume:
              // already counted, never emit twice.
              ++r.frames_skipped;
              m_skipped.add(1);
            } else {
              // The digest runs over the wire image (tag byte, then
              // body) without building it.
              const std::byte tag{static_cast<std::uint8_t>(out.type())};
              r.digest = fnv1a(fnv1a(r.digest, {&tag, 1}), out.bytes());
              r.bytes_emitted += out.wire_size();
              ++r.frames_emitted;
              m_emitted.add(1);
              if (config_.collect_outputs) r.outputs.push_back(out.to_wire());
              if (config_.track_latency) {
                const Clock::time_point birth(Clock::duration(
                    born[k % born.size()].load(std::memory_order_relaxed)));
                sink->latencies_s.push_back(
                    std::chrono::duration<double>(Clock::now() - birth)
                        .count());
              }
              if (config_.on_sink_frame) config_.on_sink_frame(t, k);
              if (windowed &&
                  r.frames_emitted % config_.checkpoint_window == 0) {
                checkpoint->record(
                    app, t,
                    static_cast<int>(r.frames_emitted /
                                     config_.checkpoint_window),
                    hosts[t], encode_sink(r), 0.0);
                ++r.windows_captured;
                m_windows.add(1);
              }
            }
          } else {
            // The output payload is already its pooled frame; fan-out
            // shares the slab by refcount, and a full downstream ring
            // parks us here -- the backpressure that keeps memory flat.
            for (const auto& o : out_rings) o->push(out.wire());
          }
          ++k;
        }
        // Clean end of this stage's stream: retire from every
        // downstream ring so EOS drains through the pipeline.
        for (const auto& o : out_rings) o->close_send();
      } catch (const common::VdceError& e) {
        // Either this stage genuinely failed (compute threw, receive
        // deadline) or it was unparked off a ring another stage's
        // failure aborted; report_failure keeps only the first cause.
        report_failure(t, hosts[t], e.what());
      }
      std::lock_guard lk(tally_mu);
      run.stage_frames[t] += processed;
      if (is_source) run.source_frames += processed;
    };

    std::vector<std::thread> stages;
    stages.reserve(topo.size());
    for (const TaskId t : topo) stages.emplace_back(stage_main, t);
    for (std::thread& th : stages) th.join();

    for (const auto& [key, ring] : rings) {
      const dm::RingChannelStats rs = ring->stats();
      run.max_ring_occupancy = std::max(run.max_ring_occupancy, rs.high_water);
      run.producer_parks += rs.producer_parks;
    }

    if (!failed.load(std::memory_order_relaxed)) {
      broker.clear_app(app);  // drop the drained registrations
      break;
    }

    const std::string failed_label = graph.task(failed_task).label;
    if (!recovery_on || attempt >= config_.max_attempts) {
      run.elapsed_s =
          std::chrono::duration<double>(Clock::now() - t_start).count();
      throw common::StateError("streaming task '" + failed_label +
                               "' failed: " + fail_what);
    }
    if (ft->on_failure) {
      RescheduleRequest req;
      req.app = app;
      req.task = failed_task;
      req.host = failed_host;
      req.kind = RescheduleRequest::Kind::kHostFailure;
      req.reason = fail_what;
      ft->on_failure(req);
    }
    if (std::find(excluded.begin(), excluded.end(), failed_host) ==
        excluded.end()) {
      excluded.push_back(failed_host);
    }
    // Re-place every stage stranded on a dead host (the failing one,
    // plus any other casualty of the same fault window).
    for (auto& [t, h] : hosts) {
      const bool dead = guarded ? !ft->host_alive(h) : h == failed_host;
      if (!dead) continue;
      if (std::find(excluded.begin(), excluded.end(), h) == excluded.end()) {
        excluded.push_back(h);
      }
      const auto replacement = ft->reschedule(graph.task(t), excluded);
      if (!replacement) {
        run.elapsed_s =
            std::chrono::duration<double>(Clock::now() - t_start).count();
        throw common::StateError("no feasible host left for streaming task '" +
                                 graph.task(t).label + "'");
      }
      h = replacement->primary_host();
      ++run.reschedules;
    }
    if (config_.retry_backoff_s > 0.0) {
      clock_->sleep_for(config_.retry_backoff_s);
    }
    ++attempt;
    ++run.restarts;
    m_restarts.add(1);
    common::log_info("streaming", "app ", app.value(), ": stage '",
                     failed_label, "' failed (", fail_what, "); restarting (",
                     attempt, "/", config_.max_attempts, ")");
  }

  for (auto& [t, st] : sinks) {
    run.sinks[t] = st.result;
    run.sink_latencies_s.insert(run.sink_latencies_s.end(),
                                st.latencies_s.begin(), st.latencies_s.end());
  }
  run.elapsed_s =
      std::chrono::duration<double>(Clock::now() - t_start).count();
  return run;
}

}  // namespace vdce::rt
