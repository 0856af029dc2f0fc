#include "runtime/engine.hpp"

#include <chrono>
#include <cmath>
#include <latch>
#include <semaphore>
#include <thread>
#include <unordered_map>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/trace.hpp"
#include "datamgr/mplib.hpp"
#include "runtime/checkpoint.hpp"

namespace vdce::rt {

namespace {

/// Message tag of inter-task payload frames; must match the Data
/// Manager's payload tag so replayed inputs are indistinguishable from
/// live ones.
constexpr int kPayloadTag = 7;

std::chrono::duration<double> seconds(double s) {
  return std::chrono::duration<double>(s);
}

std::string hosts_csv(const std::vector<common::HostId>& hosts) {
  std::string out;
  for (const common::HostId h : hosts) {
    if (!out.empty()) out += ',';
    out += std::to_string(h.value());
  }
  return out;
}

}  // namespace

ExecutionEngine::ExecutionEngine(const tasklib::TaskRegistry& registry,
                                 EngineConfig config, common::Clock& clock)
    : registry_(&registry), config_(config), clock_(&clock) {}

RunResult ExecutionEngine::execute(const afg::FlowGraph& graph,
                                   const sched::AllocationTable& allocation,
                                   SiteManager* feedback,
                                   dm::ConsoleService* console,
                                   const FaultTolerance* ft,
                                   common::AppId app,
                                   CheckpointStore* checkpoint) {
  graph.validate();
  for (const afg::TaskNode& node : graph.tasks()) {
    if (!allocation.contains(node.id)) {
      throw common::StateError("allocation table misses task " + node.label);
    }
  }

  if (!app.valid()) {
    app = common::AppId{
        next_app_.fetch_add(1, std::memory_order_relaxed)};
  }
  dm::ChannelBroker broker(config_.transport);

  common::ScopedSpan app_span("execute", "engine");
  if (app_span.active()) {
    app_span.rename("app:" + graph.name());
    app_span.arg("app", app.value());
    app_span.arg("tasks", graph.task_count());
  }
  auto& metrics = common::MetricsRegistry::global();
  common::Counter& m_tasks = metrics.counter("engine.tasks_completed");
  common::Counter& m_attempts = metrics.counter("engine.attempts");
  common::Counter& m_retries = metrics.counter("engine.retries");
  common::Counter& m_reschedules = metrics.counter("engine.reschedules");
  common::Counter& m_recovered =
      metrics.counter("engine.failures_recovered");
  common::Histogram& m_turnaround =
      metrics.histogram("engine.turnaround_s");
  common::Counter& m_ckpt_captured =
      metrics.counter("engine.checkpoint.captured");
  common::Counter& m_ckpt_replayed =
      metrics.counter("engine.checkpoint.replayed");
  common::Counter& m_ckpt_bytes =
      metrics.counter("engine.checkpoint.bytes_captured");

  const bool recovery_on = ft != nullptr && ft->reschedule != nullptr;
  const bool load_guarded =
      ft != nullptr && ft->host_load != nullptr &&
      std::isfinite(config_.load_threshold);

  struct Slot {
    const afg::TaskNode* node = nullptr;
    HostId host;
    TaskOutcome outcome;
    Duration turnaround_s = 0.0;
    std::string error;
    int attempts = 1;
    bool had_failure = false;   // at least one attempt did not complete
    bool replayed = false;      // restored from a checkpoint, never ran
    std::size_t moves = 0;      // successful re-placements
    std::vector<HostId> excluded;  // hosts this task must avoid
    double backoff_spent_s = 0.0;  // cumulative backoff slept so far
  };
  std::vector<Slot> slots(graph.task_count());
  {
    std::size_t i = 0;
    for (const afg::TaskNode& node : graph.tasks()) {
      slots[i].node = &node;
      slots[i].host = allocation.entry(node.id).primary_host();
      ++i;
    }
  }
  std::unordered_map<TaskId, std::size_t> slot_of;
  slot_of.reserve(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    slot_of.emplace(slots[i].node->id, i);
  }

  // Checkpoint restore: tasks the store already holds for this app are
  // not executed again.  Their recorded frames are replayed into the
  // fresh broker below, so successor tasks receive inputs bit-identical
  // to the capturing run's live sends.
  std::size_t live_count = slots.size();
  if (checkpoint != nullptr) {
    for (Slot& slot : slots) {
      auto entry = checkpoint->replay(app, slot.node->id);
      if (!entry) continue;
      slot.replayed = true;
      slot.host = entry->host;
      slot.attempts = entry->attempt;
      slot.outcome.completed = true;
      slot.outcome.compute_elapsed_s = entry->compute_s;
      // The payload pins the recorded frame: replay feeders send it
      // zero-copy, and a re-capture below shares the same slab.
      slot.outcome.payload =
          tasklib::Payload::from_wire(std::move(entry->frame));
      --live_count;
    }
    if (live_count != slots.size()) {
      m_ckpt_replayed.add(slots.size() - live_count);
      common::log_info("engine", "app ", app.value(), ": restored ",
                       slots.size() - live_count, "/", slots.size(),
                       " tasks from checkpoint");
      if (common::trace_enabled()) {
        common::trace_instant(
            "checkpoint_restore", "engine",
            {{"app", std::to_string(app.value())},
             {"tasks", std::to_string(slots.size() - live_count)}});
      }
    }
  }

  std::latch setup_acks(static_cast<std::ptrdiff_t>(live_count));
  std::latch start_signal(1);           // Figure 7 step 5

  // Deterministic per-task RNG seed: recovery attempts reuse it, so a
  // re-placed task produces the same output the original would have.
  const auto task_seed = [&](TaskId task) {
    return config_.seed ^
           (static_cast<std::uint64_t>(app.value()) << 32) ^ task.value();
  };

  // One retry-backoff nap: jittered so lockstep retries de-correlate,
  // clamped so the task's CUMULATIVE backoff never exceeds
  // max_total_backoff_s (an in-gang sleep stalls every peer blocked on
  // this task's channels), slept on the engine's clock (tests sleep
  // virtually), and advanced for the next round.  `backoff` is the
  // caller's current-round duration.  The jitter draw is seeded from
  // (engine seed, app, task, attempt) -- never from implicit global
  // state -- so a replay with the same seed sleeps the exact same
  // schedule through recovery.
  const auto backoff_sleep = [&](Slot& slot, double& backoff) {
    double nap = 0.0;
    if (config_.max_total_backoff_s > 0.0) {
      double jittered = backoff;
      if (config_.retry_backoff_jitter > 0.0) {
        common::Rng jitter_rng(
            task_seed(slot.node->id) ^
            (0xC4CEB9FE1A85EC53ull *
             static_cast<std::uint64_t>(slot.attempts)));
        jittered *= 1.0 + config_.retry_backoff_jitter *
                              (jitter_rng.uniform() - 0.5);
      }
      nap = std::min(jittered,
                     config_.max_total_backoff_s - slot.backoff_spent_s);
    }
    if (nap > 0.0) {
      if (common::trace_enabled()) {
        common::trace_instant(
            "retry_backoff", "engine",
            {{"task", slot.node->label}, {"sleep_s", std::to_string(nap)}});
      }
      clock_->sleep_for(nap);
      slot.backoff_spent_s += nap;
    }
    backoff *= config_.retry_backoff_multiplier;
  };

  // Controllers must outlive the worker threads.
  std::vector<ApplicationController> controllers;
  controllers.reserve(graph.task_count());
  for (const Slot& slot : slots) {
    controllers.emplace_back(broker, config_.library, app, slot.host);
  }
  const auto arm_guards = [&](ApplicationController& controller,
                              HostId host) {
    if (ft == nullptr) return;
    if (config_.recv_timeout_s > 0.0) {
      controller.set_recv_timeout(config_.recv_timeout_s);
    }
    if (ft->host_alive) controller.set_fault_guard(ft->host_alive);
    if (load_guarded) {
      controller.set_load_guard([probe = ft->host_load, host] {
        return probe(host);
      }, config_.load_threshold);
    }
  };
  for (std::size_t i = 0; i < slots.size(); ++i) {
    arm_guards(controllers[i], slots[i].host);
  }

  common::log_info("engine", "app ", app.value(), " '", graph.name(),
                   "': delivering execution requests to ", live_count,
                   " tasks");

  std::chrono::steady_clock::time_point gang_start;
  {
    // Checkpoint replay threads stand in for the completed tasks'
    // machines: feeders push each restored frame into every live
    // consumer's re-opened channel (indistinguishable from the live
    // send), and drainers absorb live producers' sends into completed
    // consumers so no send thread blocks on a task that will never run.
    // Declared before `machines` so they join last: a drainer can only
    // unblock once the producing machine closed its channels.
    std::vector<std::jthread> replayers;
    const double drain_timeout_s =
        config_.recv_timeout_s > 0.0 ? config_.recv_timeout_s : 60.0;
    for (const Slot& slot : slots) {
      if (!slot.replayed) continue;
      const TaskId done = slot.node->id;
      for (const TaskId child : graph.children(done)) {
        if (slots[slot_of.at(child)].replayed) continue;
        replayers.emplace_back([&, done, child] {
          try {
            dm::MessageEndpoint out(
                config_.library,
                broker.open_send(dm::LinkKey{app, done, child}));
            const Slot& src = slots[slot_of.at(done)];
            out.send_frame(kPayloadTag, src.outcome.payload.wire());
            out.close();
          } catch (const std::exception&) {
            // The consuming task's own receive error is authoritative.
          }
        });
      }
      for (const TaskId parent : graph.parents(done)) {
        if (slots[slot_of.at(parent)].replayed) continue;
        replayers.emplace_back([&, parent, done] {
          try {
            dm::MessageEndpoint in(
                config_.library,
                broker.open_receive(dm::LinkKey{app, parent, done}));
            while (in.receive_for(drain_timeout_s).has_value()) {
            }
            in.close();
          } catch (const std::exception&) {
            // The producing task's own send error is authoritative.
          }
        });
      }
    }

    std::vector<std::jthread> machines;
    machines.reserve(live_count);
    for (std::size_t i = 0; i < slots.size(); ++i) {
      if (slots[i].replayed) continue;
      machines.emplace_back([&, i] {
        Slot& slot = slots[i];
        ApplicationController& controller = controllers[i];
        // One acknowledgment per machine: the latch must be counted
        // down exactly once whether activate() succeeds, activate()
        // throws, or a later phase throws.
        bool acked = false;
        try {
          dm::TaskWiring wiring;
          wiring.app = app;
          wiring.task = slot.node->id;
          wiring.parents = graph.ordered_parents(slot.node->id);
          wiring.children = graph.children(slot.node->id);
          {
            common::ScopedSpan setup_span("channel_setup", "engine");
            if (setup_span.active()) {
              setup_span.arg("task", slot.node->label);
              setup_span.arg("host", slot.host.value());
            }
            controller.activate(wiring);  // channel setup + ack
          }
          setup_acks.count_down();
          acked = true;

          start_signal.wait();  // the execution startup signal

          const auto t0 = std::chrono::steady_clock::now();
          tasklib::TaskContext ctx;
          ctx.input_size = slot.node->props.input_size;
          common::Rng rng(task_seed(slot.node->id));
          ctx.rng = &rng;

          // Pre-compute guard refusals (host dead, load above the
          // threshold) happen before any channel is consumed, so the
          // supervised retry runs right here inside the gang: report,
          // re-place with the refusing host excluded, rebind, re-run.
          double backoff = config_.retry_backoff_s;
          for (;;) {
            {
              common::ScopedSpan attempt_span("attempt", "engine.task");
              if (attempt_span.active()) {
                attempt_span.rename("task:" + slot.node->label);
                attempt_span.arg("app", app.value());
                attempt_span.arg("host", controller.host().value());
                attempt_span.arg("attempt", slot.attempts);
                if (!slot.excluded.empty()) {
                  attempt_span.arg("excluded", hosts_csv(slot.excluded));
                }
              }
              slot.outcome = controller.execute(
                  *registry_, slot.node->library_task, ctx, console);
              if (attempt_span.active()) {
                attempt_span.arg("outcome", slot.outcome.reschedule
                                                ? "refused"
                                                : "completed");
              }
            }
            if (!slot.outcome.reschedule) break;
            if (!recovery_on || slot.attempts >= config_.max_attempts) {
              break;  // refusal stands; reported after the join
            }
            if (ft->on_failure) ft->on_failure(*slot.outcome.reschedule);
            slot.excluded.push_back(controller.host());
            const auto replacement =
                ft->reschedule(*slot.node, slot.excluded);
            if (!replacement) break;  // nowhere left to go
            ++slot.attempts;
            slot.had_failure = true;
            ++slot.moves;
            slot.host = replacement->primary_host();
            controller.rebind_host(slot.host);
            if (load_guarded) {
              controller.set_load_guard(
                  [probe = ft->host_load, host = slot.host] {
                    return probe(host);
                  },
                  config_.load_threshold);
            }
            common::log_info("engine", "app ", app.value(), " task ",
                             slot.node->label, " re-placed on host ",
                             slot.host.value(), " (attempt ",
                             slot.attempts, ")");
            if (common::trace_enabled()) {
              common::trace_instant(
                  "re_placed", "engine",
                  {{"task", slot.node->label},
                   {"host", std::to_string(slot.host.value())},
                   {"excluded", hosts_csv(slot.excluded)}});
            }
            backoff_sleep(slot, backoff);
          }
          slot.turnaround_s = std::chrono::duration<double>(
                                  std::chrono::steady_clock::now() - t0)
                                  .count();
          controller.shutdown();
        } catch (const std::exception& e) {
          slot.error = e.what();
          // Unblock peers: close this task's channels, then make sure
          // the barrier protocol cannot deadlock the other machines.
          controller.shutdown();
          if (!acked) setup_acks.count_down();
        }
      });
    }

    // "When all the required acknowledgments are received an execution
    // startup signal is sent to start the application execution."
    setup_acks.wait();
    common::log_info("engine", "app ", app.value(),
                     ": all channel-setup acks received; sending startup "
                     "signal");
    gang_start = std::chrono::steady_clock::now();
    start_signal.count_down();
  }  // join all machine threads

  // Supervised recovery of tasks that *failed* mid-gang (task error or
  // transport collapse, including the cascade a failure inflicts on its
  // consumers).  Processed in topological order so a recovered parent's
  // recorded output is available to replay into its retried children.
  if (recovery_on) {
    for (const TaskId task : graph.topological_order()) {
      Slot& slot = slots[slot_of.at(task)];
      if (slot.error.empty()) continue;

      // A child can only be replayed from completed parent outputs.
      bool parents_ok = true;
      for (const TaskId parent : graph.parents(task)) {
        const Slot& ps = slots[slot_of.at(parent)];
        if (!ps.error.empty() || !ps.outcome.completed) {
          parents_ok = false;
          break;
        }
      }
      if (!parents_ok) continue;  // the parent's own error is reported

      double backoff = config_.retry_backoff_s;
      // A guard refusal during recovery arrives pre-classified; other
      // failures are classified by probing the host.
      std::optional<RescheduleRequest> pending;
      while (!slot.error.empty() &&
             slot.attempts < config_.max_attempts) {
        // Report the failure we just observed; an unusable host (dead,
        // or refusing on load) is excluded and the task re-placed, a
        // live host gets an in-place retry (the error may have been
        // transient).
        RescheduleRequest report;
        if (pending) {
          report = *pending;
          pending.reset();
        } else {
          report.app = app;
          report.task = task;
          report.host = slot.host;
          const bool dead =
              ft->host_alive != nullptr && !ft->host_alive(slot.host);
          report.kind = dead ? RescheduleRequest::Kind::kHostFailure
                             : RescheduleRequest::Kind::kTaskError;
          report.reason = slot.error;
        }
        if (ft->on_failure) ft->on_failure(report);
        if (report.kind != RescheduleRequest::Kind::kTaskError) {
          slot.excluded.push_back(slot.host);
          const auto replacement =
              ft->reschedule(*slot.node, slot.excluded);
          if (!replacement) break;  // nowhere left to go
          slot.host = replacement->primary_host();
          ++slot.moves;
        }
        ++slot.attempts;
        slot.had_failure = true;
        backoff_sleep(slot, backoff);
        common::log_info("engine", "app ", app.value(), " task ",
                         slot.node->label, ": recovery attempt ",
                         slot.attempts, " on host ", slot.host.value());

        // Channel teardown/re-setup: drop every stale registration of
        // this application, then re-open the task's inputs fresh.
        broker.clear_app(app);
        ApplicationController retry(broker, config_.library, app,
                                    slot.host);
        arm_guards(retry, slot.host);

        dm::TaskWiring wiring;
        wiring.app = app;
        wiring.task = task;
        wiring.parents = graph.ordered_parents(task);
        // No children: consumers are replayed from this task's recorded
        // output in their own recovery round, never live.

        std::string attempt_error;
        TaskOutcome outcome;
        std::binary_semaphore attempt_done(0);
        std::thread attempt([&] {
          common::ScopedSpan attempt_span("recovery_attempt",
                                          "engine.task");
          if (attempt_span.active()) {
            attempt_span.rename("task:" + slot.node->label);
            attempt_span.arg("app", app.value());
            attempt_span.arg("host", slot.host.value());
            attempt_span.arg("attempt", slot.attempts);
            if (!slot.excluded.empty()) {
              attempt_span.arg("excluded", hosts_csv(slot.excluded));
            }
          }
          try {
            retry.activate(wiring);
            tasklib::TaskContext ctx;
            ctx.input_size = slot.node->props.input_size;
            common::Rng rng(task_seed(task));
            ctx.rng = &rng;
            outcome = retry.execute(*registry_, slot.node->library_task,
                                    ctx, console);
          } catch (const std::exception& e) {
            attempt_error = e.what();
          }
          if (attempt_span.active()) {
            attempt_span.arg("outcome",
                             !attempt_error.empty()  ? "error"
                             : outcome.reschedule    ? "refused"
                                                     : "completed");
          }
          attempt_done.release();
        });

        // Replay the recorded parent outputs into the fresh channels.
        {
          std::vector<std::jthread> feeders;
          feeders.reserve(wiring.parents.size());
          for (const TaskId parent : wiring.parents) {
            feeders.emplace_back([&, parent] {
              try {
                dm::MessageEndpoint out(
                    config_.library,
                    broker.open_send(dm::LinkKey{app, parent, task}));
                const Slot& src = slots[slot_of.at(parent)];
                out.send_frame(kPayloadTag, src.outcome.payload.wire());
                out.close();
              } catch (const std::exception&) {
                // The attempt's own receive error is authoritative.
              }
            });
          }

          bool finished = true;
          if (config_.attempt_timeout_s > 0.0) {
            finished = attempt_done.try_acquire_for(
                seconds(config_.attempt_timeout_s));
          } else {
            attempt_done.acquire();
          }
          if (!finished) {
            // Per-attempt timeout: close the channels so the attempt
            // unblocks, then record the overrun as this round's error.
            retry.shutdown();
            attempt_done.acquire();
            attempt_error =
                "recovery attempt exceeded " +
                std::to_string(config_.attempt_timeout_s) + "s";
          }
        }  // join feeders
        attempt.join();
        retry.shutdown();

        if (!attempt_error.empty()) {
          slot.error = attempt_error;
          continue;
        }
        if (outcome.reschedule) {
          // Refused again (load/fault guard on the replacement); the
          // next round reports it as-is and re-places the task.
          slot.error = outcome.reschedule->reason;
          pending = *outcome.reschedule;
          continue;
        }
        slot.outcome = std::move(outcome);
        slot.error.clear();
        slot.turnaround_s = std::chrono::duration<double>(
                                std::chrono::steady_clock::now() -
                                gang_start)
                                .count();
        common::log_info("engine", "app ", app.value(), " task ",
                         slot.node->label, " recovered on host ",
                         slot.host.value(), " after ", slot.attempts,
                         " attempts");
        if (common::trace_enabled()) {
          common::trace_instant(
              "recovered", "engine",
              {{"task", slot.node->label},
               {"host", std::to_string(slot.host.value())},
               {"attempts", std::to_string(slot.attempts)}});
        }
      }
    }
  }

  // Checkpoint capture: every completion this run produced is durable
  // BEFORE any failure is reported, so a partially-failed run still
  // advances the completed frontier and a restart re-executes zero
  // finished tasks.
  if (checkpoint != nullptr) {
    for (const Slot& slot : slots) {
      if (slot.replayed || !slot.error.empty() ||
          !slot.outcome.completed || slot.outcome.reschedule) {
        continue;
      }
      // Zero-copy capture: the store pins the very frame the send
      // threads shipped.
      checkpoint->record(app, slot.node->id, slot.attempts, slot.host,
                         slot.outcome.payload,
                         slot.outcome.compute_elapsed_s);
      m_ckpt_bytes.add(slot.outcome.payload.wire_size());
      m_ckpt_captured.add(1);
    }
  }

  for (const Slot& slot : slots) {
    if (!slot.error.empty()) {
      throw common::StateError("task " + slot.node->label +
                               " failed: " + slot.error);
    }
    if (slot.outcome.reschedule) {
      throw common::StateError(
          "task " + slot.node->label +
          " refused by its Application Controller: " +
          slot.outcome.reschedule->reason);
    }
  }

  RunResult result;
  result.app = app;
  for (Slot& slot : slots) {
    TaskRunRecord rec;
    rec.task = slot.node->id;
    rec.label = slot.node->label;
    rec.library_task = slot.node->library_task;
    rec.host = slot.host;
    rec.turnaround_s = slot.turnaround_s;
    rec.compute_s = slot.outcome.compute_elapsed_s;
    rec.bytes_sent = slot.outcome.io_stats.bytes_sent;
    rec.bytes_received = slot.outcome.io_stats.bytes_received;
    rec.attempts = slot.attempts;
    rec.replayed = slot.replayed;
    if (slot.replayed) {
      // Replayed tasks never ran here: no turnaround, no engine.tasks
      // metric, no feedback (the capturing run already recorded its
      // measured compute time into the performance database).
      ++result.tasks_replayed;
    } else {
      result.makespan_s = std::max(result.makespan_s, slot.turnaround_s);
      if (slot.had_failure) ++result.failures_recovered;
      result.reschedules += slot.moves;
      m_tasks.add(1);
      m_attempts.add(static_cast<std::uint64_t>(slot.attempts));
      m_retries.add(static_cast<std::uint64_t>(slot.attempts - 1));
      m_turnaround.observe(slot.turnaround_s);
      if (feedback != nullptr) {
        feedback->record_task_time(slot.node->library_task,
                                   slot.outcome.compute_elapsed_s);
      }
    }
    result.records.push_back(rec);
    result.outputs.emplace(slot.node->id, std::move(slot.outcome.payload));
  }
  m_reschedules.add(result.reschedules);
  m_recovered.add(result.failures_recovered);
  if (app_span.active()) {
    app_span.arg("makespan_s", result.makespan_s);
    app_span.arg("failures_recovered", result.failures_recovered);
    app_span.arg("reschedules", result.reschedules);
    app_span.arg("tasks_replayed", result.tasks_replayed);
  }
  common::log_info("engine", "app ", app.value(), " finished; makespan ",
                   result.makespan_s, "s (", result.failures_recovered,
                   " failures recovered, ", result.reschedules,
                   " reschedules)");
  return result;
}

}  // namespace vdce::rt
