#include "runtime/submission.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"

namespace vdce::rt {

namespace {

[[nodiscard]] bool is_terminal(SubmissionState state) {
  return state == SubmissionState::kCompleted ||
         state == SubmissionState::kRejected ||
         state == SubmissionState::kFailed;
}

void bump(const char* name) {
  common::MetricsRegistry::global().counter(name).add(1);
}

}  // namespace

HostCircuitBreaker::HostCircuitBreaker(CircuitBreakerConfig config,
                                       common::Clock& clock)
    : config_(config), clock_(&clock) {}

void HostCircuitBreaker::set_on_open(
    std::function<void(common::HostId)> callback) {
  std::lock_guard lk(mu_);
  on_open_ = std::move(callback);
}

void HostCircuitBreaker::refresh_locked(Entry& entry, double t) const {
  if (config_.decay_half_life_s > 0.0 && t > entry.updated_at) {
    entry.score *= std::exp2(-(t - entry.updated_at) /
                             config_.decay_half_life_s);
  }
  entry.updated_at = std::max(entry.updated_at, t);
  if (entry.open && entry.score < config_.close_threshold) {
    entry.open = false;
  }
}

bool HostCircuitBreaker::record_failure(common::HostId host) {
  bool opened = false;
  std::function<void(common::HostId)> on_open;
  {
    std::lock_guard lk(mu_);
    if (!config_.enabled) return false;
    Entry& entry = entries_[host];
    refresh_locked(entry, clock_->now());
    entry.score += 1.0;
    if (!entry.open && entry.score >= config_.open_threshold) {
      entry.open = true;
      opened = true;
      trips_.fetch_add(1, std::memory_order_relaxed);
      on_open = on_open_;
    }
  }
  // Outside the lock: the callback takes the service lock (counter and
  // forecaster bookkeeping) and the service lock may be held while
  // consulting quarantined().
  if (opened && on_open) on_open(host);
  return opened;
}

bool HostCircuitBreaker::quarantined(common::HostId host) {
  std::lock_guard lk(mu_);
  if (!config_.enabled) return false;
  const auto it = entries_.find(host);
  if (it == entries_.end()) return false;
  refresh_locked(it->second, clock_->now());
  return it->second.open;
}

std::vector<common::HostId> HostCircuitBreaker::quarantined_hosts() {
  std::lock_guard lk(mu_);
  std::vector<common::HostId> out;
  if (!config_.enabled) return out;
  const double t = clock_->now();
  for (auto& [host, entry] : entries_) {
    refresh_locked(entry, t);
    if (entry.open) out.push_back(host);
  }
  return out;
}

double HostCircuitBreaker::score(common::HostId host) {
  std::lock_guard lk(mu_);
  const auto it = entries_.find(host);
  if (it == entries_.end()) return 0.0;
  refresh_locked(it->second, clock_->now());
  return it->second.score;
}

std::uint64_t HostCircuitBreaker::trips() const {
  return trips_.load(std::memory_order_relaxed);
}

const char* to_string(SubmissionState state) {
  switch (state) {
    case SubmissionState::kQueued:
      return "queued";
    case SubmissionState::kRunning:
      return "running";
    case SubmissionState::kCompleted:
      return "completed";
    case SubmissionState::kRejected:
      return "rejected";
    case SubmissionState::kFailed:
      return "failed";
  }
  return "unknown";
}

/// Everything the service tracks about one submission.  Owned by a
/// shared_ptr so waiters and workers may hold it across unlocks; the
/// graph/allocation members keep stable addresses for the run's
/// FaultTolerance closures.
struct AppSubmissionService::AppRecord {
  SubmissionRequest request;
  common::AppId app;
  SubmissionState state = SubmissionState::kQueued;
  sched::QosAdmission admission;
  sched::AllocationTable allocation;
  double queue_eta_s = 0.0;
  std::size_t grant_index = 0;
  std::size_t restarts = 0;   // failover restarts consumed
  std::uint64_t seq = 0;      // global submission order (FIFO tie-break)
  bool counted_queued = false;
  bool charged = false;
  sched::HostOccupancy charge;  // exactly what charge_locked added
  double pred_charged = 0.0;    // ETA charge added to pending_pred_s_
  RunResult result;
  std::string error;
};

/// One submission mid-flight through submit_batch's phases: the record
/// plus whether placement succeeded (phase C) and admission still owes
/// it a QoS verdict (phase D).
struct AppSubmissionService::Prepared {
  std::shared_ptr<AppRecord> rec;
  bool needs_qos = false;
};

AppSubmissionService::AppSubmissionService(
    SiteId local_site, sched::SiteDirectory& directory,
    const tasklib::TaskRegistry& registry, AppSubmissionConfig config,
    common::Clock& clock)
    : local_site_(local_site),
      directory_(&directory),
      registry_(&registry),
      config_(config),
      clock_(&clock),
      breaker_(config.breaker, clock),
      queue_(config.fair_share),
      paused_(config.start_paused) {
  config_.slots = std::max<std::size_t>(config_.slots, 1);
  // An open transition version-bumps every registered forecaster via
  // forget(host): the prediction cache's epoch moves, so Predict scores
  // computed while the flapping host looked healthy are unservable.
  breaker_.set_on_open([this](common::HostId host) {
    std::lock_guard lk(mu_);
    ++stats_.breaker_trips;
    bump("submission.breaker_trips");
    for (predict::LoadForecaster* f : forecasters_) f->forget(host);
    common::log_info("submission", "circuit breaker OPEN for host ",
                     host.value(), " (flapping)");
    if (common::trace_enabled()) {
      common::trace_instant("breaker_open", "submission",
                            {{"host", std::to_string(host.value())}});
    }
  });
  workers_.reserve(config_.slots);
  for (std::size_t i = 0; i < config_.slots; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

AppSubmissionService::~AppSubmissionService() {
  {
    std::lock_guard lk(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  workers_.clear();  // joins; workers drain the ready queue first
}

void AppSubmissionService::add_forecaster(
    predict::LoadForecaster* forecaster) {
  std::lock_guard lk(mu_);
  forecasters_.push_back(forecaster);
}

void AppSubmissionService::note_site_liveness(common::SiteId site, bool dead) {
  std::lock_guard lk(mu_);
  if (dead) {
    dead_sites_.insert(site);
  } else {
    dead_sites_.erase(site);
  }
}

std::vector<common::SiteId> AppSubmissionService::dead_sites() const {
  std::lock_guard lk(mu_);
  return {dead_sites_.begin(), dead_sites_.end()};
}

common::AppId AppSubmissionService::submit(SubmissionRequest request) {
  std::vector<SubmissionRequest> one;
  one.push_back(std::move(request));
  return submit_batch(std::move(one)).front();
}

std::vector<common::AppId> AppSubmissionService::submit_batch(
    std::vector<SubmissionRequest> requests) {
  // Phase A (no lock): an invalid graph throws before any submission is
  // recorded -- exactly the single-submit contract, batch-wide.
  for (const SubmissionRequest& request : requests) {
    request.graph.validate();
  }

  std::vector<Prepared> prepared;
  prepared.reserve(requests.size());
  std::vector<common::AppId> tickets;
  tickets.reserve(requests.size());

  // Phase B (brief lock): tickets, records and the early-shed fast
  // path.  Everything per-submission that must be ordered (seq, ids)
  // happens here; the heavy placement work does not.
  bool any_early_shed = false;
  {
    std::lock_guard lk(mu_);
    if (shutdown_) {
      throw common::StateError("submission service is shut down");
    }
    for (SubmissionRequest& request : requests) {
      auto rec = std::make_shared<AppRecord>();
      rec->request = std::move(request);
      rec->app = common::AppId{next_ticket_++};
      rec->seq = next_seq_++;
      ++stats_.submitted;
      bump("submission.submitted");
      records_.emplace(rec->app, rec);
      tickets.push_back(rec->app);

      // Shedding tier 0 (opt-in): a full queue that the arrival's
      // priority cannot relieve rejects before any scheduling or QoS
      // work is spent on it.
      bool early = false;
      if (config_.early_shed && queued_count_ >= config_.max_queue) {
        const std::optional<int> lowest = queue_.lowest_priority();
        early = !lowest || *lowest >= rec->request.priority;
      }
      if (early) {
        rec->state = SubmissionState::kRejected;
        rec->error = "ready queue full (early shed)";
        ++stats_.rejected;
        ++stats_.early_shed;
        bump("submission.rejected");
        bump("submission.early_shed");
        note_terminal_locked(rec);
        any_early_shed = true;
      }
      prepared.push_back(Prepared{std::move(rec), false});
    }
  }
  if (any_early_shed) cv_.notify_all();

  // Phase C (no lock): Figure 4 -- a per-submission Site Scheduler
  // places each AFG against the directory's current view.  Placement is
  // the expensive step, so it runs outside the service lock and
  // concurrent submitters overlap their scheduling work.
  for (Prepared& p : prepared) {
    if (p.rec->state != SubmissionState::kQueued) continue;  // early shed
    try {
      sched::SiteScheduler scheduler(local_site_, *directory_,
                                     config_.scheduler);
      p.rec->allocation = scheduler.schedule(p.rec->request.graph);
      p.needs_qos = true;
    } catch (const std::exception& e) {
      p.rec->error = std::string("scheduling failed: ") + e.what();
    }
  }

  // Phase D (one lock hold): the whole burst's admission bookkeeping --
  // QoS against one residual-capacity snapshot, capacity/preemption,
  // charges and queue pushes -- runs under a single acquisition.
  {
    std::lock_guard lk(mu_);

    // Batched QoS with sequential semantics.  check_qos_batch charges
    // every item it admits into its internal baseline; reality only
    // charges items that actually take a slot (a backpressure reject
    // charges nothing, a preemption also releases its victim).  The
    // cache therefore stays valid exactly while batch-admitted items
    // keep getting charged for real, and is rebuilt over the live
    // occupancy_ from the first divergence on.  While the queue is
    // full every admitted item diverges, so the rebuild chunk drops to
    // one item -- which is precisely the old per-submit cost, not a
    // regression.
    std::vector<sched::QosAdmission> qos_cache;
    std::vector<std::size_t> qos_members;
    std::size_t qos_consumed = 0;
    bool qos_valid = false;
    const auto qos_of = [&](std::size_t j) -> sched::QosAdmission {
      if (!qos_valid || qos_consumed >= qos_members.size() ||
          qos_members[qos_consumed] != j) {
        qos_members.clear();
        std::vector<sched::QosBatchItem> items;
        const bool full = queued_count_ >= config_.max_queue;
        for (std::size_t k = j; k < prepared.size(); ++k) {
          if (!prepared[k].needs_qos) continue;
          const AppRecord& r = *prepared[k].rec;
          items.push_back(sched::QosBatchItem{&r.request.graph,
                                              &r.allocation, r.request.qos});
          qos_members.push_back(k);
          if (full) break;
        }
        qos_cache = sched::check_qos_batch(items, *directory_, occupancy_);
        qos_consumed = 0;
        qos_valid = true;
      }
      return qos_cache[qos_consumed++];
    };

    for (std::size_t j = 0; j < prepared.size(); ++j) {
      Prepared& p = prepared[j];
      auto& rec = p.rec;
      if (rec->state != SubmissionState::kQueued) continue;  // early shed

      common::ScopedSpan span("submit", "submission");
      if (span.active()) {
        span.rename("submit:" + rec->request.graph.name());
        span.arg("app", rec->app.value());
        span.arg("user", rec->request.user);
      }

      if (shutdown_) {
        // The service shut down between phases; the workers that would
        // run this submission may already be gone.
        rec->state = SubmissionState::kRejected;
        rec->error = "submission service is shut down";
        ++stats_.rejected;
        bump("submission.rejected");
        if (span.active()) span.arg("outcome", "rejected");
        note_terminal_locked(rec);
        continue;
      }
      if (!p.needs_qos) {
        rec->state = SubmissionState::kRejected;
        // rec->error already carries "scheduling failed: ...".
        ++stats_.rejected;
        bump("submission.rejected");
        if (span.active()) span.arg("outcome", "rejected");
        note_terminal_locked(rec);
        continue;
      }

      // Residual-capacity QoS admission: charge every already-admitted,
      // not-yet-finished application's predicted host occupancy.
      rec->admission = qos_of(j);
      if (!rec->admission.admitted) {
        rec->state = SubmissionState::kRejected;
        rec->error = "QoS deadline unmet: slack " +
                     std::to_string(rec->admission.slack_s) + "s";
        ++stats_.rejected;
        bump("submission.rejected");
        if (span.active()) span.arg("outcome", "rejected");
        note_terminal_locked(rec);
        continue;
      }
      if (queued_count_ >= config_.max_queue) {
        // Shedding tier 2: a full queue admits a newcomer only over the
        // body of the youngest queued submission of a strictly lower
        // priority tier; running applications are never touched.
        const std::optional<FairShareEntry> victim =
            queue_.preempt_below(rec->request.priority);
        qos_valid = false;  // either path diverges from the batch
        if (!victim) {
          rec->state = SubmissionState::kRejected;
          rec->error = "ready queue full (backpressure)";
          ++stats_.rejected;
          bump("submission.rejected");
          bump("submission.backpressure");
          if (span.active()) span.arg("outcome", "backpressure");
          note_terminal_locked(rec);
          continue;
        }
        const auto vrec = records_.at(victim->app);
        evict_queued_locked(*vrec,
                            "preempted by higher-priority submission",
                            &SubmissionStats::preempted,
                            "submission.preempted");
        note_terminal_locked(vrec);
      }

      const bool immediate =
          !paused_ && queued_count_ == 0 && running_ < config_.slots;
      if (!immediate) {
        // Queue-with-ETA: predicted drain time of everything ahead
        // (every charged submission, queued or running), spread over
        // the slots.  pending_pred_s_ is maintained incrementally by
        // charge/release, so the estimate no longer walks all records.
        rec->queue_eta_s =
            pending_pred_s_ / static_cast<double>(config_.slots);
      }
      charge_locked(*rec);
      if (immediate) {
        ++stats_.admitted;
        bump("submission.admitted");
        if (span.active()) span.arg("outcome", "admitted");
      } else {
        rec->counted_queued = true;
        ++stats_.queued;
        bump("submission.queued");
        if (span.active()) {
          span.arg("outcome", "queued");
          span.arg("eta_s", rec->queue_eta_s);
        }
      }
      FairShareEntry entry;
      entry.app = rec->app;
      entry.seq = rec->seq;
      entry.priority = rec->request.priority;
      entry.weight = rec->request.weight;
      // Straight-into-a-free-slot admissions already count as running
      // work, not backlog: preempting or shedding them would desync the
      // admitted counters, so they are not eligible.
      entry.preemptible = rec->counted_queued;
      queue_.push(rec->request.user, entry);
      ++queued_count_;
      common::log_info("submission", "app ", rec->app.value(), " '",
                       rec->request.graph.name(), "' user ",
                       rec->request.user, ": ",
                       immediate ? "admitted" : "queued", ", slack ",
                       rec->admission.slack_s, "s");
    }
  }
  cv_.notify_all();
  return tickets;
}

void AppSubmissionService::charge_locked(AppRecord& record) {
  record.charge = record.allocation.host_occupancy();
  for (const auto& [host, busy] : record.charge) {
    occupancy_[host] += busy;
  }
  if (config_.admitted_load_bias > 0.0) {
    for (const auto& row : record.allocation.rows()) {
      for (predict::LoadForecaster* f : forecasters_) {
        f->add_load_bias(row.primary_host(), config_.admitted_load_bias);
      }
    }
  }
  record.pred_charged = record.admission.predicted_makespan_s;
  pending_pred_s_ += record.pred_charged;
  record.charged = true;
}

void AppSubmissionService::release_locked(AppRecord& record) {
  if (!record.charged) return;
  for (const auto& [host, busy] : record.charge) {
    auto it = occupancy_.find(host);
    if (it == occupancy_.end()) continue;
    it->second -= busy;
    if (it->second <= 1e-9) occupancy_.erase(it);
  }
  if (config_.admitted_load_bias > 0.0) {
    for (const auto& row : record.allocation.rows()) {
      for (predict::LoadForecaster* f : forecasters_) {
        f->add_load_bias(row.primary_host(),
                         -config_.admitted_load_bias);
      }
    }
  }
  pending_pred_s_ = std::max(0.0, pending_pred_s_ - record.pred_charged);
  record.pred_charged = 0.0;
  record.charged = false;
}

void AppSubmissionService::evict_queued_locked(
    AppRecord& record, std::string reason,
    std::uint64_t SubmissionStats::*counter, const char* metric) {
  record.state = SubmissionState::kRejected;
  record.error = std::move(reason);
  release_locked(record);
  --queued_count_;
  ++(stats_.*counter);
  bump(metric);
}

void AppSubmissionService::note_terminal_locked(
    const std::shared_ptr<AppRecord>& record) {
  terminal_fifo_.push_back(record->app);
  if (config_.terminal_record_cap == 0) return;
  while (terminal_fifo_.size() > config_.terminal_record_cap) {
    const common::AppId oldest = terminal_fifo_.front();
    terminal_fifo_.pop_front();
    const auto it = records_.find(oldest);
    if (it == records_.end()) continue;
    RetiredStub stub;
    stub.state = it->second->state;
    stub.grant_index =
        static_cast<std::uint32_t>(it->second->grant_index);
    stub.restarts = static_cast<std::uint32_t>(it->second->restarts);
    records_.erase(it);
    retired_.emplace(oldest, stub);
    retired_fifo_.push_back(oldest);
    ++stats_.retired;
    bump("submission.retired");
    if (config_.retired_stub_cap > 0) {
      while (retired_fifo_.size() > config_.retired_stub_cap) {
        retired_.erase(retired_fifo_.front());
        retired_fifo_.pop_front();
      }
    }
  }
}

std::size_t AppSubmissionService::shed_queued(int below_priority) {
  std::size_t dropped = 0;
  {
    std::lock_guard lk(mu_);
    const std::vector<FairShareEntry> victims =
        queue_.shed_below(below_priority);
    for (const FairShareEntry& victim : victims) {
      const auto rec = records_.at(victim.app);
      evict_queued_locked(*rec, "shed: priority below cutoff",
                          &SubmissionStats::shed, "submission.shed");
      note_terminal_locked(rec);
    }
    dropped = victims.size();
    if (dropped > 0) {
      common::log_info("submission", "shed ", dropped,
                       " queued submissions below priority ",
                       below_priority);
    }
  }
  if (dropped > 0) cv_.notify_all();
  return dropped;
}

FaultTolerance AppSubmissionService::wrap_hooks(FaultTolerance hooks) {
  if (!config_.breaker.enabled) return hooks;
  // on_failure: every reported host failure feeds the breaker (task
  // errors on a live host do not -- a flaky task must not quarantine a
  // healthy machine).
  hooks.on_failure = [this, inner = std::move(hooks.on_failure)](
                         const RescheduleRequest& request) {
    if (inner) inner(request);
    if (request.kind == RescheduleRequest::Kind::kHostFailure) {
      breaker_.record_failure(request.host);
    }
  };
  // host_alive: a quarantined host reads as dead, so in-gang fault
  // guards refuse it and recovery excludes it even while the flapping
  // host happens to answer probes.
  hooks.host_alive = [this, inner = std::move(hooks.host_alive)](
                         common::HostId host) {
    if (breaker_.quarantined(host)) return false;
    return inner ? inner(host) : true;
  };
  return hooks;
}

bool AppSubmissionService::replan_for_restart(AppRecord& rec,
                                              const std::string& why) {
  common::ScopedSpan span("app_restart", "submission");
  if (span.active()) {
    span.arg("app", rec.app.value());
    span.arg("restart", rec.restarts + 1);
    span.arg("reason", why);
  }

  std::lock_guard lk(mu_);
  // Quarantine: hosts the health probe reports dead, hosts on sites
  // the quorum declared dead (D17), plus everything the circuit
  // breaker holds open.
  std::vector<common::HostId> excluded = breaker_.quarantined_hosts();
  for (const auto& row : rec.allocation.rows()) {
    const common::HostId host = row.primary_host();
    const bool dead = (health_probe_ && !health_probe_(host)) ||
                      dead_sites_.count(row.site) > 0;
    if (dead && std::find(excluded.begin(), excluded.end(), host) ==
                    excluded.end()) {
      excluded.push_back(host);
    }
  }

  // Release this app's commitments before re-admitting: the residual
  // capacity it re-checks against must not charge its own old plan.
  release_locked(rec);

  // Re-place only the *incomplete* subgraph (checkpointed tasks never
  // re-execute, so their rows only matter as parent-site transfer
  // anchors) and only rows whose host is quarantined.
  sched::SiteScheduler scheduler(local_site_, *directory_,
                                 config_.scheduler);
  std::size_t moved = 0;
  for (const TaskId task : rec.request.graph.topological_order()) {
    if (config_.checkpointing && checkpoints_.completed(rec.app, task)) {
      continue;
    }
    const common::HostId host = rec.allocation.entry(task).primary_host();
    if (std::find(excluded.begin(), excluded.end(), host) ==
        excluded.end()) {
      continue;
    }
    // The scheduler only knows the exclusion list, not liveness: a
    // whole-site outage leaves sibling hosts it would happily pick, so
    // probe each candidate and widen the quarantine until one is alive.
    auto replacement = scheduler.reschedule(rec.request.graph,
                                            rec.allocation, task, excluded);
    while (replacement &&
           ((health_probe_ && !health_probe_(replacement->primary_host())) ||
            dead_sites_.count(replacement->site) > 0)) {
      excluded.push_back(replacement->primary_host());
      replacement = scheduler.reschedule(rec.request.graph, rec.allocation,
                                         task, excluded);
    }
    if (!replacement) {
      rec.error = "failover replan: no feasible host for task " +
                  std::to_string(task.value()) + " (" + why + ")";
      if (span.active()) span.arg("outcome", "no_feasible_host");
      return false;
    }
    rec.allocation.replace(*replacement);
    ++moved;
  }

  // Residual-capacity re-admission over the surviving plan.
  rec.admission =
      sched::check_qos(rec.request.graph, rec.allocation, *directory_,
                       rec.request.qos, occupancy_);
  if (!rec.admission.admitted) {
    rec.error = "failover replan: QoS re-admission refused, slack " +
                std::to_string(rec.admission.slack_s) + "s (" + why + ")";
    if (span.active()) span.arg("outcome", "readmission_refused");
    return false;
  }
  charge_locked(rec);

  ++rec.restarts;
  ++stats_.restarts;
  bump("submission.restarts");
  if (span.active()) {
    span.arg("outcome", "restarting");
    span.arg("tasks_moved", moved);
    span.arg("excluded", excluded.size());
  }
  common::log_info("submission", "app ", rec.app.value(), " restart ",
                   rec.restarts, ": ", moved, " tasks re-placed, ",
                   excluded.size(), " hosts quarantined (", why, ")");
  return true;
}

void AppSubmissionService::worker_loop() {
  for (;;) {
    std::shared_ptr<AppRecord> rec;
    {
      std::unique_lock lk(mu_);
      cv_.wait(lk, [&] {
        return shutdown_ || (!paused_ && queued_count_ > 0);
      });
      if (queued_count_ == 0) {
        if (shutdown_) return;
        continue;
      }
      // Stride grant: the sharded queue picks the lowest (user pass,
      // seq) in O(shards + log users); grant bookkeeping stays under
      // mu_ so the grant index is a total order.
      const std::optional<FairShareEntry> entry = queue_.pop();
      if (!entry) continue;
      --queued_count_;
      rec = records_.at(entry->app);
      rec->state = SubmissionState::kRunning;
      rec->grant_index = next_grant_++;
      ++running_;
      if (rec->counted_queued) {
        ++stats_.queued_then_admitted;
        bump("submission.queued_then_admitted");
      }
      common::MetricsRegistry::global()
          .gauge("submission.running")
          .set(static_cast<double>(running_));
    }

    EngineConfig engine_config = config_.engine;
    engine_config.seed = rec->request.seed;
    ExecutionEngine engine(*registry_, engine_config, *clock_);
    CheckpointStore* checkpoint =
        config_.checkpointing ? &checkpoints_ : nullptr;

    RunResult result;
    std::string error;
    double restart_backoff = config_.restart_backoff_s;
    for (;;) {
      FaultTolerance hooks;
      const FaultTolerance* hooks_ptr = nullptr;
      if (fault_hooks_) {
        // Rebuilt per attempt: the factory's closures see the replanned
        // allocation (stable address inside the record).
        hooks = wrap_hooks(fault_hooks_(rec->request.graph,
                                        rec->allocation));
        hooks_ptr = &hooks;
      }

      error.clear();
      {
        common::ScopedSpan run_span("app_run", "submission");
        if (run_span.active()) {
          run_span.rename("run:" + rec->request.graph.name());
          run_span.arg("app", rec->app.value());
          run_span.arg("user", rec->request.user);
          run_span.arg("grant", rec->grant_index);
          if (rec->restarts > 0) run_span.arg("restart", rec->restarts);
        }
        try {
          result = engine.execute(rec->request.graph, rec->allocation,
                                  feedback_, nullptr, hooks_ptr, rec->app,
                                  checkpoint);
        } catch (const std::exception& e) {
          error = e.what();
        }
        if (run_span.active()) {
          run_span.arg("outcome", error.empty() ? "completed" : "failed");
        }
      }
      if (error.empty() ||
          rec->restarts >= static_cast<std::size_t>(
                               std::max(config_.max_restarts, 0))) {
        break;
      }
      if (!replan_for_restart(*rec, error)) {
        error = rec->error;  // the replan's refusal reason is terminal
        break;
      }

      // Exponential backoff with deterministic jitter seeded from
      // (engine seed, app, restart attempt): lets the fault window pass
      // and de-correlates simultaneous failovers without global state.
      double nap = restart_backoff;
      if (config_.restart_backoff_jitter > 0.0) {
        common::Rng jitter(engine_config.seed ^
                           (static_cast<std::uint64_t>(rec->app.value())
                            << 32) ^
                           (0x9E3779B97F4A7C15ull * rec->restarts));
        nap *= 1.0 + config_.restart_backoff_jitter *
                         (jitter.uniform() - 0.5);
      }
      if (nap > 0.0) clock_->sleep_for(nap);
      restart_backoff *= config_.restart_backoff_multiplier;
    }

    {
      std::lock_guard lk(mu_);
      release_locked(*rec);
      --running_;
      if (error.empty()) {
        rec->result = std::move(result);
        rec->state = SubmissionState::kCompleted;
        ++stats_.completed;
        bump("submission.completed");
      } else {
        rec->error = std::move(error);
        rec->state = SubmissionState::kFailed;
        ++stats_.failed;
        bump("submission.failed");
        common::log_info("submission", "app ", rec->app.value(),
                         " failed: ", rec->error);
      }
      common::MetricsRegistry::global()
          .gauge("submission.running")
          .set(static_cast<double>(running_));
      note_terminal_locked(rec);
    }
    // Terminal either way: the frontier snapshot is no longer needed.
    checkpoints_.drop_app(rec->app);
    cv_.notify_all();
  }
}

SubmissionStatus AppSubmissionService::snapshot_locked(
    const AppRecord& rec) const {
  SubmissionStatus status;
  status.app = rec.app;
  status.state = rec.state;
  status.user = rec.request.user;
  status.admission = rec.admission;
  status.queue_eta_s = rec.queue_eta_s;
  status.allocation = rec.allocation;
  status.grant_index = rec.grant_index;
  status.restarts = rec.restarts;
  status.result = rec.result;
  status.error = rec.error;
  return status;
}

SubmissionStatus AppSubmissionService::wait(common::AppId app) const {
  std::unique_lock lk(mu_);
  const auto it = records_.find(app);
  if (it == records_.end()) {
    // Retired submissions are terminal by construction: the stub is the
    // final answer.
    const auto rit = retired_.find(app);
    if (rit == retired_.end()) {
      throw common::NotFoundError("unknown submission ticket");
    }
    SubmissionStatus status;
    status.app = app;
    status.state = rit->second.state;
    status.grant_index = rit->second.grant_index;
    status.restarts = rit->second.restarts;
    status.retired = true;
    return status;
  }
  const auto rec = it->second;
  cv_.wait(lk, [&] { return is_terminal(rec->state); });
  return snapshot_locked(*rec);
}

SubmissionStatus AppSubmissionService::status(common::AppId app) const {
  std::lock_guard lk(mu_);
  const auto it = records_.find(app);
  if (it == records_.end()) {
    const auto rit = retired_.find(app);
    if (rit == retired_.end()) {
      throw common::NotFoundError("unknown submission ticket");
    }
    SubmissionStatus status;
    status.app = app;
    status.state = rit->second.state;
    status.grant_index = rit->second.grant_index;
    status.restarts = rit->second.restarts;
    status.retired = true;
    return status;
  }
  return snapshot_locked(*it->second);
}

void AppSubmissionService::resume() {
  {
    std::lock_guard lk(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

void AppSubmissionService::pause() {
  std::lock_guard lk(mu_);
  paused_ = true;
}

void AppSubmissionService::drain() const {
  std::unique_lock lk(mu_);
  cv_.wait(lk, [&] { return queued_count_ == 0 && running_ == 0; });
}

SubmissionStats AppSubmissionService::stats() const {
  std::lock_guard lk(mu_);
  SubmissionStats out = stats_;
  out.running = running_;
  out.queue_depth = queued_count_;
  out.records_retained = records_.size();
  return out;
}

}  // namespace vdce::rt
