#include "runtime/app_controller.hpp"

#include <chrono>

namespace vdce::rt {

ApplicationController::ApplicationController(dm::ChannelBroker& broker,
                                             dm::MpLibrary library,
                                             common::AppId app, HostId host)
    : app_(app), host_(host), dm_(broker, library) {}

void ApplicationController::activate(const dm::TaskWiring& wiring) {
  wiring_ = wiring;
  dm_.setup(wiring);
}

void ApplicationController::set_load_guard(LoadProbe probe, double threshold) {
  probe_ = std::move(probe);
  threshold_ = threshold;
}

void ApplicationController::set_fault_guard(AliveProbe probe) {
  alive_probe_ = std::move(probe);
}

TaskOutcome ApplicationController::execute(
    const tasklib::TaskRegistry& registry, const std::string& library_task,
    const tasklib::TaskContext& ctx, dm::ConsoleService* console) {
  TaskOutcome outcome;

  // Pre-compute fault guard: a host inside a failure window never gets
  // the task (checked before the load guard -- a dead host's load
  // reading is meaningless).
  if (alive_probe_ && !alive_probe_(host_)) {
    RescheduleRequest req;
    req.app = app_;
    req.task = wiring_.task;
    req.host = host_;
    req.kind = RescheduleRequest::Kind::kHostFailure;
    req.reason = "host " + std::to_string(host_.value()) + " is down";
    outcome.reschedule = req;
    // Refusal path: channels stay open (caller owns teardown), but the
    // stats must still reflect the setup traffic so far.
    outcome.io_stats = dm_.stats();
    return outcome;
  }

  // Pre-compute load guard: "If the current load on any of these
  // machines is more than a predefined threshold value, the Application
  // Controller terminates the task execution on the machine and sends a
  // task rescheduling request".
  if (probe_) {
    const double load = probe_();
    if (load > threshold_) {
      RescheduleRequest req;
      req.app = app_;
      req.task = wiring_.task;
      req.host = host_;
      req.observed_load = load;
      req.kind = RescheduleRequest::Kind::kLoadThreshold;
      req.reason = "load " + std::to_string(load) + " above threshold " +
                   std::to_string(threshold_);
      outcome.reschedule = req;
      outcome.io_stats = dm_.stats();
      return outcome;
    }
  }

  const auto t0 = std::chrono::steady_clock::now();
  outcome.payload = dm_.run(registry, library_task, ctx, console);
  const auto t1 = std::chrono::steady_clock::now();
  outcome.compute_elapsed_s =
      std::chrono::duration<double>(t1 - t0).count();
  outcome.completed = true;
  outcome.io_stats = dm_.stats();
  return outcome;
}

void ApplicationController::shutdown() { dm_.teardown(); }

}  // namespace vdce::rt
