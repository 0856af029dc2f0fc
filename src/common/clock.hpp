// Time source abstraction.
//
// Every timing DECISION the runtime makes -- a liveness suspicion
// expiring, a circuit breaker decaying, a retry or restart backoff nap
// -- reads and sleeps through a Clock&, so the same objects run on real
// or on simulated time.  The real runtime uses steady_clock(); the
// discrete-event simulator and the tests use VirtualClock, whose time
// only moves when the owner advances it (or a component sleeps on it).
// MEASUREMENTS (turnaround, makespan, frame latency, trace stamps) and
// blocking waits on OS primitives (ring and broker deadlines, sockets,
// semaphores) stay on std::chrono::steady_clock: they time real work
// and cannot be simulated.  All times are seconds, carried as double
// (microsecond resolution is ample for both the WAN model and the
// monitoring periods the paper describes).
#pragma once

#include <mutex>

namespace vdce::common {

/// Seconds since the clock's epoch.
using TimePoint = double;
/// Seconds.
using Duration = double;

/// Abstract monotonic time source.
class Clock {
 public:
  virtual ~Clock() = default;
  /// Current time in seconds since this clock's epoch.  Monotone
  /// non-decreasing.
  [[nodiscard]] virtual TimePoint now() const = 0;
  /// Waits `dt` seconds of this clock's time.  Thread-safe.
  virtual void sleep_for(Duration dt) = 0;
};

/// std::chrono::steady_clock in seconds.  The epoch is the host's
/// (CLOCK_MONOTONIC), not the object's construction, so every process on
/// the host reads one timeline: absolute chaos partition windows shared
/// between a coordinator and its site daemons depend on it.
class SteadyClock final : public Clock {
 public:
  [[nodiscard]] TimePoint now() const override;
  /// Blocks the calling thread (std::this_thread::sleep_for).
  void sleep_for(Duration dt) override;
};

/// The process-wide real clock: the default of every Clock& parameter.
[[nodiscard]] Clock& steady_clock();

/// Manually advanced clock for simulation and deterministic tests.
///
/// Thread-safe: the simulation driver advances it while worker components
/// read it.
class VirtualClock final : public Clock {
 public:
  explicit VirtualClock(TimePoint start = 0.0) : now_(start) {}

  [[nodiscard]] TimePoint now() const override {
    std::lock_guard lk(mu_);
    return now_;
  }

  /// advance(dt): returns at once, and concurrent sleepers add up.
  void sleep_for(Duration dt) override { advance(dt); }

  /// Moves time forward by `dt` seconds.  `dt` must be non-negative.
  void advance(Duration dt);

  /// Jumps to absolute time `t`; `t` must not be in the past.
  void advance_to(TimePoint t);

 private:
  mutable std::mutex mu_;
  TimePoint now_;
};

}  // namespace vdce::common
