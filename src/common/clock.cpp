#include "common/clock.hpp"

#include <chrono>
#include <thread>

#include "common/error.hpp"

namespace vdce::common {

TimePoint SteadyClock::now() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SteadyClock::sleep_for(Duration dt) {
  std::this_thread::sleep_for(std::chrono::duration<double>(dt));
}

Clock& steady_clock() {
  static SteadyClock clock;
  return clock;
}

void VirtualClock::advance(Duration dt) {
  expects(dt >= 0.0, "VirtualClock::advance requires dt >= 0");
  std::lock_guard lk(mu_);
  now_ += dt;
}

void VirtualClock::advance_to(TimePoint t) {
  std::lock_guard lk(mu_);
  expects(t >= now_, "VirtualClock::advance_to cannot move backwards");
  now_ = t;
}

}  // namespace vdce::common
