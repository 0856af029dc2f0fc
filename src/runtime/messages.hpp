// Control-plane message types exchanged between the Resource Controller
// components (Figure 6) and the Application Controller.
//
// Each struct lists its fields once, in wire order, for the field codec
// of common/serialize.hpp (runtime/wire.hpp frames them).
#pragma once

#include <cstdint>
#include <string>

#include "common/clock.hpp"
#include "common/ids.hpp"

namespace vdce::rt {

using common::Duration;
using common::GroupId;
using common::HostId;
using common::SiteId;
using common::TaskId;
using common::TimePoint;

/// A Monitor daemon's periodic measurement of its host.
struct MonitorReport {
  HostId host;
  TimePoint when = 0.0;
  double cpu_load = 0.0;
  double available_memory_mb = 0.0;

  static auto fields(auto& m, auto&& v) {
    return v(m.host, m.when, m.cpu_load, m.available_memory_mb);
  }
};

/// Group Manager -> Site Manager: a workload that changed "considerably"
/// (outside the confidence interval of the previous measurement).
struct WorkloadUpdate {
  HostId host;
  TimePoint when = 0.0;
  double cpu_load = 0.0;
  double available_memory_mb = 0.0;

  static auto fields(auto& m, auto&& v) {
    return v(m.host, m.when, m.cpu_load, m.available_memory_mb);
  }
};

/// Group Manager -> Site Manager: a host stopped answering echo packets
/// (or came back).
struct LivenessChange {
  HostId host;
  TimePoint when = 0.0;
  bool alive = false;

  static auto fields(auto& m, auto&& v) { return v(m.host, m.when, m.alive); }
};

/// Group Manager -> Site Manager: measured intra-group network
/// parameters (from the echo round-trips).
struct NetworkMeasurement {
  GroupId group;
  TimePoint when = 0.0;
  Duration latency_s = 0.0;
  double transfer_mb_per_s = 0.0;

  static auto fields(auto& m, auto&& v) {
    return v(m.group, m.when, m.latency_s, m.transfer_mb_per_s);
  }
};

/// Application Controller -> Group Manager: a running task must leave
/// its machine; ask the scheduler for a new placement.
struct RescheduleRequest {
  /// Why the task is being handed back.
  enum class Kind : std::uint8_t {
    kLoadThreshold,  // host load crossed the configured threshold
    kHostFailure,    // host stopped answering (fault guard / dead peer)
    kTaskError,      // the task itself threw during execution
  };

  common::AppId app;
  TaskId task;
  HostId host;
  TimePoint when = 0.0;
  double observed_load = 0.0;
  Kind kind = Kind::kLoadThreshold;
  std::string reason;

  static auto fields(auto& m, auto&& v) {
    return v(m.app, m.task, m.host, m.when, m.observed_load, m.kind,
             m.reason);
  }
};

/// The last RescheduleRequest::Kind; the wire decoder rejects any above.
constexpr RescheduleRequest::Kind enum_max(RescheduleRequest::Kind) {
  return RescheduleRequest::Kind::kTaskError;
}

}  // namespace vdce::rt
