#include "runtime/control_transport.hpp"

#include "common/error.hpp"
#include "runtime/site_manager.hpp"
#include "runtime/wire.hpp"

namespace vdce::rt {

void SiteManagerSink::on_workload(const WorkloadUpdate& update) {
  manager_->handle_workload(update);
}

void SiteManagerSink::on_liveness(const LivenessChange& change) {
  manager_->handle_liveness(change);
}

void SiteManagerSink::on_network(const NetworkMeasurement& measurement) {
  manager_->handle_network(measurement);
}

void dispatch_control_frame(std::span<const std::byte> frame,
                            ControlSink& sink) {
  switch (wire::peek_type(frame)) {
    case wire::MsgType::kMonitorReport: {
      // Monitor reports reaching a sink are treated as workload
      // updates (a site with no CI filter forwards raw reports).
      const auto report = wire::decode<MonitorReport>(frame);
      sink.on_workload(WorkloadUpdate{report.host, report.when,
                                      report.cpu_load,
                                      report.available_memory_mb});
      return;
    }
    case wire::MsgType::kWorkloadUpdate:
      sink.on_workload(wire::decode<WorkloadUpdate>(frame));
      return;
    case wire::MsgType::kLivenessChange:
      sink.on_liveness(wire::decode<LivenessChange>(frame));
      return;
    case wire::MsgType::kNetworkMeasurement:
      sink.on_network(wire::decode<NetworkMeasurement>(frame));
      return;
    case wire::MsgType::kRescheduleRequest:
      sink.on_reschedule(wire::decode<RescheduleRequest>(frame));
      return;
    default:
      throw common::ParseError(
          std::string("unexpected message on a control channel: ") +
          wire::to_string(wire::peek_type(frame)));
  }
}

void LoopbackControlTransport::publish(std::span<const std::byte> frame) {
  dispatch_control_frame(frame, *sink_);
  count(frame.size());  // only delivered messages count
}

void ChannelControlTransport::publish(std::span<const std::byte> frame) {
  channel_->send(frame);
  count(frame.size());  // only delivered messages count
}

std::size_t drain_control_channel(dm::Channel& channel, ControlSink& sink,
                                  std::size_t max_messages) {
  std::size_t dispatched = 0;
  while (max_messages == 0 || dispatched < max_messages) {
    const auto frame = channel.receive_frame();
    if (!frame) break;  // closed and drained
    dispatch_control_frame(frame->bytes(), sink);
    ++dispatched;
  }
  return dispatched;
}

}  // namespace vdce::rt
