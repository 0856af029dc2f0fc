#include "runtime/wire.hpp"

#include <iterator>

#include "afg/graph.hpp"
#include "common/error.hpp"

namespace vdce::rt::wire {

using common::ParseError;

namespace {

/// to_string names, in Messages order.
constexpr const char* kNames[] = {
    "monitor_report", "workload_update", "liveness_change",
    "network_measurement", "reschedule_request", "heartbeat", "tick_request",
    "host_selection_request", "host_selection_response", "reselection_request",
    "reselection_response", "record_task_time", "shutdown_request", "ack",
    "error_reply", "peer_digest", "gossip_ping", "gossip_ack", "ping_req",
    "ping_req_reply", "peer_roster", "refute"};
static_assert(std::size(kNames) == Messages::size,
              "every message in Messages needs a name");

}  // namespace

const char* to_string(MsgType type) {
  const auto raw = static_cast<std::size_t>(type);
  return raw >= 1 && raw <= Messages::size ? kNames[raw - 1] : "unknown";
}

MsgType peek_type(std::span<const std::byte> frame) {
  if (frame.size() < 3) {
    throw ParseError("control frame shorter than the 3-byte header");
  }
  if (static_cast<std::uint8_t>(frame[0]) != kMagic) {
    throw ParseError("control frame magic mismatch (not a control message)");
  }
  if (static_cast<std::uint8_t>(frame[1]) != kVersion) {
    throw ParseError("unsupported control protocol version " +
                     std::to_string(static_cast<std::uint8_t>(frame[1])));
  }
  const auto raw = static_cast<std::uint8_t>(frame[2]);
  if (raw < 1 || raw > Messages::size) {
    throw ParseError("unknown control message type " + std::to_string(raw));
  }
  return static_cast<MsgType>(raw);
}

common::WireReader payload_reader(std::span<const std::byte> frame,
                                  MsgType expected) {
  const MsgType got = peek_type(frame);
  if (got != expected) {
    throw ParseError(std::string("control message type mismatch: expected ") +
                     to_string(expected) + ", got " + to_string(got));
  }
  return common::WireReader(frame.subspan(3));
}

ReselectionRequest make_reselection_request(
    const afg::TaskNode& node, const std::vector<common::HostId>& excluded) {
  ReselectionRequest req;
  req.task = node.id;
  req.library_task = node.library_task;
  req.label = node.label;
  req.input_size = node.props.input_size;
  req.num_processors = node.props.num_processors;
  req.parallel = node.props.mode == afg::ComputeMode::kParallel;
  req.excluded = excluded;
  return req;
}

}  // namespace vdce::rt::wire
