// Versioned wire format for the control plane (design D14).
//
// Up to PR 6 the Resource Controller messages of messages.hpp travelled
// as C++ structs inside one address space.  To host Site Managers in
// separate OS processes every control message needs an explicit,
// versioned serialization.  Each encoded message is
//
//     u8 magic (0xC7) | u8 version (1) | u8 type | payload
//
// carried as ONE Data Manager frame (the 4-byte length prefix of the
// TCP transport delimits messages, so the wire format never needs its
// own length field).  The payload is the message's fields() in order,
// through the field codec of common/serialize.hpp; the type byte is the
// message's position in the Messages list below.
//
// Compatibility contract:
//   * decoders reject a wrong magic or an unknown version outright
//     (ParseError) -- no silent misparse of foreign bytes;
//   * decoders IGNORE trailing bytes after the fields they know, so a
//     version-1 reader accepts a version-1 message extended with new
//     trailing fields by a newer writer (the append-only evolution
//     rule);
//   * truncated payloads throw ParseError from the underlying reader.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.hpp"
#include "runtime/messages.hpp"
#include "scheduler/host_selection.hpp"

namespace vdce::afg {
struct TaskNode;
}

namespace vdce::rt::wire {

inline constexpr std::uint8_t kMagic = 0xC7;
inline constexpr std::uint8_t kVersion = 1;

/// A site daemon's liveness beacon to its watchdog.  The first beacon
/// after a (re)start also announces the kernel-assigned RPC port.
struct Heartbeat {
  common::SiteId site;
  std::int64_t pid = 0;
  std::uint64_t seq = 0;
  std::uint16_t rpc_port = 0;
  /// Restart generation: 1 for the first launch, bumped by the
  /// watchdog on every respawn so a stale pre-kill beacon can never be
  /// mistaken for the reincarnation's.
  std::uint32_t incarnation = 1;
  /// Gossip listener port (0 = gossip disabled); peers ping here.
  std::uint16_t gossip_port = 0;

  static auto fields(auto& m, auto&& v) {
    return v(m.site, m.pid, m.seq, m.rpc_port, m.incarnation, m.gossip_port);
  }
};

// -- quorum liveness (D17) -----------------------------------------------

/// One peer's health as seen by a digest's origin site.
struct PeerHealth {
  common::SiteId site;
  /// The incarnation the origin last heard from.
  std::uint32_t incarnation = 0;
  /// Seconds since the origin last heard from the peer.
  double age_s = 0.0;
  /// Whether the origin's latest probe of the peer succeeded.
  bool reachable = false;

  static auto fields(auto& m, auto&& v) {
    return v(m.site, m.incarnation, m.age_s, m.reachable);
  }
};

/// Daemon -> watchdog (piggybacked on the heartbeat channel): who the
/// origin site last heard from, with incarnation numbers.  The
/// watchdog turns fresh reachable entries into refutations and
/// unreachable ones into suspicion votes, fenced by the origin's own
/// incarnation.
struct PeerDigest {
  common::SiteId origin_site;
  std::uint32_t origin_incarnation = 0;
  std::vector<PeerHealth> peers;

  static auto fields(auto& m, auto&& v) {
    return v(m.origin_site, m.origin_incarnation, m.peers);
  }
};

/// Peer -> peer direct probe ("are you there?").
struct GossipPing {
  common::SiteId origin_site;
  std::uint64_t seq = 0;

  static auto fields(auto& m, auto&& v) { return v(m.origin_site, m.seq); }
};

/// Probe answer: the target names itself and its incarnation.
struct GossipAck {
  common::SiteId site;
  std::uint32_t incarnation = 0;
  std::uint64_t seq = 0;

  static auto fields(auto& m, auto&& v) {
    return v(m.site, m.incarnation, m.seq);
  }
};

/// Watchdog -> third site: "probe `target_site` for me" (the SWIM
/// ping-req -- an independent network path to a suspect).
struct PingReq {
  common::SiteId origin_site;
  common::SiteId target_site;
  std::uint16_t target_gossip_port = 0;
  std::uint64_t seq = 0;

  static auto fields(auto& m, auto&& v) {
    return v(m.origin_site, m.target_site, m.target_gossip_port, m.seq);
  }
};

/// Third site -> watchdog: the indirect probe's verdict.
struct PingReqReply {
  common::SiteId target_site;
  bool reachable = false;
  /// Incarnation the target answered with (0 when unreachable).
  std::uint32_t target_incarnation = 0;
  std::uint64_t seq = 0;

  static auto fields(auto& m, auto&& v) {
    return v(m.target_site, m.reachable, m.target_incarnation, m.seq);
  }
};

/// One row of a PeerRoster.
struct PeerEndpoint {
  common::SiteId site;
  std::uint16_t gossip_port = 0;
  std::uint32_t incarnation = 0;
  /// The watchdog currently suspects this site (peers that reach it
  /// should refute immediately rather than wait for the next digest).
  bool suspected = false;

  static auto fields(auto& m, auto&& v) {
    return v(m.site, m.gossip_port, m.incarnation, m.suspected);
  }
};

/// Watchdog -> daemon (gossip port): current peer membership.
struct PeerRoster {
  std::vector<PeerEndpoint> peers;

  static auto fields(auto& m, auto&& v) { return v(m.peers); }
};

/// Daemon -> watchdog (heartbeat channel): "I just heard site `site`
/// at `incarnation` -- withdraw my suspicion vote."
struct Refute {
  common::SiteId witness_site;
  common::SiteId site;
  std::uint32_t incarnation = 0;

  static auto fields(auto& m, auto&& v) {
    return v(m.witness_site, m.site, m.incarnation);
  }
};

/// Coordinator -> daemon: advance the site's Control Manager to `now`.
struct TickRequest {
  common::TimePoint now = 0.0;

  static auto fields(auto& m, auto&& v) { return v(m.now); }
};

/// Coordinator -> daemon: run the Host Selection Algorithm over the
/// AFG (shipped in afg::to_text form).
struct HostSelectionRequest {
  std::string graph_text;
  std::uint32_t threads = 1;

  static auto fields(auto& m, auto&& v) { return v(m.graph_text, m.threads); }
};

struct HostSelectionResponse {
  sched::HostSelectionMap selection;

  static auto fields(auto& m, auto&& v) { return v(m.selection); }
};

/// Coordinator -> daemon: re-place one task, excluding dead hosts.
struct ReselectionRequest {
  common::TaskId task;
  std::string library_task;
  std::string label;
  double input_size = 1.0;
  std::uint32_t num_processors = 1;
  bool parallel = false;
  std::vector<common::HostId> excluded;

  static auto fields(auto& m, auto&& v) {
    return v(m.task, m.library_task, m.label, m.input_size, m.num_processors,
             m.parallel, m.excluded);
  }
};

struct ReselectionResponse {
  sched::HostSelection selection;

  static auto fields(auto& m, auto&& v) { return v(m.selection); }
};

/// Coordinator -> daemon: post-execution feedback for the
/// task-performance database.
struct RecordTaskTime {
  std::string library_task;
  common::Duration elapsed_s = 0.0;

  static auto fields(auto& m, auto&& v) {
    return v(m.library_task, m.elapsed_s);
  }
};

/// Coordinator -> daemon: exit cleanly (answered with an Ack).
struct ShutdownRequest {
  static auto fields(auto& /*m*/, auto&& v) { return v(); }
};

/// Daemon -> coordinator: RPC succeeded with no payload.
struct Ack {
  static auto fields(auto& /*m*/, auto&& v) { return v(); }
};

/// Daemon -> coordinator: RPC failed; `what` carries the error text.
struct ErrorReply {
  std::string what;

  static auto fields(auto& m, auto&& v) { return v(m.what); }
};

// -- the registry -------------------------------------------------------

/// Every control message, in MsgType order: a message's type byte is
/// its 1-based position here.  encode, decode, peek_type and to_string
/// all derive from this list, and the wire tests put every entry through
/// round-trip, truncation, type-confusion and garbage fuzzing.
/// Append-only: a new message goes at the end (with its MsgType).
using Messages =
    common::TypeList<MonitorReport, WorkloadUpdate, LivenessChange,
                     NetworkMeasurement, RescheduleRequest, Heartbeat,
                     TickRequest, HostSelectionRequest, HostSelectionResponse,
                     ReselectionRequest, ReselectionResponse, RecordTaskTime,
                     ShutdownRequest, Ack, ErrorReply, PeerDigest, GossipPing,
                     GossipAck, PingReq, PingReqReply, PeerRoster, Refute>;

template <typename T>
concept Message = common::index_of<T>(Messages{}) < Messages::size;

/// The type byte of message `T`.
template <Message T>
inline constexpr std::uint8_t kTypeByte =
    static_cast<std::uint8_t>(common::index_of<T>(Messages{}) + 1);

/// Message discriminator (third header byte), for callers that switch
/// on peek_type().  Each value is its message's position in Messages.
enum class MsgType : std::uint8_t {
  kMonitorReport = kTypeByte<MonitorReport>,
  kWorkloadUpdate = kTypeByte<WorkloadUpdate>,
  kLivenessChange = kTypeByte<LivenessChange>,
  kNetworkMeasurement = kTypeByte<NetworkMeasurement>,
  kRescheduleRequest = kTypeByte<RescheduleRequest>,
  kHeartbeat = kTypeByte<Heartbeat>,
  // -- daemon RPCs ------------------------------------------------------
  kTickRequest = kTypeByte<TickRequest>,
  kHostSelectionRequest = kTypeByte<HostSelectionRequest>,
  kHostSelectionResponse = kTypeByte<HostSelectionResponse>,
  kReselectionRequest = kTypeByte<ReselectionRequest>,
  kReselectionResponse = kTypeByte<ReselectionResponse>,
  kRecordTaskTime = kTypeByte<RecordTaskTime>,
  kShutdownRequest = kTypeByte<ShutdownRequest>,
  kAck = kTypeByte<Ack>,
  kErrorReply = kTypeByte<ErrorReply>,
  // -- quorum liveness (D17) ---------------------------------------------
  kPeerDigest = kTypeByte<PeerDigest>,
  kGossipPing = kTypeByte<GossipPing>,
  kGossipAck = kTypeByte<GossipAck>,
  kPingReq = kTypeByte<PingReq>,
  kPingReqReply = kTypeByte<PingReqReply>,
  kPeerRoster = kTypeByte<PeerRoster>,
  kRefute = kTypeByte<Refute>,
};
static_assert(static_cast<std::size_t>(MsgType::kRefute) == Messages::size,
              "MsgType and Messages must name the same messages");

template <Message T>
inline constexpr MsgType type_of = static_cast<MsgType>(kTypeByte<T>);

[[nodiscard]] const char* to_string(MsgType type);

/// Validates the 3-byte header and returns the message type.  Throws
/// ParseError on a short buffer, wrong magic, unknown version or a type
/// byte outside Messages.
[[nodiscard]] MsgType peek_type(std::span<const std::byte> frame);

/// Checks the header and positions a reader at the payload.  The
/// expected type guards against routing bugs: a frame handed to the
/// wrong decoder fails loudly instead of misparsing.
[[nodiscard]] common::WireReader payload_reader(
    std::span<const std::byte> frame, MsgType expected);

/// Encodes `m` as one frame: header, then its fields.
template <Message T>
[[nodiscard]] std::vector<std::byte> encode(const T& m) {
  common::WireWriter w;
  w.write_u8(kMagic);
  w.write_u8(kVersion);
  w.write_u8(kTypeByte<T>);
  common::write(w, m);
  return w.take();
}

/// Decodes a `T` frame; throws ParseError on a header or type mismatch
/// and on a truncated or out-of-range payload.  Trailing bytes are
/// ignored.
template <Message T>
[[nodiscard]] T decode(std::span<const std::byte> frame) {
  common::WireReader r = payload_reader(frame, type_of<T>);
  return common::read<T>(r);
}

/// Builds a ReselectionRequest from an AFG node (the coordinator-side
/// convenience; the daemon reconstructs an equivalent node).
[[nodiscard]] ReselectionRequest make_reselection_request(
    const afg::TaskNode& node, const std::vector<common::HostId>& excluded);

}  // namespace vdce::rt::wire
