// Out-of-process control plane tests (DESIGN.md D14): the versioned
// wire format and its rejection rules, the ControlTransport seam
// (loopback and channel-backed), deadline regressions for the blocking
// transport primitives, and the site-daemon / watchdog stack -- up to
// the acceptance properties that a daemon-mode deployment is
// bit-identical to the in-process run and that a SIGKILLed daemon is
// restarted by the watchdog while the submission service fails the
// application over, with exact counter reconciliation.
#include <gtest/gtest.h>
#include <pthread.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "daemon/client.hpp"
#include "daemon/site_daemon.hpp"
#include "datamgr/channel.hpp"
#include "datamgr/frame.hpp"
#include "datamgr/tcp.hpp"
#include "netsim/chaos.hpp"
#include "netsim/testbed.hpp"
#include "predict/forecaster.hpp"
#include "repository/repository.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/control_transport.hpp"
#include "runtime/engine.hpp"
#include "runtime/site_manager.hpp"
#include "runtime/sm_directory.hpp"
#include "runtime/submission.hpp"
#include "runtime/watchdog.hpp"
#include "runtime/wire.hpp"
#include "scheduler/site_scheduler.hpp"
#include "sim/workloads.hpp"
#include "tasklib/payload.hpp"
#include "tasklib/registry.hpp"

namespace vdce::rt {
namespace {

using common::AppId;
using common::GroupId;
using common::HostId;
using common::ParseError;
using common::SiteId;
using common::TaskId;
using common::TransportError;

std::uint64_t counter_value(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

// ------------------------------------------------ wire format round trips

MonitorReport random_monitor_report(common::Rng& rng) {
  MonitorReport m;
  m.host = HostId(static_cast<std::uint32_t>(rng.uniform_int(1000)));
  m.when = rng.uniform(0.0, 1e6);
  m.cpu_load = rng.uniform(0.0, 64.0);
  m.available_memory_mb = rng.uniform(0.0, 1 << 20);
  return m;
}

WorkloadUpdate random_workload_update(common::Rng& rng) {
  WorkloadUpdate u;
  u.host = HostId(static_cast<std::uint32_t>(rng.uniform_int(1000)));
  u.when = rng.uniform(0.0, 1e6);
  u.cpu_load = rng.uniform(0.0, 64.0);
  u.available_memory_mb = rng.uniform(0.0, 1 << 20);
  return u;
}

LivenessChange random_liveness_change(common::Rng& rng) {
  LivenessChange c;
  c.host = HostId(static_cast<std::uint32_t>(rng.uniform_int(1000)));
  c.when = rng.uniform(0.0, 1e6);
  c.alive = rng.bernoulli(0.5);
  return c;
}

NetworkMeasurement random_network_measurement(common::Rng& rng) {
  NetworkMeasurement m;
  m.group = GroupId(static_cast<std::uint32_t>(rng.uniform_int(100)));
  m.when = rng.uniform(0.0, 1e6);
  m.latency_s = rng.uniform(0.0, 1.0);
  m.transfer_mb_per_s = rng.uniform(0.1, 1e4);
  return m;
}

RescheduleRequest random_reschedule_request(common::Rng& rng) {
  RescheduleRequest r;
  r.app = AppId(static_cast<std::uint32_t>(rng.uniform_int(1 << 16)));
  r.task = TaskId(static_cast<std::uint32_t>(rng.uniform_int(1 << 16)));
  r.host = HostId(static_cast<std::uint32_t>(rng.uniform_int(1000)));
  r.when = rng.uniform(0.0, 1e6);
  r.observed_load = rng.uniform(0.0, 64.0);
  r.kind = static_cast<RescheduleRequest::Kind>(rng.uniform_int(3));
  const std::size_t len = rng.uniform_int(40);
  for (std::size_t i = 0; i < len; ++i) {
    r.reason.push_back(static_cast<char>('a' + rng.uniform_int(26)));
  }
  return r;
}

sched::HostSelection random_selection(common::Rng& rng) {
  sched::HostSelection s;
  const std::size_t n = rng.uniform_int(5);
  for (std::size_t i = 0; i < n; ++i) {
    s.hosts.push_back(HostId(static_cast<std::uint32_t>(rng.uniform_int(64))));
  }
  s.predicted_s = rng.uniform(0.0, 1e3);
  const std::size_t m = rng.uniform_int(6);
  for (std::size_t i = 0; i < m; ++i) {
    s.scored.emplace_back(
        rng.uniform(0.0, 1e3),
        HostId(static_cast<std::uint32_t>(rng.uniform_int(64))));
  }
  return s;
}

void expect_selection_eq(const sched::HostSelection& a,
                         const sched::HostSelection& b) {
  EXPECT_EQ(a.hosts, b.hosts);
  EXPECT_EQ(a.predicted_s, b.predicted_s);
  EXPECT_EQ(a.scored, b.scored);
}

void expect_selection_map_eq(const sched::HostSelectionMap& a,
                             const sched::HostSelectionMap& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [task, sel] : a) {
    const auto it = b.find(task);
    ASSERT_NE(it, b.end()) << "task " << task.value() << " missing";
    expect_selection_eq(sel, it->second);
  }
}

TEST(WireFormat, MonitorReportRoundTripsBitIdentically) {
  common::Rng rng(41);
  for (int i = 0; i < 50; ++i) {
    const auto m = random_monitor_report(rng);
    const auto bytes = wire::encode(m);
    EXPECT_EQ(wire::peek_type(bytes), wire::MsgType::kMonitorReport);
    const auto d = wire::decode<MonitorReport>(bytes);
    EXPECT_EQ(d.host, m.host);
    EXPECT_EQ(d.when, m.when);
    EXPECT_EQ(d.cpu_load, m.cpu_load);
    EXPECT_EQ(d.available_memory_mb, m.available_memory_mb);
    EXPECT_EQ(wire::encode(d), bytes);
  }
}

TEST(WireFormat, WorkloadUpdateRoundTripsBitIdentically) {
  common::Rng rng(42);
  for (int i = 0; i < 50; ++i) {
    const auto u = random_workload_update(rng);
    const auto bytes = wire::encode(u);
    const auto d = wire::decode<WorkloadUpdate>(bytes);
    EXPECT_EQ(d.host, u.host);
    EXPECT_EQ(d.when, u.when);
    EXPECT_EQ(d.cpu_load, u.cpu_load);
    EXPECT_EQ(d.available_memory_mb, u.available_memory_mb);
    EXPECT_EQ(wire::encode(d), bytes);
  }
}

TEST(WireFormat, LivenessChangeRoundTripsBitIdentically) {
  common::Rng rng(43);
  for (int i = 0; i < 50; ++i) {
    const auto c = random_liveness_change(rng);
    const auto bytes = wire::encode(c);
    const auto d = wire::decode<LivenessChange>(bytes);
    EXPECT_EQ(d.host, c.host);
    EXPECT_EQ(d.when, c.when);
    EXPECT_EQ(d.alive, c.alive);
    EXPECT_EQ(wire::encode(d), bytes);
  }
}

TEST(WireFormat, NetworkMeasurementRoundTripsBitIdentically) {
  common::Rng rng(44);
  for (int i = 0; i < 50; ++i) {
    const auto m = random_network_measurement(rng);
    const auto bytes = wire::encode(m);
    const auto d = wire::decode<NetworkMeasurement>(bytes);
    EXPECT_EQ(d.group, m.group);
    EXPECT_EQ(d.when, m.when);
    EXPECT_EQ(d.latency_s, m.latency_s);
    EXPECT_EQ(d.transfer_mb_per_s, m.transfer_mb_per_s);
    EXPECT_EQ(wire::encode(d), bytes);
  }
}

TEST(WireFormat, RescheduleRequestRoundTripsBitIdentically) {
  common::Rng rng(45);
  for (int i = 0; i < 50; ++i) {
    const auto r = random_reschedule_request(rng);
    const auto bytes = wire::encode(r);
    const auto d = wire::decode<RescheduleRequest>(bytes);
    EXPECT_EQ(d.app, r.app);
    EXPECT_EQ(d.task, r.task);
    EXPECT_EQ(d.host, r.host);
    EXPECT_EQ(d.when, r.when);
    EXPECT_EQ(d.observed_load, r.observed_load);
    EXPECT_EQ(d.kind, r.kind);
    EXPECT_EQ(d.reason, r.reason);
    EXPECT_EQ(wire::encode(d), bytes);
  }
}

TEST(WireFormat, HeartbeatRoundTripsBitIdentically) {
  common::Rng rng(46);
  for (int i = 0; i < 50; ++i) {
    wire::Heartbeat h;
    h.site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    h.pid = static_cast<std::int64_t>(rng.uniform_int(1 << 22));
    h.seq = rng.uniform_int(1 << 30);
    h.rpc_port = static_cast<std::uint16_t>(rng.uniform_int(65536));
    h.incarnation = static_cast<std::uint32_t>(1 + rng.uniform_int(5));
    h.gossip_port = static_cast<std::uint16_t>(rng.uniform_int(65536));
    const auto bytes = wire::encode(h);
    const auto d = wire::decode<wire::Heartbeat>(bytes);
    EXPECT_EQ(d.site, h.site);
    EXPECT_EQ(d.pid, h.pid);
    EXPECT_EQ(d.seq, h.seq);
    EXPECT_EQ(d.rpc_port, h.rpc_port);
    EXPECT_EQ(d.incarnation, h.incarnation);
    EXPECT_EQ(d.gossip_port, h.gossip_port);
    EXPECT_EQ(wire::encode(d), bytes);
  }
}

// D17 gossip messages (types 16-22).

wire::PeerDigest random_peer_digest(common::Rng& rng) {
  wire::PeerDigest d;
  d.origin_site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
  d.origin_incarnation = static_cast<std::uint32_t>(1 + rng.uniform_int(5));
  const std::size_t n = rng.uniform_int(5);
  for (std::size_t i = 0; i < n; ++i) {
    wire::PeerHealth p;
    p.site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    p.incarnation = static_cast<std::uint32_t>(rng.uniform_int(5));
    p.age_s = rng.uniform(0.0, 10.0);
    p.reachable = rng.bernoulli(0.5);
    d.peers.push_back(p);
  }
  return d;
}

wire::PeerRoster random_peer_roster(common::Rng& rng) {
  wire::PeerRoster r;
  const std::size_t n = rng.uniform_int(5);
  for (std::size_t i = 0; i < n; ++i) {
    wire::PeerEndpoint e;
    e.site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    e.gossip_port = static_cast<std::uint16_t>(rng.uniform_int(65536));
    e.incarnation = static_cast<std::uint32_t>(1 + rng.uniform_int(5));
    e.suspected = rng.bernoulli(0.3);
    r.peers.push_back(e);
  }
  return r;
}

TEST(WireFormat, GossipMessagesRoundTripBitIdentically) {
  common::Rng rng(51);
  for (int i = 0; i < 30; ++i) {
    const auto digest = random_peer_digest(rng);
    const auto digest_bytes = wire::encode(digest);
    EXPECT_EQ(wire::peek_type(digest_bytes), wire::MsgType::kPeerDigest);
    const auto digest_d = wire::decode<wire::PeerDigest>(digest_bytes);
    EXPECT_EQ(digest_d.origin_site, digest.origin_site);
    EXPECT_EQ(digest_d.origin_incarnation, digest.origin_incarnation);
    ASSERT_EQ(digest_d.peers.size(), digest.peers.size());
    for (std::size_t p = 0; p < digest.peers.size(); ++p) {
      EXPECT_EQ(digest_d.peers[p].site, digest.peers[p].site);
      EXPECT_EQ(digest_d.peers[p].incarnation, digest.peers[p].incarnation);
      EXPECT_EQ(digest_d.peers[p].age_s, digest.peers[p].age_s);
      EXPECT_EQ(digest_d.peers[p].reachable, digest.peers[p].reachable);
    }
    EXPECT_EQ(wire::encode(digest_d), digest_bytes);

    wire::GossipPing ping;
    ping.origin_site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    ping.seq = rng.uniform_int(1 << 30);
    const auto ping_bytes = wire::encode(ping);
    const auto ping_d = wire::decode<wire::GossipPing>(ping_bytes);
    EXPECT_EQ(ping_d.origin_site, ping.origin_site);
    EXPECT_EQ(ping_d.seq, ping.seq);
    EXPECT_EQ(wire::encode(ping_d), ping_bytes);

    wire::GossipAck ack;
    ack.site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    ack.incarnation = static_cast<std::uint32_t>(1 + rng.uniform_int(5));
    ack.seq = rng.uniform_int(1 << 30);
    const auto ack_bytes = wire::encode(ack);
    const auto ack_d = wire::decode<wire::GossipAck>(ack_bytes);
    EXPECT_EQ(ack_d.site, ack.site);
    EXPECT_EQ(ack_d.incarnation, ack.incarnation);
    EXPECT_EQ(ack_d.seq, ack.seq);
    EXPECT_EQ(wire::encode(ack_d), ack_bytes);

    wire::PingReq preq;
    preq.origin_site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    preq.target_site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    preq.target_gossip_port =
        static_cast<std::uint16_t>(rng.uniform_int(65536));
    preq.seq = rng.uniform_int(1 << 30);
    const auto preq_bytes = wire::encode(preq);
    const auto preq_d = wire::decode<wire::PingReq>(preq_bytes);
    EXPECT_EQ(preq_d.origin_site, preq.origin_site);
    EXPECT_EQ(preq_d.target_site, preq.target_site);
    EXPECT_EQ(preq_d.target_gossip_port, preq.target_gossip_port);
    EXPECT_EQ(preq_d.seq, preq.seq);
    EXPECT_EQ(wire::encode(preq_d), preq_bytes);

    wire::PingReqReply prep;
    prep.target_site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    prep.reachable = rng.bernoulli(0.5);
    prep.target_incarnation = static_cast<std::uint32_t>(rng.uniform_int(5));
    prep.seq = rng.uniform_int(1 << 30);
    const auto prep_bytes = wire::encode(prep);
    const auto prep_d = wire::decode<wire::PingReqReply>(prep_bytes);
    EXPECT_EQ(prep_d.target_site, prep.target_site);
    EXPECT_EQ(prep_d.reachable, prep.reachable);
    EXPECT_EQ(prep_d.target_incarnation, prep.target_incarnation);
    EXPECT_EQ(prep_d.seq, prep.seq);
    EXPECT_EQ(wire::encode(prep_d), prep_bytes);

    const auto roster = random_peer_roster(rng);
    const auto roster_bytes = wire::encode(roster);
    const auto roster_d = wire::decode<wire::PeerRoster>(roster_bytes);
    ASSERT_EQ(roster_d.peers.size(), roster.peers.size());
    for (std::size_t p = 0; p < roster.peers.size(); ++p) {
      EXPECT_EQ(roster_d.peers[p].site, roster.peers[p].site);
      EXPECT_EQ(roster_d.peers[p].gossip_port, roster.peers[p].gossip_port);
      EXPECT_EQ(roster_d.peers[p].incarnation, roster.peers[p].incarnation);
      EXPECT_EQ(roster_d.peers[p].suspected, roster.peers[p].suspected);
    }
    EXPECT_EQ(wire::encode(roster_d), roster_bytes);

    wire::Refute refute;
    refute.witness_site =
        SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    refute.site = SiteId(static_cast<std::uint32_t>(rng.uniform_int(8)));
    refute.incarnation = static_cast<std::uint32_t>(1 + rng.uniform_int(5));
    const auto refute_bytes = wire::encode(refute);
    const auto refute_d = wire::decode<wire::Refute>(refute_bytes);
    EXPECT_EQ(refute_d.witness_site, refute.witness_site);
    EXPECT_EQ(refute_d.site, refute.site);
    EXPECT_EQ(refute_d.incarnation, refute.incarnation);
    EXPECT_EQ(wire::encode(refute_d), refute_bytes);
  }
}

TEST(WireFormat, RpcMessagesRoundTripBitIdentically) {
  common::Rng rng(47);
  for (int i = 0; i < 30; ++i) {
    wire::TickRequest tick;
    tick.now = rng.uniform(0.0, 1e6);
    EXPECT_EQ(wire::decode<wire::TickRequest>(wire::encode(tick)).now,
              tick.now);
    EXPECT_EQ(
        wire::encode(wire::decode<wire::TickRequest>(wire::encode(tick))),
        wire::encode(tick));

    wire::HostSelectionRequest hs;
    hs.graph_text = "graph " + std::to_string(rng.uniform_int(1 << 20));
    hs.threads = static_cast<std::uint32_t>(1 + rng.uniform_int(8));
    const auto hs_bytes = wire::encode(hs);
    const auto hs_d = wire::decode<wire::HostSelectionRequest>(hs_bytes);
    EXPECT_EQ(hs_d.graph_text, hs.graph_text);
    EXPECT_EQ(hs_d.threads, hs.threads);
    EXPECT_EQ(wire::encode(hs_d), hs_bytes);

    wire::HostSelectionResponse resp;
    const std::size_t tasks = rng.uniform_int(6);
    for (std::size_t t = 0; t < tasks; ++t) {
      resp.selection[TaskId(static_cast<std::uint32_t>(t))] =
          random_selection(rng);
    }
    const auto resp_bytes = wire::encode(resp);
    const auto resp_d = wire::decode<wire::HostSelectionResponse>(resp_bytes);
    expect_selection_map_eq(resp.selection, resp_d.selection);
    // Entries are encoded sorted by task id, so the re-encode is
    // bit-identical regardless of unordered_map iteration order.
    EXPECT_EQ(wire::encode(resp_d), resp_bytes);

    wire::ReselectionRequest rs;
    rs.task = TaskId(static_cast<std::uint32_t>(rng.uniform_int(1 << 16)));
    rs.library_task = "task_" + std::to_string(rng.uniform_int(100));
    rs.label = "label_" + std::to_string(rng.uniform_int(100));
    rs.input_size = rng.uniform(0.0, 1e3);
    rs.num_processors = static_cast<std::uint32_t>(1 + rng.uniform_int(16));
    rs.parallel = rng.bernoulli(0.5);
    const std::size_t ex = rng.uniform_int(5);
    for (std::size_t e = 0; e < ex; ++e) {
      rs.excluded.push_back(
          HostId(static_cast<std::uint32_t>(rng.uniform_int(64))));
    }
    const auto rs_bytes = wire::encode(rs);
    const auto rs_d = wire::decode<wire::ReselectionRequest>(rs_bytes);
    EXPECT_EQ(rs_d.task, rs.task);
    EXPECT_EQ(rs_d.library_task, rs.library_task);
    EXPECT_EQ(rs_d.label, rs.label);
    EXPECT_EQ(rs_d.input_size, rs.input_size);
    EXPECT_EQ(rs_d.num_processors, rs.num_processors);
    EXPECT_EQ(rs_d.parallel, rs.parallel);
    EXPECT_EQ(rs_d.excluded, rs.excluded);
    EXPECT_EQ(wire::encode(rs_d), rs_bytes);

    wire::ReselectionResponse rr;
    rr.selection = random_selection(rng);
    const auto rr_bytes = wire::encode(rr);
    const auto rr_d = wire::decode<wire::ReselectionResponse>(rr_bytes);
    expect_selection_eq(rr.selection, rr_d.selection);
    EXPECT_EQ(wire::encode(rr_d), rr_bytes);

    wire::RecordTaskTime rt;
    rt.library_task = "task_" + std::to_string(rng.uniform_int(100));
    rt.elapsed_s = rng.uniform(0.0, 1e3);
    const auto rt_bytes = wire::encode(rt);
    const auto rt_d = wire::decode<wire::RecordTaskTime>(rt_bytes);
    EXPECT_EQ(rt_d.library_task, rt.library_task);
    EXPECT_EQ(rt_d.elapsed_s, rt.elapsed_s);
    EXPECT_EQ(wire::encode(rt_d), rt_bytes);

    wire::ErrorReply err;
    err.what = "error " + std::to_string(rng.uniform_int(1 << 20));
    const auto err_bytes = wire::encode(err);
    EXPECT_EQ(wire::decode<wire::ErrorReply>(err_bytes).what, err.what);
  }

  EXPECT_EQ(wire::peek_type(wire::encode(wire::Ack{})), wire::MsgType::kAck);
  EXPECT_EQ(wire::peek_type(wire::encode(wire::ShutdownRequest{})),
            wire::MsgType::kShutdownRequest);
}

// ----------------------------------------------------- wire rejections

TEST(WireFormat, RejectsShortBuffers) {
  const auto bytes = wire::encode(WorkloadUpdate{});
  for (std::size_t len = 0; len < 3; ++len) {
    EXPECT_THROW(
        (void)wire::peek_type(std::span<const std::byte>(bytes.data(), len)),
        ParseError)
        << "header prefix of " << len << " bytes accepted";
  }
}

TEST(WireFormat, RejectsWrongMagic) {
  auto bytes = wire::encode(WorkloadUpdate{});
  bytes[0] = std::byte{0x00};
  EXPECT_THROW((void)wire::peek_type(bytes), ParseError);
  bytes[0] = std::byte{0xC8};
  EXPECT_THROW((void)wire::decode<WorkloadUpdate>(bytes), ParseError);
}

TEST(WireFormat, RejectsUnknownVersion) {
  auto bytes = wire::encode(WorkloadUpdate{});
  bytes[1] = std::byte{2};
  EXPECT_THROW((void)wire::peek_type(bytes), ParseError);
  bytes[1] = std::byte{0};
  EXPECT_THROW((void)wire::peek_type(bytes), ParseError);
}

TEST(WireFormat, RejectsUnknownMessageType) {
  auto bytes = wire::encode(WorkloadUpdate{});
  for (const std::uint8_t type : {std::uint8_t{0}, std::uint8_t{23},
                                  std::uint8_t{200}, std::uint8_t{255}}) {
    bytes[2] = std::byte{type};
    EXPECT_THROW((void)wire::peek_type(bytes), ParseError)
        << "type " << int(type) << " accepted";
  }
}

TEST(WireFormat, RejectsTruncationAtEveryPrefix) {
  common::Rng rng(48);
  const auto full = wire::encode(random_reschedule_request(rng));
  ASSERT_GT(full.size(), 3u);
  for (std::size_t len = 3; len < full.size(); ++len) {
    const std::span<const std::byte> prefix(full.data(), len);
    EXPECT_THROW((void)wire::decode<RescheduleRequest>(prefix), ParseError)
        << "prefix of " << len << "/" << full.size() << " bytes accepted";
  }
  const auto fixed = wire::encode(random_network_measurement(rng));
  for (std::size_t len = 3; len < fixed.size(); ++len) {
    const std::span<const std::byte> prefix(fixed.data(), len);
    EXPECT_THROW((void)wire::decode<NetworkMeasurement>(prefix), ParseError);
  }
}

TEST(WireFormat, IgnoresTrailingBytesForForwardCompatibility) {
  common::Rng rng(49);
  const auto u = random_workload_update(rng);
  auto bytes = wire::encode(u);
  for (int i = 0; i < 7; ++i) bytes.push_back(std::byte{0xEE});
  const auto d = wire::decode<WorkloadUpdate>(bytes);
  EXPECT_EQ(d.host, u.host);
  EXPECT_EQ(d.cpu_load, u.cpu_load);
}

TEST(WireFormat, CorruptRescheduleKindNeverEscapesTheEnumRange) {
  auto bytes = wire::encode(RescheduleRequest{});
  // Corrupt every payload byte position; the decode must either reject
  // (ParseError) or produce an in-range kind -- never a silently
  // out-of-range enum value.
  for (std::size_t pos = 3; pos < bytes.size(); ++pos) {
    auto corrupt = bytes;
    corrupt[pos] = std::byte{0xFF};
    try {
      const auto d = wire::decode<RescheduleRequest>(corrupt);
      EXPECT_LE(static_cast<std::uint8_t>(d.kind), 2u);
    } catch (const ParseError&) {
      // rejection is equally acceptable
    }
  }
}

/// Calls `f.template operator()<T>()` for every T in wire::Messages.
template <typename F>
void for_each_message(F&& f) {
  [&]<typename... T>(common::TypeList<T...>) {
    (f.template operator()<T>(), ...);
  }(wire::Messages{});
}

TEST(WireFormat, GarbagePayloadsNeverEscapeParseError) {
  // Fuzz: every message type's valid header with random payloads must
  // either decode or throw ParseError -- nothing else, and never crash.
  common::Rng rng(50);
  for_each_message([&]<typename T>() {
    for (int i = 0; i < 40; ++i) {
      std::vector<std::byte> bytes = {std::byte{wire::kMagic},
                                      std::byte{wire::kVersion},
                                      std::byte{wire::kTypeByte<T>}};
      const std::size_t len = rng.uniform_int(64);
      for (std::size_t b = 0; b < len; ++b) {
        bytes.push_back(
            std::byte{static_cast<std::uint8_t>(rng.uniform_int(256))});
      }
      try {
        (void)wire::decode<T>(bytes);
      } catch (const ParseError&) {
        // the only acceptable failure mode
      }
    }
  });

  // Task payloads under the same garbage, fed to both from_wire
  // overloads (the copying span one and the borrowing FrameView one):
  // each image decodes through its type's accessor or throws
  // ParseError, and the two overloads agree on which.
  const auto decode_payload = [](const tasklib::Payload& p) {
    using tasklib::PayloadType;
    switch (p.type()) {
      case PayloadType::kScalar:
        (void)p.as_scalar();
        break;
      case PayloadType::kVector:
        (void)p.as_vector();
        break;
      case PayloadType::kMatrix:
        (void)p.as_matrix();
        break;
      case PayloadType::kLuFactors:
        (void)p.as_lu();
        break;
      case PayloadType::kComplexVector:
        (void)p.as_complex_vector();
        break;
      case PayloadType::kReportScans:
        (void)p.as_report_scans();
        break;
      case PayloadType::kDetectionScans:
        (void)p.as_detection_scans();
        break;
      case PayloadType::kTracks:
        (void)p.as_tracks();
        break;
      case PayloadType::kThreats:
        (void)p.as_threats();
        break;
      case PayloadType::kText:
        (void)p.as_text();
        break;
    }
  };
  const auto parses = [&](auto make) {
    try {
      decode_payload(make());
      return true;
    } catch (const ParseError&) {
      return false;  // the only acceptable failure mode
    }
  };
  for (int i = 0; i < 400; ++i) {
    std::vector<std::byte> image;
    const std::size_t len = rng.uniform_int(64);
    for (std::size_t b = 0; b < len; ++b) {
      image.push_back(
          std::byte{static_cast<std::uint8_t>(rng.uniform_int(256))});
    }
    // A known tag most of the time, so the bodies reach the decoders.
    if (!image.empty() && rng.uniform_int(4) != 0) {
      image[0] = std::byte{static_cast<std::uint8_t>(1 + rng.uniform_int(10))};
    }
    const bool copied = parses([&] {
      return tasklib::Payload::from_wire(std::span<const std::byte>(image));
    });
    const bool borrowed = parses([&] {
      return tasklib::Payload::from_wire(
          dm::FramePool::global().copy_of(image));
    });
    EXPECT_EQ(copied, borrowed) << "image " << i;
  }
}

// ------------------------------------------------- wire v1 golden bytes
//
// One fixed instance of every message type with the exact frame wire v1
// gives it, vectors, strings and maps non-empty.  Any codec change that
// moves a single byte fails here.

std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out.push_back(kDigits[static_cast<std::uint8_t>(b) >> 4]);
    out.push_back(kDigits[static_cast<std::uint8_t>(b) & 0xF]);
  }
  return out;
}

sched::HostSelection golden_selection(std::vector<HostId> hosts,
                                      double predicted_s) {
  sched::HostSelection s;
  s.hosts = hosts;
  s.predicted_s = predicted_s;
  for (const HostId h : hosts) {
    s.scored.emplace_back(predicted_s + h.value() * 0.25, h);
  }
  return s;
}

/// (encoded instance, its wire v1 bytes in hex), in MsgType order.
std::vector<std::pair<std::vector<std::byte>, std::string>> golden_frames() {
  wire::HostSelectionResponse response;
  response.selection[TaskId(2)] =
      golden_selection({HostId(3), HostId(4)}, 1.25);
  response.selection[TaskId(1)] = golden_selection({HostId(5)}, 2.0);
  return {
      {wire::encode(MonitorReport{HostId(7), 12.5, 0.75, 2048.0}),
       "c701010000000740290000000000003fe800000000000040a0000000"
       "000000"},
      {wire::encode(WorkloadUpdate{HostId(8), 13.25, 1.5, 1024.0}),
       "c7010200000008402a8000000000003ff80000000000004090000000"
       "000000"},
      {wire::encode(LivenessChange{HostId(9), 14.0, true}),
       "c7010300000009402c00000000000001"},
      {wire::encode(NetworkMeasurement{GroupId(2), 15.5, 0.002, 12.5}),
       "c7010400000002402f0000000000003f60624dd2f1a9fc4029000000"
       "000000"},
      {wire::encode(RescheduleRequest{AppId(3), TaskId(4), HostId(5), 16.0,
                                      0.9,
                                      RescheduleRequest::Kind::kHostFailure,
                                      "host down"}),
       "c7010500000003000000040000000540300000000000003feccccccc"
       "cccccd0100000009686f737420646f776e"},
      {wire::encode(wire::Heartbeat{SiteId(1), 4242, 99, 5000, 3, 5001}),
       "c7010600000001000000000000109200000000000000631388000000"
       "031389"},
      {wire::encode(wire::TickRequest{17.5}), "c701074031800000000000"},
      {wire::encode(wire::HostSelectionRequest{
           "app demo\ntask a synth_source\n", 4}),
       "c701080000001d6170702064656d6f0a7461736b20612073796e7468"
       "5f736f757263650a00000004"},
      {wire::encode(response),
       "c7010900000002000000010000000100000005400000000000000000"
       "000001400a0000000000000000000500000002000000020000000300"
       "0000043ff40000000000000000000240000000000000000000000340"
       "0200000000000000000004"},
      {wire::encode(wire::ReselectionRequest{TaskId(6), "lu_decomposition",
                                             "lu1", 2.0, 2, true,
                                             {HostId(1), HostId(3)}}),
       "c7010a00000006000000106c755f6465636f6d706f736974696f6e00"
       "0000036c753140000000000000000000000201000000020000000100"
       "000003"},
      {wire::encode(wire::ReselectionResponse{
           golden_selection({HostId(2), HostId(6)}, 0.5)}),
       "c7010b0000000200000002000000063fe0000000000000000000023f"
       "f000000000000000000002400000000000000000000006"},
      {wire::encode(wire::RecordTaskTime{"fft", 0.125}),
       "c7010c000000036666743fc0000000000000"},
      {wire::encode(wire::ShutdownRequest{}), "c7010d"},
      {wire::encode(wire::Ack{}), "c7010e"},
      {wire::encode(wire::ErrorReply{"no such task"}),
       "c7010f0000000c6e6f2073756368207461736b"},
      {wire::encode(wire::PeerDigest{
           SiteId(2), 3,
           {{SiteId(0), 1, 0.5, true}, {SiteId(1), 2, 4.0, false}}}),
       "c7011000000002000000030000000200000000000000013fe0000000"
       "000000010000000100000002401000000000000000"},
      {wire::encode(wire::GossipPing{SiteId(1), 77}),
       "c7011100000001000000000000004d"},
      {wire::encode(wire::GossipAck{SiteId(2), 3, 77}),
       "c701120000000200000003000000000000004d"},
      {wire::encode(wire::PingReq{SiteId(0), SiteId(2), 6001, 78}),
       "c7011300000000000000021771000000000000004e"},
      {wire::encode(wire::PingReqReply{SiteId(2), true, 3, 78}),
       "c70114000000020100000003000000000000004e"},
      {wire::encode(wire::PeerRoster{
           {{SiteId(0), 6000, 1, false}, {SiteId(2), 6002, 3, true}}}),
       "c7011500000002000000001770000000010000000002177200000003"
       "01"},
      {wire::encode(wire::Refute{SiteId(1), SiteId(2), 3}),
       "c70116000000010000000200000003"},
  };
}

TEST(WireGolden, EveryMessageTypeEncodesToItsV1Bytes) {
  const auto frames = golden_frames();
  ASSERT_EQ(frames.size(), 22u);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const auto& [frame, expected] = frames[i];
    EXPECT_EQ(static_cast<std::size_t>(wire::peek_type(frame)), i + 1);
    EXPECT_EQ(hex(frame), expected)
        << wire::to_string(wire::peek_type(frame));
  }
}

// ------------------------------------------ every message in the list
//
// Typed over wire::Messages: a message joins every test below by being
// appended to the list.  Instances are random and non-empty -- each
// string, vector and map holds at least one element -- and are built
// from the same fields() lists the codec walks.

template <typename T>
void randomize(common::Rng& rng, T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = rng.bernoulli(0.5);
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(
        rng.uniform_int(static_cast<std::uint64_t>(enum_max(T{})) + 1));
  } else if constexpr (std::is_integral_v<T>) {
    v = static_cast<T>(rng.uniform_int(std::uint64_t{1} << 40));
  } else if constexpr (std::is_floating_point_v<T>) {
    v = rng.uniform(-1e6, 1e6);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v.assign(1 + rng.uniform_int(12), 'a');
    for (char& c : v) c = static_cast<char>('a' + rng.uniform_int(26));
  } else if constexpr (common::detail::kIsId<T>) {
    v = T(static_cast<std::uint32_t>(rng.uniform_int(1 << 16)));
  } else if constexpr (common::detail::kIsPair<T>) {
    randomize(rng, v.first);
    randomize(rng, v.second);
  } else if constexpr (common::detail::kIsVector<T>) {
    v.resize(1 + rng.uniform_int(4));
    for (auto& e : v) randomize(rng, e);
  } else if constexpr (common::detail::kIsMap<T>) {
    const std::size_t n = 1 + rng.uniform_int(4);
    while (v.size() < n) {
      std::pair<typename T::key_type, typename T::mapped_type> e;
      randomize(rng, e);
      v.insert(std::move(e));
    }
  } else {
    T::fields(v, [&rng](auto&... f) { (randomize(rng, f), ...); });
  }
}

template <typename T>
T random_message(common::Rng& rng) {
  T m{};
  randomize(rng, m);
  return m;
}

template <typename List>
struct GTestTypes;
template <typename... T>
struct GTestTypes<common::TypeList<T...>> {
  using type = ::testing::Types<T...>;
};

struct MessageName {
  template <typename T>
  static std::string GetName(int) {
    return wire::to_string(wire::type_of<T>);
  }
};

template <typename T>
class WireMessage : public ::testing::Test {};
TYPED_TEST_SUITE(WireMessage, GTestTypes<wire::Messages>::type, MessageName);

TYPED_TEST(WireMessage, RoundTripsBitIdentically) {
  common::Rng rng(60 + wire::kTypeByte<TypeParam>);
  for (int i = 0; i < 30; ++i) {
    const auto bytes = wire::encode(random_message<TypeParam>(rng));
    EXPECT_EQ(wire::peek_type(bytes), wire::type_of<TypeParam>);
    EXPECT_EQ(wire::encode(wire::decode<TypeParam>(bytes)), bytes);
  }
  const auto empty = wire::encode(TypeParam{});
  EXPECT_EQ(wire::encode(wire::decode<TypeParam>(empty)), empty);
}

TYPED_TEST(WireMessage, DecodesItsGoldenFrame) {
  const auto frames = golden_frames();
  const auto& golden = frames[wire::kTypeByte<TypeParam> - 1].first;
  EXPECT_EQ(wire::encode(wire::decode<TypeParam>(golden)), golden);
}

TYPED_TEST(WireMessage, RejectsTruncationAtEveryPrefix) {
  common::Rng rng(90 + wire::kTypeByte<TypeParam>);
  const auto bytes = wire::encode(random_message<TypeParam>(rng));
  for (std::size_t len = 3; len < bytes.size(); ++len) {
    const std::span<const std::byte> prefix(bytes.data(), len);
    EXPECT_THROW((void)wire::decode<TypeParam>(prefix), ParseError)
        << "prefix of " << len << "/" << bytes.size() << " bytes accepted";
  }
}

TYPED_TEST(WireMessage, RejectsEveryOtherMessageType) {
  common::Rng rng(120 + wire::kTypeByte<TypeParam>);
  for_each_message([&]<typename U>() {
    if constexpr (!std::is_same_v<U, TypeParam>) {
      for (const auto& frame :
           {wire::encode(U{}), wire::encode(random_message<U>(rng))}) {
        EXPECT_THROW((void)wire::decode<TypeParam>(frame), ParseError)
            << "decoded a " << wire::to_string(wire::type_of<U>) << " frame";
      }
    }
  });
}

// ------------------------------------------------- transport dispatching

/// Sink recording every dispatched message for inspection.
struct RecordingSink final : ControlSink {
  std::vector<WorkloadUpdate> workloads;
  std::vector<LivenessChange> liveness;
  std::vector<NetworkMeasurement> network;
  std::vector<RescheduleRequest> reschedules;

  void on_workload(const WorkloadUpdate& u) override {
    workloads.push_back(u);
  }
  void on_liveness(const LivenessChange& c) override { liveness.push_back(c); }
  void on_network(const NetworkMeasurement& m) override {
    network.push_back(m);
  }
  void on_reschedule(const RescheduleRequest& r) override {
    reschedules.push_back(r);
  }
};

TEST(ControlDispatch, RoutesEachControlMessageToItsHandler) {
  common::Rng rng(51);
  RecordingSink sink;
  const auto u = random_workload_update(rng);
  const auto c = random_liveness_change(rng);
  const auto m = random_network_measurement(rng);
  const auto r = random_reschedule_request(rng);
  dispatch_control_frame(wire::encode(u), sink);
  dispatch_control_frame(wire::encode(c), sink);
  dispatch_control_frame(wire::encode(m), sink);
  dispatch_control_frame(wire::encode(r), sink);
  ASSERT_EQ(sink.workloads.size(), 1u);
  ASSERT_EQ(sink.liveness.size(), 1u);
  ASSERT_EQ(sink.network.size(), 1u);
  ASSERT_EQ(sink.reschedules.size(), 1u);
  EXPECT_EQ(sink.workloads[0].host, u.host);
  EXPECT_EQ(sink.liveness[0].alive, c.alive);
  EXPECT_EQ(sink.network[0].group, m.group);
  EXPECT_EQ(sink.reschedules[0].reason, r.reason);
}

TEST(ControlDispatch, MonitorReportArrivesAsWorkloadUpdate) {
  common::Rng rng(52);
  RecordingSink sink;
  const auto report = random_monitor_report(rng);
  dispatch_control_frame(wire::encode(report), sink);
  ASSERT_EQ(sink.workloads.size(), 1u);
  EXPECT_EQ(sink.workloads[0].host, report.host);
  EXPECT_EQ(sink.workloads[0].when, report.when);
  EXPECT_EQ(sink.workloads[0].cpu_load, report.cpu_load);
}

TEST(ControlDispatch, RejectsRpcMessagesOnControlChannel) {
  RecordingSink sink;
  EXPECT_THROW(dispatch_control_frame(wire::encode(wire::TickRequest{}), sink),
               ParseError);
  EXPECT_THROW(
      dispatch_control_frame(wire::encode(wire::ShutdownRequest{}), sink),
      ParseError);
}

TEST(ControlTransport, LoopbackDispatchesSynchronouslyAndCounts) {
  common::Rng rng(53);
  RecordingSink sink;
  LoopbackControlTransport transport(sink);
  std::size_t bytes = 0;
  for (int i = 0; i < 5; ++i) {
    const auto frame = wire::encode(random_workload_update(rng));
    bytes += frame.size();
    transport.publish(frame);
    EXPECT_EQ(sink.workloads.size(), static_cast<std::size_t>(i + 1));
  }
  EXPECT_EQ(transport.stats().messages, 5u);
  EXPECT_EQ(transport.stats().bytes, bytes);
}

TEST(ControlTransport, ChannelTransportDrainsOverInProcPair) {
  common::Rng rng(54);
  auto pair = dm::make_inproc_pair();
  ChannelControlTransport transport(*pair.sender);
  const auto u = random_workload_update(rng);
  const auto c = random_liveness_change(rng);
  const auto m = random_network_measurement(rng);
  transport.publish(wire::encode(u));
  transport.publish(wire::encode(c));
  transport.publish(wire::encode(m));
  EXPECT_EQ(transport.stats().messages, 3u);

  RecordingSink sink;
  EXPECT_EQ(drain_control_channel(*pair.receiver, sink, 3), 3u);
  ASSERT_EQ(sink.workloads.size(), 1u);
  ASSERT_EQ(sink.liveness.size(), 1u);
  ASSERT_EQ(sink.network.size(), 1u);
  EXPECT_EQ(sink.workloads[0].when, u.when);
  EXPECT_EQ(sink.liveness[0].host, c.host);
  EXPECT_EQ(sink.network[0].latency_s, m.latency_s);
}

TEST(ControlTransport, ChannelTransportDrainsUntilTcpClose) {
  common::Rng rng(55);
  dm::TcpListener listener;
  auto client = dm::tcp_connect(listener.port());
  auto server = listener.accept();

  ChannelControlTransport transport(*client);
  constexpr int kMessages = 32;
  for (int i = 0; i < kMessages; ++i) {
    transport.publish(wire::encode(random_workload_update(rng)));
  }
  client->close();

  RecordingSink sink;
  EXPECT_EQ(drain_control_channel(*server, sink),
            static_cast<std::size_t>(kMessages));
  EXPECT_EQ(sink.workloads.size(), static_cast<std::size_t>(kMessages));
}

TEST(ControlTransport, OversizedFrameIsRejectedOutright) {
  dm::TcpListener listener;
  auto client = dm::tcp_connect(listener.port());
  auto server = listener.accept();
  client->set_max_message_bytes(8);
  ChannelControlTransport transport(*client);
  RescheduleRequest r;
  r.reason = std::string(64, 'x');
  EXPECT_THROW(transport.publish(wire::encode(r)), TransportError);
  EXPECT_EQ(transport.stats().messages, 0u);
}

// ------------------------- ControlManager over the wire == loopback

/// One site's stack (repository, forecaster, manager, control) built
/// from a seeded campus testbed.
struct SiteStack {
  std::unique_ptr<netsim::VirtualTestbed> testbed;
  std::unique_ptr<repo::SiteRepository> repository;
  std::unique_ptr<predict::LoadForecaster> forecaster;
  std::unique_ptr<SiteManager> manager;
  std::unique_ptr<ControlManager> control;

  explicit SiteStack(std::uint64_t seed, SiteId site = SiteId(0)) {
    testbed = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(seed));
    repository = std::make_unique<repo::SiteRepository>(site);
    tasklib::builtin_registry().install_defaults(repository->tasks());
    testbed->populate_repository(*repository, site);
    repository->users().add_user("hpdc", "nynet", 1, "wan");
    forecaster = std::make_unique<predict::LoadForecaster>();
    manager = std::make_unique<SiteManager>(site, *repository, *forecaster);
    control = std::make_unique<ControlManager>(*testbed, site, *manager);
  }
};

TEST(ControlTransport, ManagerOverChannelMatchesLoopback) {
  // Two identical stacks; A keeps the default loopback, B publishes its
  // control traffic over a channel drained into B's Site Manager.  The
  // resulting Host Selections must agree exactly -- the wire adds
  // latency, never information loss.
  SiteStack a(7);
  SiteStack b(7);
  auto pair = dm::make_inproc_pair();
  b.control->set_transport(
      std::make_unique<ChannelControlTransport>(*pair.sender));

  for (double t = 1.0; t <= 10.0; t += 1.0) {
    a.control->tick(t);
    b.control->tick(t);
  }
  const auto sent = b.control->stats().control_messages_sent;
  EXPECT_EQ(sent, a.control->stats().control_messages_sent);
  EXPECT_GT(sent, 0u);

  SiteManagerSink sink(*b.manager);
  EXPECT_EQ(drain_control_channel(*pair.receiver, sink, sent), sent);

  const auto graph = sim::make_linear_solver_graph();
  expect_selection_map_eq(a.manager->host_selection_request(graph),
                          b.manager->host_selection_request(graph));
}

// -------------------------------- deadline regressions (satellite 3)

TEST(Deadlines, ReceiveForHonorsDeadlineUnderEventLoopStorm) {
  // A flood on one channel of the shared event loop must not stretch
  // (or shrink) another channel's receive_for deadline.
  dm::TcpListener idle_listener;
  auto idle_tx = dm::tcp_connect(idle_listener.port());
  auto idle_rx = idle_listener.accept();

  dm::TcpListener busy_listener;
  auto busy_tx = dm::tcp_connect(busy_listener.port());
  auto busy_rx = busy_listener.accept();

  std::atomic<bool> stop{false};
  std::thread flooder([&] {
    const std::vector<std::byte> payload(64, std::byte{0x5A});
    try {
      while (!stop.load()) busy_tx->send(payload);
    } catch (const TransportError&) {
      // close() below can race one last in-flight send (EPIPE).
    }
  });
  std::thread drainer([&] {
    try {
      while (busy_rx->receive().has_value()) {
      }
    } catch (const TransportError&) {
      // The teardown close() can land mid-frame on the busy stream.
    }
  });

  const double start = common::steady_clock().now();
  EXPECT_THROW((void)idle_rx->receive_for(0.4), TransportError);
  const double elapsed = common::steady_clock().now() - start;
  EXPECT_GE(elapsed, 0.35);
  EXPECT_LE(elapsed, 2.0) << "deadline stretched under the notify storm";

  stop.store(true);
  busy_tx->close();
  flooder.join();
  drainer.join();
}

void sigusr1_noop(int) {}

TEST(Deadlines, AcceptForHonorsDeadlineUnderSignalStorm) {
  // Regression for the EINTR bug: accept_for used to restart its FULL
  // timeout after every interrupted poll, so a steady signal stream
  // (period << timeout) postponed the deadline forever.  The fix
  // recomputes the remaining time against a monotonic deadline.
  struct sigaction sa = {};
  sa.sa_handler = sigusr1_noop;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // no SA_RESTART: poll must see EINTR
  struct sigaction old = {};
  ASSERT_EQ(sigaction(SIGUSR1, &sa, &old), 0);

  const pthread_t victim = pthread_self();
  std::atomic<bool> stop{false};
  std::thread storm([&] {
    while (!stop.load()) {
      pthread_kill(victim, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  dm::TcpListener listener;  // nobody ever connects
  const double start = common::steady_clock().now();
  EXPECT_THROW((void)listener.accept_for(0.5), TransportError);
  const double elapsed = common::steady_clock().now() - start;
  EXPECT_GE(elapsed, 0.45);
  EXPECT_LE(elapsed, 3.0) << "EINTR restarted the timeout";

  stop.store(true);
  storm.join();
  sigaction(SIGUSR1, &old, nullptr);
}

// ------------------------------------------- site daemon + watchdog

constexpr std::uint64_t kDaemonSeed = 13;

WatchdogConfig test_watchdog_config() {
  WatchdogConfig config;
  config.daemon_path = VDCE_SITE_DAEMON_PATH;
  config.seed = kDaemonSeed;
  config.heartbeat_period_s = 0.02;
  config.heartbeat_timeout_s = 2.0;
  config.max_restarts = 3;
  config.restart_backoff_s = 0.02;
  config.restart_backoff_multiplier = 2.0;
  return config;
}

TEST(SiteDaemon, RemoteSelectionMatchesInProcessManager) {
  Watchdog watchdog(test_watchdog_config());
  watchdog.spawn(SiteId(0));
  daemon::DaemonClient client(watchdog.rpc_port(SiteId(0)));

  SiteStack local(kDaemonSeed);
  for (double t = 1.0; t <= 10.0; t += 1.0) {
    client.tick(t);
    local.control->tick(t);
  }

  const auto graph = sim::make_linear_solver_graph();
  expect_selection_map_eq(client.host_selection(graph, 1),
                          local.manager->host_selection_request(graph));

  // Post-execution feedback lands in both performance databases and
  // keeps them in lockstep.
  client.record_task_time("linear_solve", 2.5);
  local.manager->record_task_time("linear_solve", 2.5);
  expect_selection_map_eq(client.host_selection(graph, 1),
                          local.manager->host_selection_request(graph));

  // Reselection agrees too (exclude the winner, compare the runner-up).
  const auto first = graph.task(TaskId(0));
  const auto local_sel = local.manager->reschedule_request(first, {});
  ASSERT_TRUE(local_sel.feasible());
  const std::vector<HostId> excluded = {local_sel.hosts.front()};
  expect_selection_eq(client.host_reselection(first, excluded),
                      local.manager->reschedule_request(first, excluded));
}

TEST(SiteDaemon, RejectsAReselectionOfAParallelTaskOnZeroProcessors) {
  // The node crosses the wire unchecked; host selection would pick
  // "the first 0 hosts" and index before the start of its ranking.
  Watchdog watchdog(test_watchdog_config());
  watchdog.spawn(SiteId(0));
  daemon::DaemonClient client(watchdog.rpc_port(SiteId(0)));
  afg::TaskNode node = sim::make_linear_solver_graph().task(TaskId(0));
  node.props.mode = afg::ComputeMode::kParallel;
  node.props.num_processors = 0;
  EXPECT_THROW((void)client.host_reselection(node, {}), common::StateError);
  // The session survives the ErrorReply.
  node.props.num_processors = 1;
  EXPECT_TRUE(client.host_reselection(node, {}).feasible());
}

TEST(SiteDaemon, WatchdogRestartsSigkilledDaemonAndClientReattaches) {
  const auto site_down_before = counter_value("watchdog.site_down");
  const auto restarts_before = counter_value("watchdog.restarts");

  Watchdog watchdog(test_watchdog_config());
  std::atomic<int> down_events{0};
  std::atomic<int> up_events{0};
  watchdog.set_on_site_down([&](SiteId) { down_events.fetch_add(1); });
  watchdog.set_on_site_up([&](SiteId) { up_events.fetch_add(1); });

  watchdog.spawn(SiteId(0));
  const auto port1 = watchdog.rpc_port(SiteId(0));
  daemon::DaemonClient first(port1);
  first.tick(1.0);
  const auto status1 = watchdog.status(SiteId(0));
  EXPECT_TRUE(status1.up);
  EXPECT_EQ(status1.incarnation, 1u);
  EXPECT_EQ(status1.restarts, 0u);
  EXPECT_GT(status1.pid, 0);

  watchdog.kill_daemon(SiteId(0), SIGKILL);

  // The watchdog must notice the death (waitpid / heartbeat EOF) and
  // respawn; wait for the reincarnation's first beat.
  const double deadline = common::steady_clock().now() + 15.0;
  DaemonStatus status2;
  do {
    status2 = watchdog.status(SiteId(0));
    if (status2.up && status2.incarnation == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (common::steady_clock().now() < deadline);
  ASSERT_TRUE(status2.up) << "daemon was not restarted";
  EXPECT_EQ(status2.incarnation, 2u);
  EXPECT_EQ(status2.restarts, 1u);
  EXPECT_NE(status2.pid, status1.pid);
  EXPECT_EQ(watchdog.total_restarts(), 1u);
  EXPECT_GE(down_events.load(), 1);
  EXPECT_EQ(up_events.load(), 2);

  // The old connection is dead; a fresh client on the announced port
  // reattaches and the reincarnation serves RPCs.
  EXPECT_THROW(first.tick(2.0), TransportError);
  daemon::DaemonClient second(watchdog.rpc_port(SiteId(0)));
  second.tick(1.0);
  const auto graph = sim::make_linear_solver_graph();
  EXPECT_FALSE(second.host_selection(graph, 1).empty());

  EXPECT_EQ(counter_value("watchdog.site_down") - site_down_before, 1u);
  EXPECT_EQ(counter_value("watchdog.restarts") - restarts_before, 1u);
}

// -------------------------------------- daemon-mode e2e bit-identity

/// Full multi-site in-process wiring (the integration-test shape).
struct InProcessVdce {
  std::unique_ptr<netsim::VirtualTestbed> testbed;
  std::vector<std::unique_ptr<repo::SiteRepository>> repositories;
  std::vector<std::unique_ptr<predict::LoadForecaster>> forecasters;
  std::vector<std::unique_ptr<SiteManager>> managers;
  std::vector<std::unique_ptr<ControlManager>> controls;
  SiteManagerDirectory directory;

  explicit InProcessVdce(std::uint64_t seed) {
    testbed = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(seed));
    for (const SiteId site : testbed->sites()) {
      auto repository = std::make_unique<repo::SiteRepository>(site);
      tasklib::builtin_registry().install_defaults(repository->tasks());
      testbed->populate_repository(*repository, site);
      repository->users().add_user("hpdc", "nynet", 1, "wan");
      auto forecaster = std::make_unique<predict::LoadForecaster>();
      auto manager =
          std::make_unique<SiteManager>(site, *repository, *forecaster);
      auto control =
          std::make_unique<ControlManager>(*testbed, site, *manager);
      directory.add_site(*manager);
      repositories.push_back(std::move(repository));
      forecasters.push_back(std::move(forecaster));
      managers.push_back(std::move(manager));
      controls.push_back(std::move(control));
    }
  }

  void warm_up(double until) {
    for (double t = 1.0; t <= until; t += 1.0) {
      for (auto& c : controls) c->tick(t);
    }
  }
};

TEST(SiteDaemon, DaemonModeRunIsBitIdenticalToInProcess) {
  // THE acceptance scenario: schedule and execute the same application
  // (same graph, same seed, same app id) once with all Site Managers in
  // this address space and once with every site's control plane in its
  // own OS process behind TCP.  Allocation and outputs must match bit
  // for bit.
  const auto graph = sim::make_linear_solver_graph();

  // Reference: the classic in-process run.
  InProcessVdce reference(kDaemonSeed);
  reference.warm_up(10.0);
  sched::SiteScheduler ref_scheduler(SiteId(0), reference.directory);
  const auto ref_allocation = ref_scheduler.schedule(graph);
  ExecutionEngine ref_engine(tasklib::builtin_registry());
  const auto ref_result = ref_engine.execute(graph, ref_allocation);

  // Daemon mode: one vdce_site_daemon process per site, warmed by the
  // same tick schedule over RPC; the local replica answers only the
  // static topology queries.
  InProcessVdce replica(kDaemonSeed);
  replica.warm_up(10.0);
  Watchdog watchdog(test_watchdog_config());
  const auto sites = replica.testbed->sites();
  for (const SiteId site : sites) watchdog.spawn(site);
  daemon::RemoteSiteDirectory remote(replica.directory, watchdog, sites);
  for (double t = 1.0; t <= 10.0; t += 1.0) remote.tick_all(t);

  sched::SiteScheduler daemon_scheduler(SiteId(0), remote);
  const auto daemon_allocation = daemon_scheduler.schedule(graph);

  // The placement decision crossed process boundaries...
  const auto stats = remote.stats();
  EXPECT_GE(stats.remote_selections, sites.size());
  EXPECT_EQ(stats.transport_failures, 0u);

  // ...and is identical to the in-process one, row by row.
  const auto ref_rows = ref_allocation.rows();
  const auto daemon_rows = daemon_allocation.rows();
  ASSERT_EQ(ref_rows.size(), daemon_rows.size());
  for (std::size_t i = 0; i < ref_rows.size(); ++i) {
    EXPECT_EQ(ref_rows[i].task, daemon_rows[i].task);
    EXPECT_EQ(ref_rows[i].library_task, daemon_rows[i].library_task);
    EXPECT_EQ(ref_rows[i].site, daemon_rows[i].site);
    EXPECT_EQ(ref_rows[i].hosts, daemon_rows[i].hosts);
    EXPECT_EQ(ref_rows[i].predicted_s, daemon_rows[i].predicted_s);
  }

  // Execution over the daemon-made allocation is bit-identical.
  ExecutionEngine daemon_engine(tasklib::builtin_registry());
  const auto daemon_result = daemon_engine.execute(graph, daemon_allocation);
  ASSERT_EQ(ref_result.outputs.size(), daemon_result.outputs.size());
  for (const auto& [task, payload] : ref_result.outputs) {
    EXPECT_EQ(payload.to_wire(), daemon_result.outputs.at(task).to_wire())
        << "task " << task.value() << " output diverged in daemon mode";
  }
}

TEST(SiteDaemon, RemoteDirectoryYieldsInfeasibleSelectionWhenSiteAbandoned) {
  // An unreachable daemon must degrade like a site with no eligible
  // hosts -- empty selection, no exception -- so the Site Scheduler
  // simply places elsewhere.
  auto config = test_watchdog_config();
  config.max_restarts = 0;  // first death abandons the site
  config.heartbeat_timeout_s = 0.5;
  Watchdog watchdog(config);
  watchdog.spawn(SiteId(0));
  (void)watchdog.rpc_port(SiteId(0));
  watchdog.kill_daemon(SiteId(0), SIGKILL);
  const double deadline = common::steady_clock().now() + 15.0;
  while (!watchdog.status(SiteId(0)).abandoned &&
         common::steady_clock().now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(watchdog.status(SiteId(0)).abandoned);

  InProcessVdce replica(kDaemonSeed);
  daemon::RemoteSiteDirectory remote(replica.directory, watchdog, {SiteId(0)},
                                     /*rpc_timeout_s=*/0.2);
  const auto graph = sim::make_linear_solver_graph();
  const auto selection = remote.host_selection(SiteId(0), graph);
  for (const auto& [task, sel] : selection) {
    EXPECT_FALSE(sel.feasible());
  }
  EXPECT_GE(remote.stats().transport_failures, 1u);
}

// ------------------- chaos SIGKILL: watchdog restart + app failover

/// Shared state of the `chaos_trip` library task (the chaos_test
/// pattern): the first `remaining_trips` invocations fire `on_trip`
/// and throw; later invocations compute a deterministic output.
struct TripState {
  std::atomic<int> remaining_trips{0};
  std::atomic<int> invocations{0};
  std::function<void()> on_trip;
};

tasklib::TaskRegistry trip_registry(std::shared_ptr<TripState> state) {
  tasklib::TaskRegistry registry;
  for (const auto& name : tasklib::builtin_registry().all_tasks()) {
    registry.add(tasklib::builtin_registry().get(name));
  }
  tasklib::LibraryEntry entry;
  entry.name = "chaos_trip";
  entry.menu = "synthetic";
  entry.description = "fails its first N invocations";
  entry.min_inputs = 0;
  entry.max_inputs = 8;
  entry.default_perf.task_name = "chaos_trip";
  entry.default_perf.base_time_s = 0.01;
  entry.default_perf.computation_size = 0.1;
  entry.default_perf.communication_size_mb = 0.001;
  entry.default_perf.memory_req_mb = 0.01;
  entry.fn = [state](const std::vector<tasklib::Payload>& in,
                     const tasklib::TaskContext& ctx) {
    state->invocations.fetch_add(1);
    if (state->remaining_trips.fetch_sub(1) > 0) {
      if (state->on_trip) state->on_trip();
      throw common::StateError("chaos_trip: injected failure");
    }
    state->remaining_trips.fetch_add(1);
    double acc = ctx.rng->uniform();
    for (const tasklib::Payload& p : in) {
      acc += static_cast<double>(p.size_bytes() % 1009);
    }
    return tasklib::Payload::of_scalar(acc);
  };
  registry.add(std::move(entry));
  return registry;
}

class ControlPlaneFailover : public ::testing::Test {
 protected:
  void SetUp() override {
    state_ = std::make_shared<TripState>();
    registry_ = trip_registry(state_);
    testbed_ = std::make_unique<netsim::VirtualTestbed>(
        netsim::make_campus_testbed(kDaemonSeed));
    for (const SiteId site : testbed_->sites()) {
      auto repository = std::make_unique<repo::SiteRepository>(site);
      registry_.install_defaults(repository->tasks());
      testbed_->populate_repository(*repository, site);
      auto forecaster = std::make_unique<predict::LoadForecaster>();
      directory_.add_site(site, repository.get(), forecaster.get());
      repositories_.push_back(std::move(repository));
      forecasters_.push_back(std::move(forecaster));
    }
  }

  [[nodiscard]] std::unique_ptr<AppSubmissionService> make_service(
      int max_restarts, bool checkpointing, bool paused = false) {
    AppSubmissionConfig config;
    config.slots = 1;
    config.start_paused = paused;
    config.max_restarts = max_restarts;
    config.checkpointing = checkpointing;
    config.restart_backoff_s = 0.001;
    config.engine.max_attempts = 1;
    config.engine.recv_timeout_s = 5.0;
    auto service = std::make_unique<AppSubmissionService>(
        SiteId(0), directory_, registry_, config, clock_);
    service->set_health_probe(testbed_->liveness_probe());
    service->set_fault_hooks(
        [this](const afg::FlowGraph&, const sched::AllocationTable&) {
          FaultTolerance ft;
          ft.host_alive = testbed_->liveness_probe();
          return ft;
        });
    return service;
  }

  [[nodiscard]] static afg::FlowGraph trip_pipeline() {
    afg::FlowGraph g("trip-pipeline");
    const auto a = g.add_task("synth_source", "a");
    const auto b = g.add_task("synth_compute", "b");
    const auto c = g.add_task("chaos_trip", "c");
    const auto d = g.add_task("synth_sink", "d");
    g.add_link(a, b, 0.05);
    g.add_link(b, c, 0.05);
    g.add_link(c, d, 0.05);
    return g;
  }

  [[nodiscard]] static SubmissionRequest request_for(afg::FlowGraph graph,
                                                     std::uint64_t seed) {
    SubmissionRequest request;
    request.graph = std::move(graph);
    request.qos.deadline_s = 1e9;
    request.user = "chaos";
    request.seed = seed;
    return request;
  }

  std::shared_ptr<TripState> state_;
  tasklib::TaskRegistry registry_;
  std::unique_ptr<netsim::VirtualTestbed> testbed_;
  std::vector<std::unique_ptr<repo::SiteRepository>> repositories_;
  std::vector<std::unique_ptr<predict::LoadForecaster>> forecasters_;
  sched::RepositoryDirectory directory_;
  /// Virtual: failover backoff naps cost no wall-clock.
  common::VirtualClock clock_;
};

TEST_F(ControlPlaneFailover, SigkilledDaemonTriggersRestartAndAppFailover) {
  // THE process-level acceptance scenario: a chaos kDaemonKill event
  // SIGKILLs the REAL site daemon process of the site hosting task c
  // while a site-outage window takes the virtual site down.  The
  // watchdog must detect the death and restart the daemon (incarnation
  // 2 answering RPCs); the submission service must fail the application
  // over to surviving sites; and every counter must reconcile exactly.
  const std::uint64_t kSeed = 1234;

  // Fault-free reference outputs (fresh service, same ticket counter).
  std::map<TaskId, std::vector<std::byte>> reference;
  {
    state_->remaining_trips.store(0);
    auto service = make_service(/*max_restarts=*/0, /*checkpointing=*/false);
    const AppId app = service->submit(request_for(trip_pipeline(), kSeed));
    const auto status = service->wait(app);
    ASSERT_EQ(status.state, SubmissionState::kCompleted) << status.error;
    for (const auto& [task, payload] : status.result.outputs) {
      reference[task] = payload.to_wire();
    }
  }

  // One real daemon process per site, supervised.
  Watchdog watchdog(test_watchdog_config());
  std::atomic<int> down_events{0};
  watchdog.set_on_site_down([&](SiteId) { down_events.fetch_add(1); });
  for (const SiteId site : testbed_->sites()) {
    watchdog.spawn(site);
    (void)watchdog.rpc_port(site);  // all daemons up before the chaos
  }

  const auto captured_before = counter_value("engine.checkpoint.captured");
  const auto replayed_before = counter_value("engine.checkpoint.replayed");
  const auto restarts_before = counter_value("submission.restarts");
  const auto site_down_before = counter_value("watchdog.site_down");
  const auto wd_restarts_before = counter_value("watchdog.restarts");

  // Paused submit so the doomed site is known before the trip is armed.
  state_->remaining_trips.store(1);
  state_->invocations.store(0);
  auto service = make_service(/*max_restarts=*/2, /*checkpointing=*/true,
                              /*paused=*/true);
  const AppId app = service->submit(request_for(trip_pipeline(), kSeed));
  const auto queued = service->status(app);
  ASSERT_TRUE(queued.admission.admitted) << queued.error;
  TaskId task_c{};
  for (const auto& row : queued.allocation.rows()) {
    if (row.library_task == "chaos_trip") task_c = row.task;
  }
  const SiteId doomed = queued.allocation.entry(task_c).site;
  const HostId doomed_host = queued.allocation.entry(task_c).primary_host();

  // The chaos schedule expresses the SAME event at both layers: the
  // virtual outage window (what the health probe sees) and the process
  // kill (what the watchdog supervises).
  netsim::ChaosSchedule chaos;
  netsim::ChaosEvent outage;
  outage.kind = netsim::ChaosEventKind::kSiteOutage;
  outage.site = doomed;
  outage.start = 100.0;
  outage.length = 1e6;
  chaos.add(outage);
  netsim::ChaosEvent kill;
  kill.kind = netsim::ChaosEventKind::kDaemonKill;
  kill.site = doomed;
  kill.start = 100.0;
  chaos.add(kill);
  chaos.apply(*testbed_);
  state_->on_trip = [this, &chaos, &watchdog] {
    chaos.apply_processes(
        [&](SiteId site) { watchdog.kill_daemon(site, SIGKILL); });
    testbed_->set_live_time(200.0);
  };
  service->resume();

  const auto final_status = service->wait(app);
  ASSERT_EQ(final_status.state, SubmissionState::kCompleted)
      << final_status.error;
  EXPECT_EQ(final_status.restarts, 1u);
  EXPECT_NE(final_status.allocation.entry(task_c).primary_host(),
            doomed_host);

  // Bit-identical to the fault-free run despite the mid-flight kill.
  ASSERT_EQ(final_status.result.outputs.size(), reference.size());
  for (const auto& [task, payload] : final_status.result.outputs) {
    EXPECT_EQ(payload.to_wire(), reference.at(task))
        << "task " << task.value() << " output diverged";
  }

  // The watchdog side: death detected, daemon restarted, reincarnation
  // serving RPCs on its new port.
  const double deadline = common::steady_clock().now() + 15.0;
  DaemonStatus status;
  do {
    status = watchdog.status(doomed);
    if (status.up && status.incarnation == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  } while (common::steady_clock().now() < deadline);
  ASSERT_TRUE(status.up) << "watchdog never restarted the killed daemon";
  EXPECT_EQ(status.incarnation, 2u);
  EXPECT_EQ(status.restarts, 1u);
  EXPECT_GE(down_events.load(), 1);
  daemon::DaemonClient reattached(watchdog.rpc_port(doomed));
  reattached.tick(1.0);

  // Exact counter reconciliation across both layers.
  EXPECT_EQ(state_->invocations.load(), 2);
  EXPECT_EQ(counter_value("engine.checkpoint.captured") - captured_before,
            4u);
  EXPECT_EQ(counter_value("engine.checkpoint.replayed") - replayed_before,
            2u);
  EXPECT_EQ(counter_value("submission.restarts") - restarts_before, 1u);
  EXPECT_EQ(counter_value("watchdog.site_down") - site_down_before, 1u);
  EXPECT_EQ(counter_value("watchdog.restarts") - wd_restarts_before, 1u);
}

}  // namespace
}  // namespace vdce::rt
