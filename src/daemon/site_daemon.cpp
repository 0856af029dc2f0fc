#include "daemon/site_daemon.hpp"

#include <unistd.h>

#include <chrono>

#include "afg/serialize.hpp"
#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/log.hpp"
#include "netsim/config.hpp"

namespace vdce::daemon {

namespace wire = rt::wire;
using common::TransportError;

SiteDaemon::SiteDaemon(SiteDaemonConfig config)
    : config_(std::move(config)),
      testbed_(netsim::make_campus_testbed(config_.seed)) {
  // Mirror the in-process per-site wiring exactly (the integration
  // fixture's recipe): same repository contents, same forecaster, same
  // Group Manager layout -- determinism depends on it.
  for (const auto& name : tasklib::builtin_registry().all_tasks()) {
    registry_.add(tasklib::builtin_registry().get(name));
  }
  repository_ = std::make_unique<repo::SiteRepository>(config_.site);
  registry_.install_defaults(repository_->tasks());
  testbed_.populate_repository(*repository_, config_.site);
  repository_->users().add_user("hpdc", "nynet", 1, "wan");
  forecaster_ = std::make_unique<predict::LoadForecaster>();
  manager_ = std::make_unique<rt::SiteManager>(config_.site, *repository_,
                                               *forecaster_);
  control_ = std::make_unique<rt::ControlManager>(testbed_, config_.site,
                                                  *manager_);
  if (!config_.partition_spec.empty()) {
    partitions_ =
        netsim::ChaosSchedule::from_partition_spec(config_.partition_spec);
  }
  if (config_.gossip) {
    gossip_acceptor_ = std::thread([this] { gossip_accept_loop(); });
    prober_ = std::thread([this] { prober_loop(); });
  }
  if (config_.heartbeat_port != 0) {
    heartbeat_ = std::thread([this] { heartbeat_loop(); });
  }
}

SiteDaemon::~SiteDaemon() {
  request_stop();
  if (heartbeat_.joinable()) heartbeat_.join();
  if (gossip_acceptor_.joinable()) gossip_acceptor_.join();
  if (prober_.joinable()) prober_.join();
  std::vector<std::thread> handlers;
  {
    const std::lock_guard lock(gossip_mu_);
    handlers.swap(gossip_handlers_);
  }
  for (std::thread& t : handlers) {
    if (t.joinable()) t.join();
  }
}

void SiteDaemon::request_stop() {
  if (stop_.exchange(true)) return;
  listener_.close();
  gossip_listener_.close();
  std::vector<std::shared_ptr<dm::TcpChannel>> channels;
  {
    const std::lock_guard lock(gossip_mu_);
    channels = gossip_channels_;
  }
  for (auto& channel : channels) channel->close();
  {
    const std::lock_guard lock(beat_mu_);
    if (beat_channel_) beat_channel_->close();
  }
}

bool SiteDaemon::partitioned_from(common::SiteId other) const {
  return partitions_.partitioned(config_.site, other,
                                 common::steady_clock().now());
}

void SiteDaemon::send_to_watchdog(const std::vector<std::byte>& frame) {
  const std::lock_guard lock(beat_mu_);
  if (!beat_channel_) return;
  try {
    beat_channel_->send(frame);
  } catch (const TransportError&) {
    // The heartbeat loop owns the death of this link.
  }
}

void SiteDaemon::heartbeat_loop() {
  try {
    auto channel = dm::tcp_connect(config_.heartbeat_port);
    {
      const std::lock_guard lock(beat_mu_);
      beat_channel_ = std::move(channel);
    }
    wire::Heartbeat beat;
    beat.site = config_.site;
    beat.pid = static_cast<std::int64_t>(::getpid());
    beat.rpc_port = listener_.port();
    beat.gossip_port = gossip_port();
    beat.incarnation = config_.incarnation;
    while (!stop_.load(std::memory_order_acquire)) {
      // A chaos partition between this site and the coordinator drops
      // heartbeats (the connection stays up -- real partitions do not
      // send FINs); the watchdog's deadline fires into a suspicion.
      if (!partitioned_from(config_.coordinator_site)) {
        ++beat.seq;
        std::vector<std::byte> encoded = wire::encode(beat);
        {
          const std::lock_guard lock(beat_mu_);
          if (!beat_channel_) break;
          beat_channel_->send(encoded);
        }
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(config_.heartbeat_period_s));
    }
  } catch (const TransportError& e) {
    // The watchdog is gone: a daemon without a supervisor must not
    // linger as an orphan.  Unblock serve() and exit.
    common::log_warn("site_daemon", "heartbeat link lost (", e.what(),
                     "), shutting down");
    request_stop();
  }
}

// -- gossip (D17) --------------------------------------------------------

void SiteDaemon::gossip_accept_loop() {
  for (;;) {
    std::shared_ptr<dm::TcpChannel> channel;
    try {
      channel = gossip_listener_.accept();
    } catch (const TransportError&) {
      return;  // listener closed: shutting down
    }
    const std::lock_guard lock(gossip_mu_);
    if (stop_.load(std::memory_order_acquire)) return;
    gossip_channels_.push_back(channel);
    gossip_handlers_.emplace_back(
        [this, channel] { gossip_session(channel); });
  }
}

bool SiteDaemon::probe_peer(std::uint16_t port, std::uint32_t& incarnation) {
  try {
    auto channel = dm::tcp_connect(port);
    wire::GossipPing ping;
    ping.origin_site = config_.site;
    channel->send(wire::encode(ping));
    const auto reply = channel->receive_for(config_.probe_timeout_s);
    if (!reply || wire::peek_type(*reply) != wire::MsgType::kGossipAck) {
      return false;
    }
    incarnation = wire::decode<wire::GossipAck>(*reply).incarnation;
    return true;
  } catch (const common::VdceError&) {
    return false;
  }
}

void SiteDaemon::gossip_session(std::shared_ptr<dm::TcpChannel> channel) {
  for (;;) {
    std::optional<std::vector<std::byte>> frame;
    try {
      frame = channel->receive();
    } catch (const TransportError&) {
      return;
    }
    if (!frame) return;
    try {
      switch (wire::peek_type(*frame)) {
        case wire::MsgType::kGossipPing: {
          const auto ping = wire::decode<wire::GossipPing>(*frame);
          // A partitioned origin cannot reach us: drop, no ack.
          if (partitioned_from(ping.origin_site)) break;
          wire::GossipAck ack;
          ack.site = config_.site;
          ack.incarnation = config_.incarnation;
          ack.seq = ping.seq;
          channel->send(wire::encode(ack));
          break;
        }
        case wire::MsgType::kPingReq: {
          const auto req = wire::decode<wire::PingReq>(*frame);
          if (partitioned_from(req.origin_site)) break;
          // Probe the target over OUR network path -- the whole point
          // of the indirect probe is the independent vantage.
          wire::PingReqReply reply;
          reply.target_site = req.target_site;
          reply.seq = req.seq;
          std::uint32_t incarnation = 0;
          reply.reachable = !partitioned_from(req.target_site) &&
                            probe_peer(req.target_gossip_port, incarnation);
          reply.target_incarnation = incarnation;
          channel->send(wire::encode(reply));
          break;
        }
        case wire::MsgType::kPeerRoster: {
          if (partitioned_from(config_.coordinator_site)) break;
          const auto roster = wire::decode<wire::PeerRoster>(*frame);
          const std::lock_guard lock(gossip_mu_);
          peers_.clear();
          for (const wire::PeerEndpoint& e : roster.peers) {
            if (e.site == config_.site) continue;
            peers_.push_back({e.site, e.gossip_port, e.incarnation,
                              e.suspected});
          }
          break;
        }
        default:
          common::log_warn("site_daemon",
                           "unexpected frame on gossip channel: ",
                           wire::to_string(wire::peek_type(*frame)));
          break;
      }
    } catch (const common::VdceError& e) {
      // Truncated or garbled gossip never kills the daemon.
      common::log_warn("site_daemon", "dropping bad gossip frame: ",
                       e.what());
    }
  }
}

void SiteDaemon::prober_loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config_.gossip_period_s));
    if (stop_.load(std::memory_order_acquire)) return;
    std::vector<Peer> peers;
    {
      const std::lock_guard lock(gossip_mu_);
      peers = peers_;
    }
    const double now = common::steady_clock().now();
    for (const Peer& peer : peers) {
      bool ok = false;
      std::uint32_t incarnation = 0;
      if (!partitioned_from(peer.site)) {
        ok = probe_peer(peer.gossip_port, incarnation);
      }
      const std::lock_guard lock(gossip_mu_);
      Heard& heard = last_heard_[peer.site];
      if (ok) {
        heard.incarnation = incarnation;
        heard.when_s = now;
        heard.reachable = true;
      } else {
        if (heard.incarnation == 0) heard.incarnation = peer.incarnation;
        heard.reachable = false;
      }
      // Active refutation: the watchdog flagged this peer suspect, but
      // we still hear it -- say so now, not at the next digest.
      if (ok && peer.suspected) {
        wire::Refute refute;
        refute.witness_site = config_.site;
        refute.site = peer.site;
        refute.incarnation = incarnation;
        if (!partitioned_from(config_.coordinator_site)) {
          send_to_watchdog(wire::encode(refute));
        }
      }
    }
    // The digest piggyback: who we last heard, how long ago.
    wire::PeerDigest digest;
    digest.origin_site = config_.site;
    digest.origin_incarnation = config_.incarnation;
    {
      const std::lock_guard lock(gossip_mu_);
      for (const auto& [site, heard] : last_heard_) {
        wire::PeerHealth health;
        health.site = site;
        health.incarnation = heard.incarnation;
        health.age_s = heard.when_s > 0.0 ? now - heard.when_s : 1e9;
        health.reachable = heard.reachable;
        digest.peers.push_back(health);
      }
    }
    if (!digest.peers.empty() &&
        !partitioned_from(config_.coordinator_site)) {
      send_to_watchdog(wire::encode(digest));
    }
  }
}

bool SiteDaemon::session(dm::TcpChannel& channel) {
  for (;;) {
    std::optional<std::vector<std::byte>> frame;
    try {
      frame = channel.receive();
    } catch (const TransportError&) {
      return true;  // coordinator vanished mid-frame: await the next one
    }
    if (!frame) return true;  // orderly disconnect: accept a successor
    std::vector<std::byte> reply;
    try {
      switch (wire::peek_type(*frame)) {
        case wire::MsgType::kTickRequest: {
          const auto req = wire::decode<wire::TickRequest>(*frame);
          control_->tick(req.now);
          reply = wire::encode(wire::Ack{});
          break;
        }
        case wire::MsgType::kHostSelectionRequest: {
          const auto req = wire::decode<wire::HostSelectionRequest>(*frame);
          const afg::FlowGraph graph = afg::from_text(req.graph_text);
          wire::HostSelectionResponse resp;
          resp.selection =
              manager_->host_selection_request(graph, req.threads);
          reply = wire::encode(resp);
          break;
        }
        case wire::MsgType::kReselectionRequest: {
          const auto req = wire::decode<wire::ReselectionRequest>(*frame);
          afg::TaskNode node;
          node.id = req.task;
          node.library_task = req.library_task;
          node.label = req.label;
          node.props.input_size = req.input_size;
          node.props.num_processors = req.num_processors;
          node.props.mode = req.parallel ? afg::ComputeMode::kParallel
                                         : afg::ComputeMode::kSequential;
          afg::check_task(node);  // untrusted, e.g. 0 processors
          wire::ReselectionResponse resp;
          resp.selection = manager_->reschedule_request(node, req.excluded);
          reply = wire::encode(resp);
          break;
        }
        case wire::MsgType::kRecordTaskTime: {
          const auto req = wire::decode<wire::RecordTaskTime>(*frame);
          manager_->record_task_time(req.library_task, req.elapsed_s);
          reply = wire::encode(wire::Ack{});
          break;
        }
        case wire::MsgType::kRescheduleRequest: {
          control_->report_task_failure(
              wire::decode<rt::RescheduleRequest>(*frame));
          reply = wire::encode(wire::Ack{});
          break;
        }
        case wire::MsgType::kShutdownRequest:
          channel.send(wire::encode(wire::Ack{}));
          return false;
        default:
          reply = wire::encode(wire::ErrorReply{
              std::string("unexpected RPC message type: ") +
              wire::to_string(wire::peek_type(*frame))});
          break;
      }
    } catch (const common::VdceError& e) {
      // Garbage frames, truncated payloads, and handler failures all
      // surface to the coordinator as an ErrorReply; the session
      // itself survives (one bad request must not take the site down).
      reply = wire::encode(wire::ErrorReply{e.what()});
    }
    try {
      channel.send(reply);
    } catch (const TransportError&) {
      return true;  // coordinator vanished between request and reply
    }
  }
}

int SiteDaemon::serve() {
  common::log_info("site_daemon", "site ", config_.site.value(),
                   " incarnation ", config_.incarnation, " serving on port ",
                   listener_.port());
  while (!stop_.load(std::memory_order_acquire)) {
    std::unique_ptr<dm::TcpChannel> channel;
    try {
      channel = listener_.accept();
    } catch (const TransportError&) {
      break;  // listener closed by request_stop()
    }
    if (!session(*channel)) break;
  }
  return 0;
}

}  // namespace vdce::daemon
