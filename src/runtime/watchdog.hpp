// Process watchdog for site daemons (designs D14 + D17).
//
// When the control plane leaves the coordinator's address space, the
// per-site Site Manager runs inside a `vdce_site_daemon` OS process.
// Something must notice when such a process dies -- SIGKILL leaves no
// chance for a goodbye message -- and bring it back.  The Watchdog:
//
//   * spawns one daemon per supervised site (fork/exec of the
//     vdce_site_daemon binary) and reaps it with waitpid;
//   * listens on a TCP heartbeat port every daemon beats into; the
//     first beat of an incarnation announces the daemon's
//     kernel-assigned RPC port (the coordinator connects there);
//   * feeds every piece of death evidence into the D17
//     LivenessDirectory instead of acting on it alone: a reaped child
//     or a heartbeat-connection EOF is first-hand (conclusive, when
//     trust_process_exit), while a missed heartbeat deadline is merely
//     the watchdog's own suspicion VOTE -- peer daemons gossip-probe
//     each other, piggyback peer-health digests on their heartbeats,
//     answer indirect ping-req probes, and send refutations, so a
//     partitioned-but-healthy site is suspected but never declared
//     dead;
//   * declares a site DOWN only on the directory's verdict (quorum of
//     witnesses, an unrefuted suspicion deadline, or first-hand death)
//     and invokes on_site_down (the hook the submission service's
//     failover/circuit-breaker path subscribes to);
//   * restarts the daemon with jittered exponential backoff (seeded
//     per site and restart, so a multi-site outage cannot produce a
//     synchronized fork/exec storm), bumping the incarnation so stale
//     beats -- and stale liveness evidence -- of the dead process are
//     fenced off, and invokes on_site_up once the reincarnation's
//     first beat lands.
//
// Real time by design: process supervision is inherently real-time
// (there is no virtual clock across address spaces), so the watchdog,
// its LivenessDirectory and the daemons all read common::steady_clock()
// -- the host's one CLOCK_MONOTONIC timeline -- rather than taking a
// Clock&.  The tunables below are real seconds and the tests use short
// periods.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/ids.hpp"
#include "datamgr/tcp.hpp"
#include "runtime/liveness.hpp"

namespace vdce::rt::wire {
struct PeerDigest;
}

namespace vdce::rt {

using common::SiteId;

struct WatchdogConfig {
  /// Path to the vdce_site_daemon binary (tests inject the build-tree
  /// path via the VDCE_SITE_DAEMON_PATH compile definition).
  std::string daemon_path;
  /// Testbed seed every daemon rebuilds its site from; must match the
  /// coordinator's testbed for placement decisions to agree.
  std::uint64_t seed = 13;
  /// How often daemons beat (passed to them on the command line).
  double heartbeat_period_s = 0.05;
  /// Silence longer than this puts the site under suspicion (the
  /// watchdog's own witness vote; death needs quorum or the suspicion
  /// timeout).
  double heartbeat_timeout_s = 1.0;
  /// Restarts per site before the watchdog gives the site up for good.
  int max_restarts = 3;
  /// Exponential backoff before each restart attempt.
  double restart_backoff_s = 0.05;
  double restart_backoff_multiplier = 2.0;
  /// Seed-derived jitter fraction on the backoff: each (site, restart)
  /// waits backoff * (1 + jitter * u) with u in [0, 1) drawn
  /// deterministically from (seed, site, restart).  0 disables.
  double restart_backoff_jitter = 0.5;
  /// D17 quorum-liveness knobs.
  LivenessConfig liveness;
  /// Run the gossip layer: daemons probe each other, piggyback
  /// peer-health digests, answer indirect ping-reqs and refute
  /// suspicions.  Off = the watchdog is the only witness (death then
  /// comes from first-hand evidence or the suspicion timeout).
  bool gossip = true;
  /// Daemon-side gossip probe round period.
  double gossip_period_s = 0.05;
  /// Budget for one indirect ping-req round trip.
  double probe_timeout_s = 0.25;
  /// Peers asked to indirectly probe each suspect per round.
  int probe_fanout = 3;
  /// Treat a reaped child / heartbeat EOF as first-hand conclusive
  /// death (no quorum needed).  Tests turn this off to force the
  /// quorum path even for SIGKILL.
  bool trust_process_exit = true;
  /// The coordinator's own vantage id in partition specs (daemons
  /// suppress heartbeats while partitioned from it).
  SiteId coordinator_site = LivenessDirectory::watchdog_witness();
  /// Chaos partitions forwarded to daemons (ChaosSchedule::
  /// partition_spec, absolute steady-clock windows); empty = none.
  std::string partition_spec;
};

/// Point-in-time supervision state of one daemon.
struct DaemonStatus {
  SiteId site;
  std::int64_t pid = 0;
  std::uint16_t rpc_port = 0;
  std::uint16_t gossip_port = 0;
  std::uint32_t incarnation = 0;
  std::uint64_t heartbeats = 0;
  bool up = false;
  std::size_t restarts = 0;
  /// Set when the restart budget ran out.
  bool abandoned = false;
};

/// A fenced RPC endpoint: the port plus the incarnation it belongs to.
/// Clients pin the incarnation so a connection into a stale daemon can
/// be detected and dropped (D17 fencing).
struct RpcEndpoint {
  std::uint16_t port = 0;
  std::uint32_t incarnation = 0;
};

/// Supervises site daemon processes over the heartbeat protocol.
class Watchdog {
 public:
  explicit Watchdog(WatchdogConfig config);
  /// Terminates every supervised daemon (SIGTERM, then SIGKILL) and
  /// joins the supervision threads.
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Fired (outside the watchdog lock) when a site is declared down.
  void set_on_site_down(std::function<void(SiteId)> callback);
  /// Fired once a (re)started daemon's first heartbeat lands.
  void set_on_site_up(std::function<void(SiteId)> callback);

  /// Launches and supervises the daemon of `site`.
  void spawn(SiteId site);

  /// Blocks until the current incarnation's RPC port is known (first
  /// heartbeat received) or `timeout_s` elapses; throws TransportError
  /// on timeout.  After a restart this returns the NEW port.
  [[nodiscard]] std::uint16_t rpc_port(SiteId site, double timeout_s = 10.0);
  /// Like rpc_port but also returns the incarnation the port belongs
  /// to, atomically -- the fencing token for DaemonClient.
  [[nodiscard]] RpcEndpoint rpc_endpoint(SiteId site, double timeout_s = 10.0);
  /// Current incarnation of `site` (0 when not supervised).
  [[nodiscard]] std::uint32_t incarnation(SiteId site) const;

  [[nodiscard]] DaemonStatus status(SiteId site) const;
  /// Total restarts across all sites.
  [[nodiscard]] std::size_t total_restarts() const;

  /// The D17 quorum-liveness directory (tests and benches inspect the
  /// per-site state machines directly).
  [[nodiscard]] LivenessDirectory& liveness() { return liveness_; }
  /// Convenience: the directory's verdict for `site`.
  [[nodiscard]] SiteLiveness site_liveness(SiteId site) const {
    return liveness_.state(site);
  }

  /// The deterministic jittered restart backoff for (site, restart
  /// `restart_index`): backoff_s * multiplier^index * (1 + jitter * u)
  /// with u drawn from (config.seed, site, index).  Pure -- tests pin
  /// the schedule.
  [[nodiscard]] static double restart_backoff(const WatchdogConfig& config,
                                              SiteId site,
                                              std::size_t restart_index);

  /// Chaos support: delivers `sig` (e.g. SIGKILL) to the daemon of
  /// `site`.  The death is then detected and handled exactly like any
  /// organic crash.
  void kill_daemon(SiteId site, int sig);

  /// The heartbeat listener port (daemons connect here).
  [[nodiscard]] std::uint16_t heartbeat_port() const;

  /// Stops supervision and shuts every daemon down.  Idempotent.
  void stop();

 private:
  struct Daemon {
    SiteId site;
    std::int64_t pid = -1;
    std::uint32_t incarnation = 0;
    std::uint16_t rpc_port = 0;
    std::uint16_t gossip_port = 0;
    std::uint64_t heartbeats = 0;
    /// steady-clock seconds of the last accepted beat.
    double last_beat_s = 0.0;
    bool up = false;
    std::size_t restarts = 0;
    bool abandoned = false;
  };

  void accept_loop();
  void beat_loop(std::shared_ptr<dm::TcpChannel> channel);
  void monitor_loop();
  /// Roster pushes and indirect ping-req probes (gossip mode).
  void prober_loop();
  /// Translates one peer-health digest into suspicion/refutation votes.
  void apply_digest(const wire::PeerDigest& digest);
  /// Fork/execs one daemon for `d` (lock held); bumps the incarnation.
  void launch_locked(Daemon& d);
  /// Declares `d` down and schedules its restart; returns the
  /// callback to fire outside the lock (or nullptr).
  void declare_down(Daemon& d, const std::string& why);

  WatchdogConfig config_;
  std::function<void(SiteId)> on_site_down_;
  std::function<void(SiteId)> on_site_up_;

  dm::TcpListener listener_;
  LivenessDirectory liveness_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::map<SiteId, Daemon> daemons_;
  /// Heartbeat channels, closed on stop() to unblock readers.
  std::vector<std::shared_ptr<dm::TcpChannel>> beat_channels_;
  /// Pending restart deadlines: (steady seconds, site).
  std::vector<std::pair<double, SiteId>> restart_queue_;

  std::thread acceptor_;
  std::thread monitor_;
  std::thread prober_;
  std::vector<std::thread> readers_;
};

}  // namespace vdce::rt
