// D17 quorum-liveness tests: the LivenessDirectory state machines
// (suspicion, refutation, quorum death, the unrefuted-suspicion
// backstop, incarnation fencing), the jittered restart backoff
// schedule, the partition-spec codec, DaemonClient's bounded RPC
// retry, and the chaos acceptance properties over REAL daemon
// processes -- a partitioned-but-healthy site is suspected but never
// declared dead, while a SIGKILLed daemon is quorum-confirmed dead
// well inside the 3x-suspicion-timeout bound.
#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "daemon/client.hpp"
#include "datamgr/tcp.hpp"
#include "netsim/chaos.hpp"
#include "runtime/liveness.hpp"
#include "runtime/watchdog.hpp"
#include "runtime/wire.hpp"

namespace vdce::rt {
namespace {

using common::ParseError;
using common::SiteId;
using common::TransportError;

std::uint64_t counter_value(const char* name) {
  return common::MetricsRegistry::global().counter(name).value();
}

// ------------------------------ LivenessDirectory (injected clock)

LivenessConfig unit_config() {
  LivenessConfig config;
  config.quorum = 2;
  config.suspicion_timeout_s = 1.0;
  config.freshness_s = 0.5;
  return config;
}

TEST(LivenessDirectory, QuorumOfWitnessesDeclaresDeath) {
  common::VirtualClock clock;
  LivenessDirectory dir(unit_config(), clock);
  const SiteId site(1);
  dir.track(site, 1);
  EXPECT_EQ(dir.state(site), SiteLiveness::kAlive);

  EXPECT_EQ(dir.suspect(site, 1, SiteId(7), "timer"), SiteLiveness::kSuspect);
  EXPECT_EQ(dir.status(site).witnesses, 1u);
  // A duplicate vote from the same witness counts once.
  EXPECT_EQ(dir.suspect(site, 1, SiteId(7), "timer"), SiteLiveness::kSuspect);
  EXPECT_EQ(dir.status(site).witnesses, 1u);
  EXPECT_EQ(dir.stats().deaths_quorum, 0u);

  // An independent second witness completes the quorum.
  EXPECT_EQ(dir.suspect(site, 1, SiteId(8), "probe"), SiteLiveness::kDead);
  EXPECT_EQ(dir.stats().suspects, 1u);
  EXPECT_EQ(dir.stats().deaths_quorum, 1u);
  EXPECT_NE(dir.status(site).reason.find("[quorum 2/2]"), std::string::npos);

  // Death is final for this incarnation: neither a late heartbeat nor
  // a refutation resurrects it.
  dir.direct_alive(site, 1);
  EXPECT_EQ(dir.state(site), SiteLiveness::kDead);
  EXPECT_EQ(dir.refute(site, 1, SiteId(8)), SiteLiveness::kDead);
  // A fresh incarnation starts over.
  dir.track(site, 2);
  EXPECT_EQ(dir.state(site), SiteLiveness::kAlive);
}

TEST(LivenessDirectory, UnrefutedSuspicionTimesOut) {
  auto config = unit_config();
  config.quorum = 3;  // unreachable with one witness
  common::VirtualClock clock;
  LivenessDirectory dir(config, clock);
  const SiteId site(1);
  dir.track(site, 1);
  (void)dir.suspect(site, 1, SiteId(7), "timer");

  clock.advance_to(0.9);
  EXPECT_TRUE(dir.poll().empty());
  EXPECT_EQ(dir.state(site), SiteLiveness::kSuspect);

  clock.advance_to(1.2);
  const auto died = dir.poll();
  ASSERT_EQ(died.size(), 1u);
  EXPECT_EQ(died[0], site);
  EXPECT_EQ(dir.state(site), SiteLiveness::kDead);
  EXPECT_EQ(dir.stats().deaths_timeout, 1u);
  // A site dies once: the next poll reports nothing.
  clock.advance_to(2.5);
  EXPECT_TRUE(dir.poll().empty());
}

TEST(LivenessDirectory, RefutationExtendsTheSuspicionDeadline) {
  auto config = unit_config();
  config.quorum = 3;
  common::VirtualClock clock;
  LivenessDirectory dir(config, clock);
  const SiteId site(1);
  dir.track(site, 1);
  (void)dir.suspect(site, 1, SiteId(7), "timer");

  // A refutation at t=0.8 moves the deadline anchor: the original
  // t=1.0 deadline passes without a death.
  clock.advance_to(0.8);
  EXPECT_EQ(dir.refute(site, 1, SiteId(9)), SiteLiveness::kSuspect);
  EXPECT_EQ(dir.stats().refutations, 1u);
  clock.advance_to(1.5);
  EXPECT_TRUE(dir.poll().empty());
  EXPECT_EQ(dir.state(site), SiteLiveness::kSuspect);

  // ... but with no further refutation the backstop still fires.
  clock.advance_to(1.9);
  EXPECT_EQ(dir.poll().size(), 1u);
  EXPECT_EQ(dir.stats().deaths_timeout, 1u);
}

TEST(LivenessDirectory, RefutationWithdrawsTheWitnessVote) {
  common::VirtualClock clock;
  LivenessDirectory dir(unit_config(), clock);
  const SiteId site(1);
  dir.track(site, 1);
  (void)dir.suspect(site, 1, SiteId(7), "timer");
  EXPECT_EQ(dir.status(site).witnesses, 1u);
  (void)dir.refute(site, 1, SiteId(7));
  EXPECT_EQ(dir.status(site).witnesses, 0u);
  // The withdrawn witness re-voting is fresh again but still 1/2.
  EXPECT_EQ(dir.suspect(site, 1, SiteId(7), "timer"), SiteLiveness::kSuspect);
  EXPECT_EQ(dir.stats().deaths_quorum, 0u);
}

TEST(LivenessDirectory, HeartbeatRecoversASuspect) {
  common::VirtualClock clock;
  LivenessDirectory dir(unit_config(), clock);
  const SiteId site(1);
  dir.track(site, 1);
  (void)dir.suspect(site, 1, SiteId(7), "timer");
  dir.direct_alive(site, 1);
  EXPECT_EQ(dir.state(site), SiteLiveness::kAlive);
  EXPECT_EQ(dir.status(site).witnesses, 0u);
  EXPECT_EQ(dir.stats().false_alarm_recoveries, 1u);
}

TEST(LivenessDirectory, IncarnationFencing) {
  common::VirtualClock clock;
  LivenessDirectory dir(unit_config(), clock);
  const SiteId site(1);
  dir.track(site, 2);

  // Evidence about any other incarnation is fenced off.
  EXPECT_EQ(dir.suspect(site, 1, SiteId(7), "stale"), SiteLiveness::kAlive);
  EXPECT_EQ(dir.stats().suspects, 0u);
  dir.direct_alive(site, 1);
  EXPECT_EQ(dir.status(site).incarnation, 2u);
  EXPECT_EQ(dir.conclusive_dead(site, 1, "stale"), SiteLiveness::kAlive);
  EXPECT_EQ(dir.stats().deaths_conclusive, 0u);

  // A refutation naming a HIGHER incarnation proves a restart happened:
  // everything known about the old one is void -- even a death verdict.
  EXPECT_EQ(dir.conclusive_dead(site, 2, "reaped"), SiteLiveness::kDead);
  EXPECT_EQ(dir.refute(site, 3, SiteId(9)), SiteLiveness::kAlive);
  EXPECT_EQ(dir.status(site).incarnation, 3u);
}

TEST(LivenessDirectory, UntrackedSitesAreAliveAndIgnored) {
  LivenessDirectory dir(unit_config());
  const SiteId site(42);
  EXPECT_EQ(dir.state(site), SiteLiveness::kAlive);
  EXPECT_EQ(dir.suspect(site, 1, SiteId(7), "noise"), SiteLiveness::kAlive);
  EXPECT_EQ(dir.refute(site, 1, SiteId(7)), SiteLiveness::kAlive);
  EXPECT_EQ(dir.conclusive_dead(site, 1, "noise"), SiteLiveness::kAlive);
  EXPECT_TRUE(dir.poll().empty());
  EXPECT_EQ(dir.stats().suspects, 0u);
}

// --------------------------------------- jittered restart backoff

TEST(RestartBackoff, JitteredScheduleIsPinnedForAFixedSeed) {
  WatchdogConfig config;
  config.seed = 13;
  config.restart_backoff_s = 0.05;
  config.restart_backoff_multiplier = 2.0;
  config.restart_backoff_jitter = 0.5;

  for (const std::uint32_t site : {0u, 1u, 2u}) {
    for (std::size_t index = 0; index < 4; ++index) {
      const double base = 0.05 * std::pow(2.0, static_cast<double>(index));
      const double got =
          Watchdog::restart_backoff(config, SiteId(site), index);
      // Deterministic: the same (seed, site, index) always yields the
      // same wait, inside [base, base * (1 + jitter)).
      EXPECT_EQ(got, Watchdog::restart_backoff(config, SiteId(site), index));
      EXPECT_GE(got, base);
      EXPECT_LT(got, base * 1.5);
      // Pin the exact derivation (seed mixed with site and index via
      // splitmix64 constants, one uniform draw): changing the formula
      // silently would change every replayed chaos schedule.
      common::Rng rng(config.seed ^
                      (0x9E3779B97F4A7C15ull * (site + 1ull)) ^
                      (0xBF58476D1CE4E5B9ull * (index + 1ull)));
      EXPECT_EQ(got, base * (1.0 + 0.5 * rng.uniform()));
    }
  }

  // Different sites decorrelate: a 3-site outage must not produce a
  // synchronized fork/exec storm.
  EXPECT_NE(Watchdog::restart_backoff(config, SiteId(0), 0),
            Watchdog::restart_backoff(config, SiteId(1), 0));
  EXPECT_NE(Watchdog::restart_backoff(config, SiteId(1), 0),
            Watchdog::restart_backoff(config, SiteId(2), 0));

  // jitter = 0 restores the exact exponential schedule.
  config.restart_backoff_jitter = 0.0;
  EXPECT_EQ(Watchdog::restart_backoff(config, SiteId(0), 0), 0.05);
  EXPECT_EQ(Watchdog::restart_backoff(config, SiteId(0), 2), 0.2);
}

// --------------------------------------------- partition-spec codec

TEST(PartitionSpec, RoundTripsThroughTheWireString) {
  netsim::ChaosSchedule schedule;
  netsim::ChaosEvent ev;
  ev.kind = netsim::ChaosEventKind::kPartition;
  ev.start = 0.25;
  ev.length = 1.5;
  ev.site = SiteId(3);
  ev.other_site = SiteId(7);
  schedule.add(ev);
  ev.start = 4.0;
  ev.length = 0.5;
  ev.site = LivenessDirectory::watchdog_witness();
  ev.other_site = SiteId(1);
  schedule.add(ev);

  const std::string spec = schedule.partition_spec(100.0);
  const auto parsed = netsim::ChaosSchedule::from_partition_spec(spec);
  ASSERT_EQ(parsed.events().size(), 2u);
  EXPECT_TRUE(parsed.partitioned(SiteId(3), SiteId(7), 101.0));
  EXPECT_TRUE(parsed.partitioned(SiteId(7), SiteId(3), 101.0));
  EXPECT_FALSE(parsed.partitioned(SiteId(3), SiteId(7), 102.0));
  EXPECT_TRUE(parsed.partitioned(LivenessDirectory::watchdog_witness(),
                                 SiteId(1), 104.2));
  EXPECT_FALSE(parsed.partitioned(SiteId(3), SiteId(1), 101.0));

  EXPECT_TRUE(netsim::ChaosSchedule().partition_spec(0.0).empty());
  EXPECT_TRUE(
      netsim::ChaosSchedule::from_partition_spec("").events().empty());
  EXPECT_THROW((void)netsim::ChaosSchedule::from_partition_spec("1,2,3"),
               ParseError);
  EXPECT_THROW(
      (void)netsim::ChaosSchedule::from_partition_spec("a,b,nan,bogus"),
      ParseError);
  EXPECT_THROW((void)netsim::ChaosSchedule::from_partition_spec("1,2,9,4"),
               ParseError);
}

// ------------------------------------------- DaemonClient RPC retry

TEST(DaemonClientRetry, TransientDropIsRetriedWithBackoff) {
  dm::TcpListener listener;
  std::thread server([&] {
    // First connection: take the request, then hang up mid-RPC.
    auto c1 = listener.accept();
    (void)c1->receive_for(5.0);
    c1->close();
    // Second connection (the retry): serve the RPC properly.
    auto c2 = listener.accept();
    const auto request = c2->receive_for(5.0);
    if (request &&
        wire::peek_type(*request) == wire::MsgType::kTickRequest) {
      c2->send(wire::encode(wire::Ack{}));
    }
    // Hold the connection until the client has read the reply (the
    // client never sends again, so this times out or sees EOF).
    try {
      (void)c2->receive_for(1.0);
    } catch (const TransportError&) {
    }
  });

  const auto retries_before = counter_value("daemon.rpc_retries");
  daemon::DaemonRpcConfig rpc;
  rpc.timeout_s = 2.0;
  rpc.rpc_retries = 2;
  rpc.rpc_backoff_s = 0.01;
  daemon::DaemonClient client(listener.port(), rpc);
  client.tick(1.0);  // succeeds on the second attempt
  EXPECT_EQ(counter_value("daemon.rpc_retries") - retries_before, 1u);
  server.join();
}

TEST(DaemonClientRetry, ExhaustedBudgetRethrowsTransportError) {
  dm::TcpListener listener;
  std::thread server([&] {
    for (int i = 0; i < 2; ++i) {
      auto c = listener.accept();
      (void)c->receive_for(5.0);
      c->close();
    }
  });

  const auto retries_before = counter_value("daemon.rpc_retries");
  daemon::DaemonRpcConfig rpc;
  rpc.timeout_s = 2.0;
  rpc.rpc_retries = 1;
  rpc.rpc_backoff_s = 0.01;
  daemon::DaemonClient client(listener.port(), rpc);
  EXPECT_THROW(client.tick(1.0), TransportError);
  EXPECT_EQ(counter_value("daemon.rpc_retries") - retries_before, 1u);
  server.join();
}

// ------------------------------- chaos acceptance (real daemons)

WatchdogConfig gossip_watchdog_config() {
  WatchdogConfig config;
  config.daemon_path = VDCE_SITE_DAEMON_PATH;
  config.seed = 13;
  config.heartbeat_period_s = 0.02;
  config.heartbeat_timeout_s = 0.25;
  config.max_restarts = 3;
  config.restart_backoff_s = 0.02;
  config.gossip = true;
  config.gossip_period_s = 0.02;
  config.probe_timeout_s = 0.2;
  config.liveness.quorum = 2;
  config.liveness.suspicion_timeout_s = 0.6;
  config.liveness.freshness_s = 0.5;
  return config;
}

void wait_until_up(Watchdog& watchdog, SiteId site, double timeout_s = 15.0) {
  const double deadline = common::steady_clock().now() + timeout_s;
  while (common::steady_clock().now() < deadline) {
    if (watchdog.status(site).up) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  FAIL() << "site " << site.value() << " never came up";
}

TEST(QuorumLiveness, PartitionedHealthySiteIsSuspectedButNeverDeclaredDead) {
  const auto site_down_before = counter_value("watchdog.site_down");

  // Partition the coordinator from site 1 for 1.5s starting 0.4s from
  // now.  Site 0 can still reach BOTH sides, so it keeps refuting the
  // watchdog's missed-heartbeat suspicion -- even though the suspicion
  // timeout (0.6s) expires twice over inside the partition window, the
  // quorum never completes and the deadline keeps being pushed back.
  auto config = gossip_watchdog_config();
  netsim::ChaosSchedule schedule;
  netsim::ChaosEvent ev;
  ev.kind = netsim::ChaosEventKind::kPartition;
  ev.start = 0.4;
  ev.length = 1.5;
  ev.site = LivenessDirectory::watchdog_witness();
  ev.other_site = SiteId(1);
  schedule.add(ev);
  const double epoch = common::steady_clock().now();
  config.partition_spec = schedule.partition_spec(epoch);

  Watchdog watchdog(config);
  std::atomic<int> down_events{0};
  watchdog.set_on_site_down([&](SiteId) { down_events.fetch_add(1); });
  watchdog.spawn(SiteId(0));
  watchdog.spawn(SiteId(1));
  wait_until_up(watchdog, SiteId(0));
  wait_until_up(watchdog, SiteId(1));

  // Sample through the partition and well past the heal: no site may
  // ever be declared dead (zero false positives is THE acceptance bar).
  bool saw_suspect = false;
  const double end = epoch + 0.4 + 1.5 + 0.6;
  while (common::steady_clock().now() < end) {
    ASSERT_NE(watchdog.site_liveness(SiteId(0)), SiteLiveness::kDead);
    ASSERT_NE(watchdog.site_liveness(SiteId(1)), SiteLiveness::kDead);
    saw_suspect |=
        watchdog.site_liveness(SiteId(1)) == SiteLiveness::kSuspect;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(saw_suspect)
      << "the partition never even raised a suspicion -- the schedule "
         "did not reach the daemon";

  // After the heal the resumed heartbeats recover the suspect.
  const double deadline = common::steady_clock().now() + 10.0;
  while (common::steady_clock().now() < deadline &&
         watchdog.site_liveness(SiteId(1)) != SiteLiveness::kAlive) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(watchdog.site_liveness(SiteId(1)), SiteLiveness::kAlive);
  EXPECT_TRUE(watchdog.status(SiteId(1)).up);
  EXPECT_EQ(watchdog.status(SiteId(1)).incarnation, 1u)
      << "a healthy partitioned site was restarted";

  const auto stats = watchdog.liveness().stats();
  EXPECT_EQ(stats.deaths_quorum, 0u);
  EXPECT_EQ(stats.deaths_timeout, 0u);
  EXPECT_EQ(stats.deaths_conclusive, 0u);
  EXPECT_GE(stats.suspects, 1u);
  EXPECT_GE(stats.refutations, 1u);
  EXPECT_GE(stats.false_alarm_recoveries, 1u);
  EXPECT_EQ(watchdog.total_restarts(), 0u);
  EXPECT_EQ(down_events.load(), 0);
  EXPECT_EQ(counter_value("watchdog.site_down") - site_down_before, 0u);
}

TEST(QuorumLiveness, SigkilledDaemonIsQuorumConfirmedDeadWithinBound) {
  const auto site_down_before = counter_value("watchdog.site_down");

  // Distrust process exits so even the watchdog's first-hand evidence
  // (heartbeat EOF, waitpid) is a mere VOTE: death must come from the
  // quorum with site 0 as the second witness.  The suspicion timeout is
  // hoisted far above the acceptance bound so the backstop cannot be
  // what detects this death.
  auto config = gossip_watchdog_config();
  config.trust_process_exit = false;
  config.liveness.suspicion_timeout_s = 10.0;

  Watchdog watchdog(config);
  std::atomic<int> down_events{0};
  watchdog.set_on_site_down([&](SiteId) { down_events.fetch_add(1); });
  watchdog.spawn(SiteId(0));
  watchdog.spawn(SiteId(1));
  wait_until_up(watchdog, SiteId(0));
  wait_until_up(watchdog, SiteId(1));

  const double killed_at = common::steady_clock().now();
  watchdog.kill_daemon(SiteId(1), SIGKILL);

  // Acceptance: quorum-confirmed dead within 3x the suspicion timeout.
  const double bound_s = 3.0 * config.liveness.suspicion_timeout_s;
  double detected_at = 0.0;
  while (common::steady_clock().now() - killed_at < bound_s) {
    if (down_events.load() > 0) {
      detected_at = common::steady_clock().now();
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(detected_at, 0.0) << "death not detected within 3x suspicion";
  EXPECT_LT(detected_at - killed_at, bound_s);

  const auto stats = watchdog.liveness().stats();
  EXPECT_GE(stats.deaths_quorum, 1u);
  EXPECT_EQ(stats.deaths_timeout, 0u) << "the backstop, not the quorum, fired";
  EXPECT_EQ(stats.deaths_conclusive, 0u);
  EXPECT_GE(counter_value("watchdog.site_down") - site_down_before, 1u);

  // The verdict still drives the restart path: the reincarnation comes
  // back up and is alive again in the directory.
  const double deadline = common::steady_clock().now() + 15.0;
  while (common::steady_clock().now() < deadline) {
    const auto status = watchdog.status(SiteId(1));
    if (status.up && status.incarnation == 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(watchdog.status(SiteId(1)).incarnation, 2u);
  EXPECT_EQ(watchdog.site_liveness(SiteId(1)), SiteLiveness::kAlive);
  // Site 0 was never implicated.
  EXPECT_EQ(watchdog.site_liveness(SiteId(0)), SiteLiveness::kAlive);
  EXPECT_EQ(watchdog.status(SiteId(0)).incarnation, 1u);
}

TEST(QuorumLiveness, FaultFreeGossipRunKeepsEveryDeathCounterZero) {
  const auto suspects_before = counter_value("liveness.suspects");
  const auto quorum_before = counter_value("liveness.deaths_quorum");
  const auto timeout_before = counter_value("liveness.deaths_timeout");
  const auto conclusive_before = counter_value("liveness.deaths_conclusive");
  const auto site_down_before = counter_value("watchdog.site_down");

  auto config = gossip_watchdog_config();
  config.heartbeat_timeout_s = 2.0;  // CI-safe: no spurious suspicion
  {
    Watchdog watchdog(config);
    watchdog.spawn(SiteId(0));
    watchdog.spawn(SiteId(1));
    wait_until_up(watchdog, SiteId(0));
    wait_until_up(watchdog, SiteId(1));

    // Let several gossip rounds run: probes, rosters, digests and
    // refutations all fire, but none of it may produce liveness state.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    EXPECT_EQ(watchdog.site_liveness(SiteId(0)), SiteLiveness::kAlive);
    EXPECT_EQ(watchdog.site_liveness(SiteId(1)), SiteLiveness::kAlive);
    const auto stats = watchdog.liveness().stats();
    EXPECT_EQ(stats.suspects, 0u);
    EXPECT_EQ(stats.deaths_quorum, 0u);
    EXPECT_EQ(stats.deaths_timeout, 0u);
    EXPECT_EQ(stats.deaths_conclusive, 0u);
    EXPECT_EQ(stats.false_alarm_recoveries, 0u);
    EXPECT_EQ(watchdog.total_restarts(), 0u);
  }
  // Exact global-counter reconciliation with the in-process baseline:
  // a fault-free daemon-mode run adds NOTHING to the liveness ledger.
  EXPECT_EQ(counter_value("liveness.suspects") - suspects_before, 0u);
  EXPECT_EQ(counter_value("liveness.deaths_quorum") - quorum_before, 0u);
  EXPECT_EQ(counter_value("liveness.deaths_timeout") - timeout_before, 0u);
  EXPECT_EQ(counter_value("liveness.deaths_conclusive") - conclusive_before,
            0u);
  EXPECT_EQ(counter_value("watchdog.site_down") - site_down_before, 0u);
}

TEST(QuorumLiveness, RpcEndpointIsFencedAcrossARestartRace) {
  auto config = gossip_watchdog_config();
  Watchdog watchdog(config);
  std::atomic<int> down_events{0};
  watchdog.set_on_site_down([&](SiteId) { down_events.fetch_add(1); });
  watchdog.spawn(SiteId(0));
  wait_until_up(watchdog, SiteId(0));

  const auto first = watchdog.rpc_endpoint(SiteId(0));
  EXPECT_EQ(first.incarnation, 1u);
  EXPECT_NE(first.port, 0u);
  EXPECT_EQ(watchdog.incarnation(SiteId(0)), 1u);

  watchdog.kill_daemon(SiteId(0), SIGKILL);
  // Once the death is declared the old port is withdrawn: rpc_endpoint
  // racing the restart must block until the NEW incarnation's first
  // beat and never hand back the stale port with a stale fence token.
  const double deadline = common::steady_clock().now() + 15.0;
  while (common::steady_clock().now() < deadline && down_events.load() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_GT(down_events.load(), 0) << "death never declared";

  const auto second = watchdog.rpc_endpoint(SiteId(0), 15.0);
  EXPECT_EQ(second.incarnation, 2u);
  EXPECT_NE(second.port, 0u);
  EXPECT_EQ(watchdog.incarnation(SiteId(0)), 2u);
  // The fenced endpoint actually serves: the legacy port accessor and
  // the endpoint agree.
  EXPECT_EQ(watchdog.rpc_port(SiteId(0)), second.port);
  daemon::DaemonClient client(second.port);
  client.set_incarnation(second.incarnation);
  client.tick(1.0);
  EXPECT_EQ(client.incarnation(), 2u);
}

}  // namespace
}  // namespace vdce::rt
