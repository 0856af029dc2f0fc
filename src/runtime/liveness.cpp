#include "runtime/liveness.hpp"

#include <algorithm>

#include "common/log.hpp"
#include "common/metrics.hpp"

namespace vdce::rt {

namespace {

void bump(const char* name) {
  common::MetricsRegistry::global().counter(name).add(1);
}

}  // namespace

const char* to_string(SiteLiveness state) {
  switch (state) {
    case SiteLiveness::kAlive: return "alive";
    case SiteLiveness::kSuspect: return "suspect";
    case SiteLiveness::kDead: return "dead";
  }
  return "unknown";
}

LivenessDirectory::LivenessDirectory(LivenessConfig config,
                                     common::Clock& clock)
    : config_(config), clock_(&clock) {}

void LivenessDirectory::track(SiteId site, std::uint32_t incarnation) {
  const std::lock_guard lock(mu_);
  Entry& e = entries_[site];
  e.state = SiteLiveness::kAlive;
  e.incarnation = incarnation;
  e.votes.clear();
  e.suspect_since_s = 0.0;
  e.last_refutation_s = 0.0;
  e.reason = "tracked";
}

void LivenessDirectory::direct_alive(SiteId site, std::uint32_t incarnation) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return;
  Entry& e = it->second;
  if (incarnation < e.incarnation) return;  // fenced: stale process
  if (incarnation == e.incarnation && e.state == SiteLiveness::kDead) {
    return;  // the verdict on this incarnation is final
  }
  const bool recovered = e.state == SiteLiveness::kSuspect;
  e.state = SiteLiveness::kAlive;
  e.incarnation = incarnation;
  e.votes.clear();
  e.suspect_since_s = 0.0;
  e.last_refutation_s = 0.0;
  e.reason = "heartbeat";
  if (recovered) {
    ++stats_.false_alarm_recoveries;
    bump("liveness.false_alarm_recoveries");
    common::log_info("liveness", "site ", site.value(),
                     " recovered from suspicion (heartbeat)");
  }
}

SiteLiveness LivenessDirectory::suspect(SiteId site, std::uint32_t incarnation,
                                        SiteId witness,
                                        const std::string& why) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return SiteLiveness::kAlive;
  Entry& e = it->second;
  if (incarnation != e.incarnation) return e.state;  // fenced
  if (e.state == SiteLiveness::kDead) return e.state;
  const bool fresh_vote = e.votes.insert(witness).second;
  if (e.state == SiteLiveness::kAlive) {
    e.state = SiteLiveness::kSuspect;
    e.suspect_since_s = clock_->now();
    e.last_refutation_s = 0.0;
    e.reason = why;
    ++stats_.suspects;
    bump("liveness.suspects");
    common::log_warn("liveness", "site ", site.value(), " suspected by ",
                     witness.value(), " (", why, ")");
  }
  if (fresh_vote &&
      e.votes.size() >= static_cast<std::size_t>(config_.quorum)) {
    die_locked(site, e, why + " [quorum " + std::to_string(e.votes.size()) +
                            "/" + std::to_string(config_.quorum) + "]",
               &LivenessStats::deaths_quorum, "liveness.deaths_quorum");
  }
  return e.state;
}

SiteLiveness LivenessDirectory::refute(SiteId site, std::uint32_t incarnation,
                                       SiteId witness) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return SiteLiveness::kAlive;
  Entry& e = it->second;
  if (incarnation > e.incarnation) {
    // The site restarted and a peer already heard the new incarnation:
    // everything known about the old one is void.
    e.state = SiteLiveness::kAlive;
    e.incarnation = incarnation;
    e.votes.clear();
    e.suspect_since_s = 0.0;
    e.last_refutation_s = 0.0;
    e.reason = "refuted by higher incarnation";
    ++stats_.refutations;
    bump("liveness.refutations");
    return e.state;
  }
  if (incarnation < e.incarnation) return e.state;  // fenced
  if (e.state == SiteLiveness::kDead) return e.state;
  const bool withdrew = e.votes.erase(witness) > 0;
  if (e.state == SiteLiveness::kSuspect) {
    e.last_refutation_s = clock_->now();
    ++stats_.refutations;
    bump("liveness.refutations");
  } else if (withdrew) {
    ++stats_.refutations;
    bump("liveness.refutations");
  }
  return e.state;
}

SiteLiveness LivenessDirectory::conclusive_dead(SiteId site,
                                                std::uint32_t incarnation,
                                                const std::string& why) {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  if (it == entries_.end()) return SiteLiveness::kAlive;
  Entry& e = it->second;
  if (incarnation != e.incarnation) return e.state;  // fenced
  if (e.state == SiteLiveness::kDead) return e.state;
  die_locked(site, e, why, &LivenessStats::deaths_conclusive,
             "liveness.deaths_conclusive");
  return e.state;
}

std::vector<SiteId> LivenessDirectory::poll() {
  const std::lock_guard lock(mu_);
  std::vector<SiteId> died;
  const double now = clock_->now();
  for (auto& [site, e] : entries_) {
    if (e.state != SiteLiveness::kSuspect) continue;
    const double anchor = std::max(e.suspect_since_s, e.last_refutation_s);
    if (now - anchor > config_.suspicion_timeout_s) {
      die_locked(site, e, "suspicion unrefuted for " +
                              std::to_string(now - anchor) + "s",
                 &LivenessStats::deaths_timeout, "liveness.deaths_timeout");
      died.push_back(site);
    }
  }
  return died;
}

void LivenessDirectory::die_locked(SiteId site, Entry& e,
                                   const std::string& why,
                                   std::uint64_t LivenessStats::*counter,
                                   const char* metric) {
  e.state = SiteLiveness::kDead;
  e.reason = why;
  ++(stats_.*counter);
  bump(metric);
  common::log_warn("liveness", "site ", site.value(), " incarnation ",
                   e.incarnation, " confirmed dead: ", why);
}

SiteLiveness LivenessDirectory::state(SiteId site) const {
  const std::lock_guard lock(mu_);
  const auto it = entries_.find(site);
  return it == entries_.end() ? SiteLiveness::kAlive : it->second.state;
}

SiteLivenessStatus LivenessDirectory::status(SiteId site) const {
  const std::lock_guard lock(mu_);
  SiteLivenessStatus s;
  const auto it = entries_.find(site);
  if (it == entries_.end()) return s;
  const Entry& e = it->second;
  s.state = e.state;
  s.incarnation = e.incarnation;
  s.witnesses = e.votes.size();
  s.suspect_since_s = e.suspect_since_s;
  s.reason = e.reason;
  return s;
}

LivenessStats LivenessDirectory::stats() const {
  const std::lock_guard lock(mu_);
  return stats_;
}

}  // namespace vdce::rt
