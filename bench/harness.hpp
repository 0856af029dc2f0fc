// Shared bring-up and reporting helpers for the experiment benches and
// the examples.
//
// bring_up() builds a virtual testbed, one site repository + Site
// Manager + Control Manager per site, seeds the task libraries and the
// `hpdc` demo user, and warms the monitoring fabric so the repositories
// hold real measurements before anything is scheduled.  Every bench
// prints labelled CSV-style rows (the "table" the paper would have
// contained) plus a short interpretation, so EXPERIMENTS.md can cite
// the output verbatim.
#pragma once

#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "netsim/testbed.hpp"
#include "predict/forecaster.hpp"
#include "runtime/control_manager.hpp"
#include "runtime/site_manager.hpp"
#include "runtime/sm_directory.hpp"
#include "scheduler/directory.hpp"
#include "sim/dynamic_sim.hpp"
#include "tasklib/registry.hpp"

namespace vdce::bench {

/// One fully wired single-process VDCE over a virtual testbed.
struct Vdce {
  std::unique_ptr<netsim::VirtualTestbed> testbed;
  std::vector<std::unique_ptr<repo::SiteRepository>> repositories;
  std::vector<std::unique_ptr<predict::LoadForecaster>> forecasters;
  std::vector<std::unique_ptr<rt::SiteManager>> site_managers;
  std::vector<std::unique_ptr<rt::ControlManager>> control_managers;
  rt::SiteManagerDirectory directory;
  sched::RepositoryDirectory repo_directory;
  std::vector<sim::SiteRuntime> runtimes;

  /// Advances every site's control plane to `until` in `step` ticks.
  void warm_up(double until, double step = 1.0) {
    for (double t = step; t <= until + 1e-9; t += step) {
      for (auto& cm : control_managers) cm->tick(t);
    }
  }
};

/// Brings up a VDCE over `config`.  `warm_up_s` control ticks run before
/// returning so dynamic attributes and forecasts are populated.
inline Vdce bring_up(const netsim::TestbedConfig& config,
                     double warm_up_s = 10.0,
                     rt::GroupManagerConfig group_config = {},
                     double monitor_period_s = 1.0) {
  Vdce v;
  v.testbed = std::make_unique<netsim::VirtualTestbed>(config);
  for (const common::SiteId site : v.testbed->sites()) {
    auto repository = std::make_unique<repo::SiteRepository>(site);
    tasklib::builtin_registry().install_defaults(repository->tasks());
    v.testbed->populate_repository(*repository, site);
    repository->users().add_user("hpdc", "nynet", 1, "wan");
    auto forecaster = std::make_unique<predict::LoadForecaster>();
    auto manager = std::make_unique<rt::SiteManager>(site, *repository,
                                                     *forecaster);
    auto control = std::make_unique<rt::ControlManager>(
        *v.testbed, site, *manager, monitor_period_s, group_config);
    v.directory.add_site(*manager);
    v.repo_directory.add_site(site, repository.get(), forecaster.get());
    v.runtimes.push_back(sim::SiteRuntime{manager.get(), control.get()});
    v.repositories.push_back(std::move(repository));
    v.forecasters.push_back(std::move(forecaster));
    v.site_managers.push_back(std::move(manager));
    v.control_managers.push_back(std::move(control));
  }
  if (warm_up_s > 0.0) v.warm_up(warm_up_s);
  return v;
}

/// Prints an experiment banner.
inline void banner(const std::string& id, const std::string& title) {
  std::cout << "\n=== " << id << ": " << title << " ===\n";
}

/// Prints a CSV header row.
inline void header(const std::string& columns) {
  std::cout << columns << "\n";
}

}  // namespace vdce::bench
