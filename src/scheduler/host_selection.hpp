// The Host Selection Algorithm (paper Figure 5).
//
//   1. Retrieve task-specific parameters of AFG tasks from the
//      task-performance database.
//   2. Retrieve resource-specific parameters of a set of resources from
//      the resource-performance database.
//   3. Set task_queue = { task_i | task_i in AFG }.
//   4. For each task_i in task_queue: evaluate Predict(task_i, R) for
//      every resource R in R_set and assign task_i to the resource
//      minimising it.
//
// Runs at every queried site against that site's repository.  For
// parallel tasks the extension of Section 2.2.1 applies: the algorithm
// "is updated to select the number of machines required within the
// site", keeping the whole parallel task inside one site so "the
// inter-site communication overhead for parallel tasks is removed".
#pragma once

#include <cstddef>
#include <optional>
#include <unordered_map>
#include <vector>

#include "afg/graph.hpp"
#include "predict/predictor.hpp"
#include "scheduler/allocation.hpp"

namespace vdce::sched {

/// One task's in-site mapping decision: the chosen machine(s) and the
/// predicted execution time (the pair each remote site reports back to
/// the local site).
struct HostSelection {
  std::vector<HostId> hosts;
  Duration predicted_s = 0.0;
  /// Every eligible in-site candidate with its prediction, ascending
  /// (the full ranking behind the pick).  The queue-aware scheduler
  /// extension re-ranks these against per-host committed time.
  std::vector<std::pair<Duration, HostId>> scored;

  [[nodiscard]] bool feasible() const { return !hosts.empty(); }

  /// Wire layout (common/serialize.hpp field codec).
  static auto fields(auto& m, auto&& v) {
    return v(m.hosts, m.predicted_s, m.scored);
  }
};

/// Host selection results for a whole AFG.
using HostSelectionMap = std::unordered_map<TaskId, HostSelection>;

/// Runs the Host Selection Algorithm for `graph` at site `site`, using
/// `predictor` (bound to that site's repository).  Tasks with no
/// eligible host in the site get an infeasible (empty) entry.
///
/// A parallel task with num_processors = p receives the p eligible hosts
/// with the smallest predicted times; its reported prediction is the
/// slowest selected host's time divided by p (linear speedup bounded by
/// the weakest machine, intra-site communication subsumed in the LAN).
///
/// `threads` > 1 scores the eligible hosts of each task on the shared
/// thread pool (the calling thread plus up to threads-1 helpers) when
/// there are enough candidates to cover the grain; results are written
/// by index, so the output is identical to the serial evaluation.
[[nodiscard]] HostSelectionMap run_host_selection(
    const afg::FlowGraph& graph, common::SiteId site,
    const predict::PerformancePredictor& predictor, std::size_t threads = 1);

/// Re-placement for one task (the Control Manager's fault-tolerance
/// path): runs the Figure-5 scoring for `node` alone, skipping every
/// host in `excluded` (typically the machine that failed or crossed the
/// load threshold).  Uses the same cache-backed predictor as
/// run_host_selection, so repeated reschedules against an unchanged
/// repository hit the memoised Predict() values.  Thread-safe for
/// concurrent calls with a thread-safe predictor.
[[nodiscard]] HostSelection run_host_reselection(
    const afg::TaskNode& node, common::SiteId site,
    const predict::PerformancePredictor& predictor,
    const std::vector<common::HostId>& excluded);

}  // namespace vdce::sched
