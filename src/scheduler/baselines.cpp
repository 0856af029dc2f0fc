#include "scheduler/baselines.hpp"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "scheduler/eligibility.hpp"

namespace vdce::sched {

namespace {

/// Builds one allocation row for `node` on hosts within the site of
/// `anchor`, honouring parallel processor counts: the anchor host first,
/// then the site's other eligible hosts in id order.  Returns false when
/// the site cannot supply enough machines.
bool fill_entry(const repo::SiteRepository& repository,
                const predict::PerformancePredictor& predictor,
                const afg::TaskNode& node, HostId anchor,
                AllocationEntry& entry) {
  const SiteId site = repository.resources().get(anchor).static_attrs.site;
  const unsigned want = node.props.mode == afg::ComputeMode::kParallel
                            ? node.props.num_processors
                            : 1u;
  std::vector<HostId> chosen{anchor};
  if (want > 1) {
    for (const HostId h : eligible_hosts(repository, node, site)) {
      if (chosen.size() >= want) break;
      if (h != anchor) chosen.push_back(h);
    }
    if (chosen.size() < want) return false;
  }
  Duration slowest = 0.0;
  for (const HostId h : chosen) {
    slowest = std::max(slowest, predictor.predict(node.library_task,
                                                  node.props.input_size, h));
  }
  entry.task = node.id;
  entry.task_label = node.label;
  entry.library_task = node.library_task;
  entry.hosts = std::move(chosen);
  entry.site = site;
  entry.predicted_s = slowest / static_cast<double>(want);
  return true;
}

[[noreturn]] void infeasible(const afg::TaskNode& node) {
  throw SchedulingError("no feasible resource for task '" + node.label +
                        "' (" + node.library_task + ")");
}

}  // namespace

// ---------------------------------------------------------------- random

RandomScheduler::RandomScheduler(const repo::SiteRepository& repository,
                                 std::uint64_t seed)
    : repo_(&repository), predictor_(repository), rng_(seed) {}

AllocationTable RandomScheduler::schedule(const afg::FlowGraph& graph) {
  graph.validate();
  AllocationTable table(graph.name());
  for (const TaskId id : graph.topological_order()) {
    const afg::TaskNode& node = graph.task(id);
    auto candidates = eligible_hosts(*repo_, node);
    // Try random anchors until one yields a feasible (possibly
    // parallel) placement.
    AllocationEntry entry;
    bool placed = false;
    while (!candidates.empty()) {
      const std::size_t pick = rng_.uniform_int(candidates.size());
      if (fill_entry(*repo_, predictor_, node, candidates[pick], entry)) {
        placed = true;
        break;
      }
      candidates.erase(candidates.begin() +
                       static_cast<std::ptrdiff_t>(pick));
    }
    if (!placed) infeasible(node);
    table.add(std::move(entry));
  }
  return table;
}

// ----------------------------------------------------------- round robin

RoundRobinScheduler::RoundRobinScheduler(
    const repo::SiteRepository& repository)
    : repo_(&repository), predictor_(repository) {}

AllocationTable RoundRobinScheduler::schedule(const afg::FlowGraph& graph) {
  graph.validate();
  const auto all = repo_->resources().all_hosts();
  if (all.empty()) throw SchedulingError("no hosts registered");

  AllocationTable table(graph.name());
  for (const TaskId id : graph.topological_order()) {
    const afg::TaskNode& node = graph.task(id);
    AllocationEntry entry;
    bool placed = false;
    for (std::size_t tries = 0; tries < all.size(); ++tries) {
      const HostId anchor = all[cursor_ % all.size()].host;
      ++cursor_;
      if (!is_eligible(*repo_, node, anchor)) continue;
      if (fill_entry(*repo_, predictor_, node, anchor, entry)) {
        placed = true;
        break;
      }
    }
    if (!placed) infeasible(node);
    table.add(std::move(entry));
  }
  return table;
}

// ------------------------------------------------------------ local only

LocalOnlyScheduler::LocalOnlyScheduler(const repo::SiteRepository& repository,
                                       common::SiteId local_site)
    : repo_(&repository), predictor_(repository), local_site_(local_site) {}

AllocationTable LocalOnlyScheduler::schedule(const afg::FlowGraph& graph) {
  graph.validate();
  AllocationTable table(graph.name());
  for (const TaskId id : graph.topological_order()) {
    const afg::TaskNode& node = graph.task(id);
    Duration best = std::numeric_limits<double>::infinity();
    std::optional<HostId> best_host;
    for (const HostId h : eligible_hosts(*repo_, node, local_site_)) {
      const Duration t =
          predictor_.predict(node.library_task, node.props.input_size, h);
      if (t < best) {
        best = t;
        best_host = h;
      }
    }
    AllocationEntry entry;
    if (!best_host ||
        !fill_entry(*repo_, predictor_, node, *best_host, entry)) {
      infeasible(node);
    }
    table.add(std::move(entry));
  }
  return table;
}

// -------------------------------------------------------- min-min family

MinMinScheduler::MinMinScheduler(const repo::SiteRepository& repository,
                                 bool largest_first)
    : repo_(&repository),
      predictor_(repository),
      largest_first_(largest_first) {}

AllocationTable MinMinScheduler::schedule(const afg::FlowGraph& graph) {
  graph.validate();
  AllocationTable table(graph.name());

  std::unordered_map<TaskId, std::size_t> pending_parents;
  std::unordered_map<TaskId, Duration> task_finish;
  std::unordered_map<HostId, Duration> host_free;
  std::vector<TaskId> ready;
  for (const afg::TaskNode& n : graph.tasks()) {
    pending_parents[n.id] = graph.parents(n.id).size();
    if (pending_parents[n.id] == 0) ready.push_back(n.id);
  }

  while (!ready.empty()) {
    // For every ready task find its best host / completion time.
    struct Choice {
      TaskId task;
      HostId host;
      Duration start;
      Duration finish;
      Duration exec;
    };
    std::vector<Choice> best_per_task;
    for (const TaskId id : ready) {
      const afg::TaskNode& node = graph.task(id);
      Duration data_ready = 0.0;
      for (const TaskId p : graph.parents(id)) {
        data_ready = std::max(data_ready, task_finish.at(p));
      }
      Choice best{id, HostId::invalid(), 0.0,
                  std::numeric_limits<double>::infinity(), 0.0};
      for (const HostId h : eligible_hosts(*repo_, node)) {
        const Duration exec =
            predictor_.predict(node.library_task, node.props.input_size, h);
        const Duration start = std::max(data_ready, host_free[h]);
        if (start + exec < best.finish) {
          best = Choice{id, h, start, start + exec, exec};
        }
      }
      if (!best.host.valid()) infeasible(node);
      best_per_task.push_back(best);
    }

    // min-min picks the smallest completion; max-min the largest.
    const auto chosen = largest_first_
        ? std::max_element(best_per_task.begin(), best_per_task.end(),
                           [](const Choice& a, const Choice& b) {
                             return a.finish < b.finish;
                           })
        : std::min_element(best_per_task.begin(), best_per_task.end(),
                           [](const Choice& a, const Choice& b) {
                             return a.finish < b.finish;
                           });

    const afg::TaskNode& node = graph.task(chosen->task);
    AllocationEntry entry;
    if (!fill_entry(*repo_, predictor_, node, chosen->host, entry)) {
      infeasible(node);
    }
    table.add(entry);
    task_finish[chosen->task] = chosen->finish;
    host_free[chosen->host] = chosen->finish;

    std::erase(ready, chosen->task);
    for (const TaskId child : graph.children(chosen->task)) {
      if (--pending_parents[child] == 0) ready.push_back(child);
    }
  }
  return table;
}

}  // namespace vdce::sched
