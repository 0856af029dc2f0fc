#include "afg/graph.hpp"

#include <algorithm>
#include <deque>

#include "common/error.hpp"

namespace vdce::afg {

using common::NotFoundError;
using common::ParseError;
using common::StateError;

std::string to_string(ComputeMode m) {
  return m == ComputeMode::kSequential ? "sequential" : "parallel";
}

ComputeMode compute_mode_from_string(const std::string& s) {
  if (s == "sequential") return ComputeMode::kSequential;
  if (s == "parallel") return ComputeMode::kParallel;
  throw ParseError("unknown compute mode: " + s);
}

void check_properties(const std::string& label, const TaskProperties& props) {
  if (props.num_processors == 0) {
    throw StateError("task " + label + ": num_processors must be >= 1");
  }
  if (!(props.input_size > 0.0)) {
    throw StateError("task " + label + ": input_size must be positive");
  }
}

void check_task(const TaskNode& node) {
  check_properties(node.label, node.props);
  if (node.props.mode == ComputeMode::kSequential &&
      node.props.num_processors != 1) {
    throw StateError("task " + node.label +
                     ": sequential mode requires exactly 1 processor");
  }
}

TaskId FlowGraph::add_task(const std::string& library_task,
                           const std::string& label,
                           const TaskProperties& props) {
  if (library_task.empty()) throw StateError("library task name is empty");
  if (label.empty()) throw StateError("task label is empty");
  if (by_label_.contains(label)) {
    throw StateError("duplicate task label: " + label);
  }
  check_properties(label, props);
  const TaskId id{next_id_++};
  tasks_.push_back(TaskNode{id, library_task, label, props});
  by_label_.emplace(label, id);
  return id;
}

void FlowGraph::add_link(TaskId from, TaskId to, double transfer_mb) {
  if (from == to) throw StateError("self-loop link is not allowed");
  (void)index_of(from);  // throws NotFoundError if unknown
  (void)index_of(to);
  if (transfer_mb < 0.0) throw StateError("link transfer size is negative");
  const auto dup = std::find_if(links_.begin(), links_.end(),
                                [&](const Link& l) {
                                  return l.from == from && l.to == to;
                                });
  if (dup != links_.end()) throw StateError("duplicate link");
  links_.push_back(Link{from, to, transfer_mb});
}

void FlowGraph::remove_task(TaskId id) {
  const std::size_t idx = index_of(id);
  by_label_.erase(tasks_[idx].label);
  tasks_.erase(tasks_.begin() + static_cast<std::ptrdiff_t>(idx));
  std::erase_if(links_,
                [id](const Link& l) { return l.from == id || l.to == id; });
}

void FlowGraph::remove_link(TaskId from, TaskId to) {
  const auto it = std::find_if(links_.begin(), links_.end(),
                               [&](const Link& l) {
                                 return l.from == from && l.to == to;
                               });
  if (it == links_.end()) throw NotFoundError("no such link");
  links_.erase(it);
}

void FlowGraph::set_link_transfer(TaskId from, TaskId to,
                                  double transfer_mb) {
  if (transfer_mb < 0.0) throw StateError("link transfer size is negative");
  const auto it = std::find_if(links_.begin(), links_.end(),
                               [&](const Link& l) {
                                 return l.from == from && l.to == to;
                               });
  if (it == links_.end()) throw NotFoundError("no such link");
  it->transfer_mb = transfer_mb;
}

const TaskNode& FlowGraph::task(TaskId id) const {
  return tasks_[index_of(id)];
}

TaskNode& FlowGraph::task(TaskId id) { return tasks_[index_of(id)]; }

std::optional<TaskId> FlowGraph::find_by_label(
    const std::string& label) const {
  const auto it = by_label_.find(label);
  if (it == by_label_.end()) return std::nullopt;
  return it->second;
}

std::vector<TaskId> FlowGraph::parents(TaskId id) const {
  std::vector<TaskId> out;
  for (const Link& l : links_) {
    if (l.to == id) out.push_back(l.from);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TaskId> FlowGraph::ordered_parents(TaskId id) const {
  std::vector<TaskId> out;
  for (const Link& l : links_) {
    if (l.to == id) out.push_back(l.from);
  }
  return out;
}

std::vector<TaskId> FlowGraph::children(TaskId id) const {
  std::vector<TaskId> out;
  for (const Link& l : links_) {
    if (l.from == id) out.push_back(l.to);
  }
  std::sort(out.begin(), out.end());
  return out;
}

const Link& FlowGraph::link(TaskId from, TaskId to) const {
  const auto it = std::find_if(links_.begin(), links_.end(),
                               [&](const Link& l) {
                                 return l.from == from && l.to == to;
                               });
  if (it == links_.end()) throw NotFoundError("no such link");
  return *it;
}

std::vector<TaskId> FlowGraph::entry_tasks() const {
  std::vector<TaskId> out;
  for (const TaskNode& t : tasks_) {
    if (parents(t.id).empty()) out.push_back(t.id);
  }
  return out;
}

std::vector<TaskId> FlowGraph::exit_tasks() const {
  std::vector<TaskId> out;
  for (const TaskNode& t : tasks_) {
    if (children(t.id).empty()) out.push_back(t.id);
  }
  return out;
}

bool FlowGraph::is_dag() const {
  return topological_sort_impl().size() == tasks_.size();
}

std::vector<TaskId> FlowGraph::topological_order() const {
  auto order = topological_sort_impl();
  if (order.size() != tasks_.size()) {
    throw StateError("application flow graph contains a cycle");
  }
  return order;
}

void FlowGraph::validate() const {
  if (tasks_.empty()) throw StateError("application flow graph is empty");
  if (!is_dag()) throw StateError("application flow graph contains a cycle");
  for (const TaskNode& t : tasks_) check_task(t);
}

std::size_t FlowGraph::index_of(TaskId id) const {
  const auto it = std::find_if(tasks_.begin(), tasks_.end(),
                               [id](const TaskNode& t) { return t.id == id; });
  if (it == tasks_.end()) throw NotFoundError("unknown task id in graph");
  return static_cast<std::size_t>(it - tasks_.begin());
}

std::vector<TaskId> FlowGraph::topological_sort_impl() const {
  // Kahn's algorithm; returns fewer than task_count() nodes on a cycle.
  std::unordered_map<TaskId, std::size_t> indegree;
  for (const TaskNode& t : tasks_) indegree[t.id] = 0;
  for (const Link& l : links_) ++indegree[l.to];

  std::deque<TaskId> ready;
  for (const TaskNode& t : tasks_) {
    if (indegree[t.id] == 0) ready.push_back(t.id);
  }
  std::vector<TaskId> order;
  order.reserve(tasks_.size());
  while (!ready.empty()) {
    const TaskId id = ready.front();
    ready.pop_front();
    order.push_back(id);
    for (const Link& l : links_) {
      if (l.from == id && --indegree[l.to] == 0) ready.push_back(l.to);
    }
  }
  return order;
}

}  // namespace vdce::afg
