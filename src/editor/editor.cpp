#include "editor/editor.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace vdce::editor {

using common::NotFoundError;
using common::StateError;

std::string to_string(EditorMode m) {
  switch (m) {
    case EditorMode::kTask: return "task";
    case EditorMode::kLink: return "link";
    case EditorMode::kRun:  return "run";
  }
  return "?";
}

ApplicationEditor::ApplicationEditor(const tasklib::TaskRegistry& registry,
                                     std::string app_name)
    : registry_(&registry), graph_(std::move(app_name)) {}

std::vector<std::string> ApplicationEditor::menus() const {
  return registry_->menus();
}

std::vector<std::string> ApplicationEditor::menu_tasks(
    const std::string& menu) const {
  return registry_->tasks_in_menu(menu);
}

std::string ApplicationEditor::describe(
    const std::string& library_task) const {
  return registry_->get(library_task).description;
}

void ApplicationEditor::require_mode(EditorMode needed,
                                     const char* action) const {
  if (mode_ != needed) {
    throw StateError(std::string(action) + " requires " + to_string(needed) +
                     " mode (editor is in " + to_string(mode_) + " mode)");
  }
}

TaskId ApplicationEditor::add_task(const std::string& library_task,
                                   const std::string& label,
                                   IconPosition pos) {
  require_mode(EditorMode::kTask, "adding a task");
  if (!registry_->contains(library_task)) {
    throw NotFoundError("no such library task: " + library_task);
  }
  const TaskId id = graph_.add_task(library_task, label);
  positions_[id] = pos;
  return id;
}

void ApplicationEditor::place_task(TaskId id, IconPosition pos) {
  require_mode(EditorMode::kTask, "moving a task icon");
  (void)graph_.task(id);  // throws NotFoundError if unknown
  positions_[id] = pos;
}

IconPosition ApplicationEditor::position(TaskId id) const {
  const auto it = positions_.find(id);
  if (it == positions_.end()) throw NotFoundError("unknown task id");
  return it->second;
}

void ApplicationEditor::remove_task(TaskId id) {
  require_mode(EditorMode::kTask, "removing a task");
  graph_.remove_task(id);
  positions_.erase(id);
  std::erase_if(explicit_sizes_, [id](const auto& p) {
    return p.first == id || p.second == id;
  });
}

void ApplicationEditor::connect(TaskId from, TaskId to,
                                std::optional<double> transfer_mb) {
  require_mode(EditorMode::kLink, "connecting tasks");
  const afg::TaskNode& producer = graph_.task(from);
  double mb;
  if (transfer_mb) {
    mb = *transfer_mb;
    explicit_sizes_.emplace_back(from, to);
  } else {
    const auto& entry = registry_->get(producer.library_task);
    mb = entry.default_perf.communication_size_mb *
         producer.props.input_size;
  }
  graph_.add_link(from, to, mb);
}

void ApplicationEditor::disconnect(TaskId from, TaskId to) {
  require_mode(EditorMode::kLink, "disconnecting tasks");
  graph_.remove_link(from, to);
  std::erase_if(explicit_sizes_, [&](const auto& p) {
    return p.first == from && p.second == to;
  });
}

void ApplicationEditor::set_properties(TaskId id,
                                       const TaskProperties& props) {
  if (mode_ == EditorMode::kRun) {
    throw StateError("the property panel is unavailable in run mode");
  }
  afg::TaskNode& node = graph_.task(id);
  afg::check_properties(node.label, props);
  node.props = props;

  // Rescale the default-sized outgoing links to the new input size.
  const auto& entry = registry_->get(node.library_task);
  const double default_mb =
      entry.default_perf.communication_size_mb * props.input_size;
  for (const TaskId child : graph_.children(id)) {
    const bool overridden =
        std::any_of(explicit_sizes_.begin(), explicit_sizes_.end(),
                    [&](const auto& p) {
                      return p.first == id && p.second == child;
                    });
    if (!overridden) {
      graph_.set_link_transfer(id, child, default_mb);
    }
  }
}

const TaskProperties& ApplicationEditor::properties(TaskId id) const {
  return graph_.task(id).props;
}

FlowGraph ApplicationEditor::submit() const {
  require_mode(EditorMode::kRun, "submitting the application");
  graph_.validate();
  // Library-level checks: arity of every node.
  for (const afg::TaskNode& node : graph_.tasks()) {
    const auto& entry = registry_->get(node.library_task);
    const auto indegree =
        static_cast<unsigned>(graph_.parents(node.id).size());
    if (indegree < entry.min_inputs || indegree > entry.max_inputs) {
      throw StateError("task " + node.label + " (" + node.library_task +
                       ") has " + std::to_string(indegree) +
                       " inputs; the library requires between " +
                       std::to_string(entry.min_inputs) + " and " +
                       std::to_string(entry.max_inputs));
    }
  }
  return graph_;
}

void ApplicationEditor::save(const std::string& path) const {
  afg::save_file(graph_, path);
}

ApplicationEditor ApplicationEditor::load(
    const tasklib::TaskRegistry& registry, const std::string& path) {
  FlowGraph graph = afg::load_file(path);
  // Check every node references a real library entry before accepting.
  for (const afg::TaskNode& node : graph.tasks()) {
    if (!registry.contains(node.library_task)) {
      throw NotFoundError("stored AFG references unknown library task: " +
                          node.library_task);
    }
  }
  ApplicationEditor editor(registry, graph.name());
  editor.graph_ = std::move(graph);
  for (const afg::TaskNode& node : editor.graph_.tasks()) {
    editor.positions_[node.id] = IconPosition{};
    // Stored links keep their sizes verbatim.
    for (const TaskId child : editor.graph_.children(node.id)) {
      editor.explicit_sizes_.emplace_back(node.id, child);
    }
  }
  return editor;
}

}  // namespace vdce::editor
