// The Application Flow Graph (AFG).
//
// "The Application flow graph is a directed acyclic graph, G = (T, L),
//  where T is the set of tasks in the application and L is a set of
//  directed links among tasks.  A directed link (i,j) between two tasks
//  Ti and Tj of the application indicates that Ti must complete its
//  execution before Tj begins to run."  (Section 2.1)
//
// Nodes carry the library task they instantiate plus the per-task
// properties the Editor's popup panel sets (computation mode, machine
// type, processor count).  Links carry the data volume transferred from
// producer to consumer, which the Site Scheduler's transfer-time term
// consumes.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/ids.hpp"
#include "repository/types.hpp"

namespace vdce::afg {

using common::SiteId;
using common::TaskId;

/// Computational mode chosen in the Editor's task-properties panel.
enum class ComputeMode : std::uint8_t { kSequential, kParallel };

[[nodiscard]] std::string to_string(ComputeMode m);
[[nodiscard]] ComputeMode compute_mode_from_string(const std::string& s);

/// Optional per-task preferences ("a popup panel that allows the user to
/// specify (optional) preferences such as computational mode (sequential
/// or parallel), machine type, and the number of processors").
struct TaskProperties {
  ComputeMode mode = ComputeMode::kSequential;
  /// Preferred machine architecture, if the user constrained it.
  std::optional<repo::ArchType> preferred_arch;
  /// Preferred OS, if constrained.
  std::optional<repo::OsType> preferred_os;
  /// Processor count for parallel mode (>= 1).
  unsigned num_processors = 1;
  /// Problem-size parameter in multiples of the library task's unit
  /// size; scales predicted time, memory and output volume.
  double input_size = 1.0;

  friend bool operator==(const TaskProperties&,
                         const TaskProperties&) = default;
};

/// One node of the AFG: an instance of a library task.
struct TaskNode {
  TaskId id;
  /// Name of the library task this node instantiates (a key of the
  /// task-performance database, e.g. "lu_decomposition").
  std::string library_task;
  /// Instance label unique within the application ("lu1").
  std::string label;
  TaskProperties props;
};

/// Throws StateError unless `props` make sense on their own: at least
/// one processor and a positive input size.  add_task and the editor's
/// property panel check this much, since the mode may still change.
void check_properties(const std::string& label, const TaskProperties& props);

/// check_properties plus the submit-time rule that a sequential task
/// runs on exactly one processor.  validate() applies it to every node,
/// and the site daemon to a node rebuilt from a wire request.
void check_task(const TaskNode& node);

/// One directed link of the AFG.
struct Link {
  TaskId from;
  TaskId to;
  /// Data volume transferred over the link, MB (the paper's "size of the
  /// transfer" / "task input files").
  double transfer_mb = 0.0;

  friend bool operator==(const Link&, const Link&) = default;
};

/// A mutable application flow graph.
///
/// The graph enforces unique labels and link endpoints at insertion
/// time; acyclicity is checked by validate() (and therefore at submit
/// time), since intermediate editing states may be temporarily invalid.
class FlowGraph {
 public:
  FlowGraph() = default;
  explicit FlowGraph(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  /// Adds a task node; returns its id.  Throws StateError on duplicate
  /// label or invalid properties.
  TaskId add_task(const std::string& library_task, const std::string& label,
                  const TaskProperties& props = {});

  /// Adds a directed link; throws NotFoundError for unknown endpoints,
  /// StateError for self-loops or duplicate links.
  void add_link(TaskId from, TaskId to, double transfer_mb);

  /// Removes a task and every link touching it.
  void remove_task(TaskId id);

  /// Removes one link; throws NotFoundError if absent.
  void remove_link(TaskId from, TaskId to);

  /// Changes a link's transfer size in place (the link keeps its
  /// input-port position).  Throws NotFoundError if absent.
  void set_link_transfer(TaskId from, TaskId to, double transfer_mb);

  [[nodiscard]] const TaskNode& task(TaskId id) const;
  [[nodiscard]] TaskNode& task(TaskId id);
  [[nodiscard]] std::optional<TaskId> find_by_label(
      const std::string& label) const;

  [[nodiscard]] const std::vector<TaskNode>& tasks() const { return tasks_; }
  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }
  [[nodiscard]] std::size_t link_count() const { return links_.size(); }

  /// Ids of direct predecessors of `id` (sorted).
  [[nodiscard]] std::vector<TaskId> parents(TaskId id) const;
  /// Ids of direct predecessors in link-insertion order: the consumer's
  /// input-port order, which fixes the argument order of its library
  /// function.
  [[nodiscard]] std::vector<TaskId> ordered_parents(TaskId id) const;
  /// Ids of direct successors of `id` (sorted).
  [[nodiscard]] std::vector<TaskId> children(TaskId id) const;
  /// The link (from,to); throws NotFoundError.
  [[nodiscard]] const Link& link(TaskId from, TaskId to) const;

  /// Tasks with no parents (the paper's "entry tasks").
  [[nodiscard]] std::vector<TaskId> entry_tasks() const;
  /// Tasks with no children (the paper's "exit nodes").
  [[nodiscard]] std::vector<TaskId> exit_tasks() const;

  /// True iff the link relation is acyclic.
  [[nodiscard]] bool is_dag() const;

  /// Tasks in a topological order; throws StateError if cyclic.
  [[nodiscard]] std::vector<TaskId> topological_order() const;

  /// Full submit-time validation: non-empty, acyclic, every node's
  /// properties sane.  Throws StateError/ParseError describing the first
  /// problem found.
  void validate() const;

 private:
  [[nodiscard]] std::size_t index_of(TaskId id) const;
  [[nodiscard]] std::vector<TaskId> topological_sort_impl() const;

  std::string name_ = "application";
  std::vector<TaskNode> tasks_;
  std::vector<Link> links_;
  std::unordered_map<std::string, TaskId> by_label_;
  std::uint32_t next_id_ = 0;
};

}  // namespace vdce::afg
