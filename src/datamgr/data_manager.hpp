// The Data Manager of one executing task.
//
// "for a thread-based programming environment, the Data Manager consists
//  of three threads that are initiated by the communication proxy: send
//  thread, receive thread, and compute thread.  After the communication
//  channel is established, the send and receive threads are activated
//  for data transfer and the compute thread performs the task
//  execution."  (Section 2.3.2)
//
// Lifecycle (Figure 7): the Application Controller activates the Data
// Manager (construct), the Data Manager sets up its channels via the
// broker (setup(), which completes the paper's setup/acknowledgment
// step), and on the execution startup signal run() spawns one receive
// thread per in-edge, the compute thread, and one send thread per
// out-edge.
#pragma once

#include <vector>

#include "common/ids.hpp"
#include "datamgr/broker.hpp"
#include "datamgr/mplib.hpp"
#include "datamgr/services.hpp"
#include "tasklib/registry.hpp"

namespace vdce::dm {

/// A task's position in the dataflow: which links it consumes and
/// produces.
struct TaskWiring {
  AppId app;
  TaskId task;
  /// Parent task ids in input-port order (FlowGraph::ordered_parents);
  /// input payloads are delivered to the task function in this order.
  std::vector<TaskId> parents;
  /// Child task ids (the output payload is replicated to each).
  std::vector<TaskId> children;
};

/// Statistics of one task execution, for the visualization services.
struct ExecutionStats {
  std::size_t bytes_received = 0;
  std::size_t bytes_sent = 0;
  std::size_t messages_received = 0;
  std::size_t messages_sent = 0;
  /// Sends that shared one pooled frame across links (D13 fast path).
  std::size_t zero_copy_frames = 0;
};

/// Per-task Data Manager.
class DataManager {
 public:
  /// `broker` must outlive the manager.
  DataManager(ChannelBroker& broker, MpLibrary library = MpLibrary::kP4);

  /// Channel setup (Figure 7 steps 2-3): registers the receive endpoint
  /// of every in-edge, then connects the send endpoint of every
  /// out-edge.  Returning normally is the acknowledgment the
  /// Application Controller forwards to the Site Manager.
  ///
  /// Deadlock-freedom: all receive endpoints are registered before any
  /// send endpoint blocks, so concurrent setup of all tasks of an
  /// application always completes.
  void setup(const TaskWiring& wiring);

  /// Executes the task (Figure 7 step 5): receive threads collect one
  /// payload per parent, the compute thread runs the library function,
  /// send threads push the result to every child.  `console`, when
  /// given, is honoured at the pre- and post-compute checkpoints.
  /// Returns the task's output payload.
  [[nodiscard]] tasklib::Payload run(const tasklib::TaskRegistry& registry,
                                     const std::string& library_task,
                                     const tasklib::TaskContext& ctx,
                                     ConsoleService* console = nullptr);

  /// Closes every channel (idempotent).
  void teardown();

  /// Arms a receive-side timeout for run(): a peer that neither
  /// delivers nor closes within `seconds` fails the receive with a
  /// TransportError instead of hanging this machine thread forever
  /// (the Control Manager's retry loop then re-places the task).
  /// `seconds <= 0` (the default) blocks indefinitely.
  void set_recv_timeout(double seconds) { recv_timeout_s_ = seconds; }
  [[nodiscard]] double recv_timeout() const { return recv_timeout_s_; }

  [[nodiscard]] const ExecutionStats& stats() const { return stats_; }
  [[nodiscard]] MpLibrary library() const { return library_; }

 private:
  ChannelBroker* broker_;
  MpLibrary library_;
  TaskWiring wiring_;
  bool is_set_up_ = false;
  double recv_timeout_s_ = 0.0;
  std::vector<MessageEndpoint> inputs_;   // one per parent, same order
  std::vector<MessageEndpoint> outputs_;  // one per child, same order
  ExecutionStats stats_;
};

}  // namespace vdce::dm
