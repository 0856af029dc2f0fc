#include "datamgr/data_manager.hpp"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace vdce::dm {

using common::StateError;
using common::TransportError;

namespace {
/// Message tag carried on every inter-task payload frame.
constexpr int kPayloadTag = 7;
}  // namespace

DataManager::DataManager(ChannelBroker& broker, MpLibrary library)
    : broker_(&broker), library_(library) {}

void DataManager::setup(const TaskWiring& wiring) {
  if (is_set_up_) throw StateError("DataManager::setup called twice");
  wiring_ = wiring;
  // wiring.parents is in the consumer's input-port order; the received
  // payloads are handed to the task function in exactly that order.

  // Register every input endpoint first (never blocks) ...
  for (const TaskId parent : wiring_.parents) {
    inputs_.emplace_back(
        library_,
        broker_->open_receive(LinkKey{wiring_.app, parent, wiring_.task}));
  }
  // ... then connect outputs (each blocks until its consumer is up).
  for (const TaskId child : wiring_.children) {
    outputs_.emplace_back(
        library_,
        broker_->open_send(LinkKey{wiring_.app, wiring_.task, child}));
  }
  is_set_up_ = true;
}

tasklib::Payload DataManager::run(const tasklib::TaskRegistry& registry,
                                  const std::string& library_task,
                                  const tasklib::TaskContext& ctx,
                                  ConsoleService* console) {
  if (!is_set_up_) throw StateError("DataManager::run before setup");

  // Receive threads: one per in-edge, each fills its input slot.
  std::vector<tasklib::Payload> received(inputs_.size());
  std::vector<std::string> errors(inputs_.size());
  {
    std::vector<std::jthread> receive_threads;
    receive_threads.reserve(inputs_.size());
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      receive_threads.emplace_back([this, i, &received, &errors] {
        try {
          auto msg = recv_timeout_s_ > 0.0
                         ? inputs_[i].receive_frame_for(recv_timeout_s_)
                         : inputs_[i].receive_frame();
          if (!msg) {
            errors[i] = "input channel closed before delivering data";
            return;
          }
          // The payload borrows the received frame: no copy.
          received[i] = tasklib::Payload::from_wire(std::move(msg->data));
        } catch (const std::exception& e) {
          errors[i] = e.what();
        }
      });
    }
  }  // join all receive threads
  for (const std::string& err : errors) {
    if (!err.empty()) {
      throw TransportError("task " + library_task + " receive failed: " + err);
    }
  }
  stats_.messages_received += received.size();
  for (const auto& p : received) stats_.bytes_received += p.size_bytes();
  {
    auto& metrics = common::MetricsRegistry::global();
    metrics.counter("datamgr.frames_received").add(received.size());
    std::size_t bytes = 0;
    for (const auto& p : received) bytes += p.size_bytes();
    metrics.counter("datamgr.bytes_received").add(bytes);
  }

  // Compute thread (honours the console service around the computation).
  if (console != nullptr) console->checkpoint();
  tasklib::Payload output;
  std::string compute_error;
  {
    std::jthread compute([&] {
      try {
        output = registry.run(library_task, received, ctx);
      } catch (const std::exception& e) {
        compute_error = e.what();
      }
    });
  }
  if (!compute_error.empty()) {
    throw StateError("task " + library_task + " failed: " + compute_error);
  }
  if (console != nullptr) console->checkpoint();

  // Send threads: replicate the output on every out-edge.  The output
  // payload is its own pooled frame, which every link shares.
  const FrameView& wire = output.wire();
  const std::size_t wire_n = wire.size();
  std::vector<std::string> send_errors(outputs_.size());
  if (library_ == MpLibrary::kPvm) {
    // PVM fragments the payload frame itself (no single envelope).
    std::vector<std::jthread> send_threads;
    send_threads.reserve(outputs_.size());
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      send_threads.emplace_back([this, i, &wire, &send_errors] {
        try {
          outputs_[i].send_frame(kPayloadTag, wire);
        } catch (const std::exception& e) {
          send_errors[i] = e.what();
        }
      });
    }
  } else if (!outputs_.empty()) {
    // P4/MPI/NCS: one prepared envelope, holding the one copy of the
    // wire image, fans out to every child.  All output endpoints advance
    // in lockstep (one payload message per link), so the sequence number
    // prepare() wrote is right for each.
    PreparedFrame prep = outputs_.front().prepare(kPayloadTag, wire_n);
    std::ranges::copy(wire.bytes(), prep.body().begin());
    const FrameView full = prep.frame.view();
    std::vector<std::jthread> send_threads;
    send_threads.reserve(outputs_.size());
    for (std::size_t i = 0; i < outputs_.size(); ++i) {
      send_threads.emplace_back([this, i, &full, &send_errors] {
        try {
          outputs_[i].send_prepared(full);
        } catch (const std::exception& e) {
          send_errors[i] = e.what();
        }
      });
    }
  }
  stats_.zero_copy_frames += outputs_.size();
  for (const std::string& err : send_errors) {
    if (!err.empty()) {
      throw TransportError("task " + library_task + " send failed: " + err);
    }
  }
  stats_.messages_sent += outputs_.size();
  stats_.bytes_sent += wire_n * outputs_.size();
  {
    auto& metrics = common::MetricsRegistry::global();
    metrics.counter("datamgr.frames_sent").add(outputs_.size());
    metrics.counter("datamgr.bytes_sent").add(wire_n * outputs_.size());
  }

  return output;
}

void DataManager::teardown() {
  for (auto& in : inputs_) in.close();
  for (auto& out : outputs_) out.close();
}

}  // namespace vdce::dm
