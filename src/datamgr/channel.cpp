#include "datamgr/channel.hpp"

#include <atomic>
#include <cstring>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/queue.hpp"

namespace vdce::dm {

// -- Channel base defaults (for third-party transports) ------------------

void Channel::send_frame(const FrameView& frame) { send(frame.bytes()); }

std::optional<FrameView> Channel::receive_frame() {
  auto msg = receive();
  if (!msg) return std::nullopt;
  return FramePool::global().copy_of(*msg);
}

std::optional<FrameView> Channel::receive_frame_for(double timeout_s) {
  auto msg = receive_for(timeout_s);
  if (!msg) return std::nullopt;
  return FramePool::global().copy_of(*msg);
}

namespace {

/// Shared queue state of an in-process channel pair.  The queue carries
/// frame views: a send moves one refcounted view, not the bytes.
struct InProcCore {
  common::MessageQueue<FrameView> queue;
  std::atomic<std::size_t> bytes_sent{0};
};

[[noreturn]] void wrong_direction(const char* what) {
  throw common::TransportError(what);
}

class InProcSender final : public Channel {
 public:
  explicit InProcSender(std::shared_ptr<InProcCore> core)
      : core_(std::move(core)) {}

  void send(std::span<const std::byte> message) override {
    // One copy: caller's buffer into a frame.  Consumers then share it.
    Frame frame = FramePool::global().allocate(message.size());
    if (!message.empty()) {
      std::memcpy(frame.data(), message.data(), message.size());
    }
    push(frame.view(), message.size());
  }

  void send_frame(const FrameView& frame) override {
    push(frame, frame.size());  // zero-copy: refcount bump only
  }

  std::optional<std::vector<std::byte>> receive() override {
    wrong_direction("receive on the sending end of an in-process channel");
  }

  std::optional<std::vector<std::byte>> receive_for(double) override {
    wrong_direction("receive on the sending end of an in-process channel");
  }

  void close() override { core_->queue.close(); }

  std::size_t bytes_sent() const override { return core_->bytes_sent; }

 private:
  void push(FrameView view, std::size_t n) {
    if (!core_->queue.push(std::move(view))) {
      throw common::TransportError("send on closed in-process channel");
    }
    core_->bytes_sent += n;
  }

  std::shared_ptr<InProcCore> core_;
};

class InProcReceiver final : public Channel {
 public:
  explicit InProcReceiver(std::shared_ptr<InProcCore> core)
      : core_(std::move(core)) {}

  void send(std::span<const std::byte>) override {
    wrong_direction("send on the receiving end of an in-process channel");
  }

  void send_frame(const FrameView&) override {
    wrong_direction("send on the receiving end of an in-process channel");
  }

  std::optional<std::vector<std::byte>> receive() override {
    auto view = core_->queue.pop();
    if (!view) return std::nullopt;
    return view->to_vector();
  }

  std::optional<std::vector<std::byte>> receive_for(
      double timeout_s) override {
    auto view = receive_frame_for(timeout_s);
    if (!view) return std::nullopt;
    return view->to_vector();
  }

  std::optional<FrameView> receive_frame() override {
    return core_->queue.pop();
  }

  std::optional<FrameView> receive_frame_for(double timeout_s) override {
    if (timeout_s <= 0.0) return receive_frame();
    auto view = core_->queue.pop_for(std::chrono::duration<double>(timeout_s));
    if (view) return view;
    // pop_for returns nullopt both on timeout and on an orderly close;
    // only the former is an error.
    if (auto late = core_->queue.try_pop()) return late;
    if (core_->queue.closed()) return std::nullopt;
    common::MetricsRegistry::global()
        .counter("datamgr.deadline_expiries")
        .add(1);
    throw common::TransportError("in-process receive timed out after " +
                                 std::to_string(timeout_s) + "s");
  }

  void close() override { core_->queue.close(); }

  std::size_t bytes_sent() const override { return core_->bytes_sent; }

 private:
  std::shared_ptr<InProcCore> core_;
};

}  // namespace

InProcPair make_inproc_pair() {
  auto core = std::make_shared<InProcCore>();
  return InProcPair{std::make_shared<InProcSender>(core),
                    std::make_shared<InProcReceiver>(core)};
}

}  // namespace vdce::dm
