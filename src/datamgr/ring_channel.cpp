#include "datamgr/ring_channel.hpp"

#include <chrono>
#include <cstring>
#include <string>

#include "common/error.hpp"
#include "common/metrics.hpp"

namespace vdce::dm {

namespace {

using SteadyClock = std::chrono::steady_clock;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

}  // namespace

RingChannel::RingChannel(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<FrameView[]>(capacity == 0 ? 1 : capacity)) {}

RingChannel::~RingChannel() = default;

void RingChannel::push_locked(FrameView&& frame) {
  bytes_sent_ += frame.size();
  const std::size_t count = count_.load(std::memory_order_relaxed);
  slots_[(head_ + count) % capacity_] = std::move(frame);
  count_.store(count + 1, std::memory_order_relaxed);
  ++stats_.frames_pushed;
  if (count + 1 > stats_.high_water) stats_.high_water = count + 1;
}

FrameView RingChannel::take_locked() {
  FrameView out = std::move(slots_[head_]);
  slots_[head_].reset();
  head_ = (head_ + 1) % capacity_;
  count_.store(count_.load(std::memory_order_relaxed) - 1,
               std::memory_order_relaxed);
  ++stats_.frames_popped;
  return out;
}

template <typename Ready>
bool RingChannel::await(std::unique_lock<std::mutex>& lk,
                        std::condition_variable& cv, std::size_t& parked,
                        std::uint64_t& parks, Ready ready,
                        const SteadyClock::time_point* deadline) {
  if (ready()) return true;
  lk.unlock();
  const auto spin_end = SteadyClock::now() + kSpinBeforePark;
  do {
    cpu_relax();
  } while (!ready() && SteadyClock::now() < spin_end);
  lk.lock();
  if (ready()) return true;
  if (deadline != nullptr && SteadyClock::now() >= *deadline) return false;
  ++parks;
  ++parked;
  bool ok = true;
  if (deadline != nullptr) {
    ok = cv.wait_until(lk, *deadline, ready);
  } else {
    cv.wait(lk, ready);
  }
  --parked;
  return ok;
}

void RingChannel::push(FrameView frame) {
  const auto room = [this] {
    return count_.load(std::memory_order_relaxed) < capacity_ ||
           aborted_.load(std::memory_order_relaxed);
  };
  std::unique_lock lk(mu_);
  (void)await(lk, not_full_, producers_parked_, stats_.producer_parks, room,
              nullptr);
  if (aborted_) {
    throw common::TransportError("push on an aborted ring channel");
  }
  if (eos_) {
    throw common::TransportError("push after ring channel end-of-stream");
  }
  push_locked(std::move(frame));
  const bool wake = consumers_parked_ > 0;
  lk.unlock();
  if (wake) not_empty_.notify_one();
}

bool RingChannel::try_push(FrameView frame) {
  bool wake = false;
  {
    std::lock_guard lk(mu_);
    if (aborted_) {
      throw common::TransportError("push on an aborted ring channel");
    }
    if (eos_) {
      throw common::TransportError("push after ring channel end-of-stream");
    }
    if (count_ == capacity_) return false;
    push_locked(std::move(frame));
    wake = consumers_parked_ > 0;
  }
  if (wake) not_empty_.notify_one();
  return true;
}

std::optional<FrameView> RingChannel::pop() { return pop_for(0.0); }

std::optional<FrameView> RingChannel::pop_for(double timeout_s) {
  SteadyClock::time_point deadline;
  if (timeout_s > 0.0) {
    deadline = SteadyClock::now() +
               std::chrono::duration_cast<SteadyClock::duration>(
                   std::chrono::duration<double>(timeout_s));
  }
  const auto frame_or_end = [this] {
    return count_.load(std::memory_order_relaxed) > 0 ||
           eos_.load(std::memory_order_relaxed) ||
           aborted_.load(std::memory_order_relaxed);
  };
  std::optional<FrameView> out;
  bool wake = false;
  {
    std::unique_lock lk(mu_);
    if (!await(lk, not_empty_, consumers_parked_, stats_.consumer_parks,
               frame_or_end, timeout_s > 0.0 ? &deadline : nullptr)) {
      common::MetricsRegistry::global()
          .counter("datamgr.deadline_expiries")
          .add(1);
      throw common::TransportError("ring channel pop timed out after " +
                                   std::to_string(timeout_s) + "s");
    }
    if (aborted_) {
      throw common::TransportError("pop on an aborted ring channel");
    }
    if (count_ == 0) return std::nullopt;  // clean EOS, drained
    out = take_locked();
    wake = producers_parked_ > 0;
  }
  if (wake) not_full_.notify_one();
  return out;
}

void RingChannel::add_producer() {
  std::lock_guard lk(mu_);
  if (eos_ || aborted_) {
    throw common::StateError("add_producer after ring channel end-of-stream");
  }
  ++producers_;
}

void RingChannel::close_send() {
  {
    std::lock_guard lk(mu_);
    if (producers_ > 0) --producers_;
    if (producers_ > 0) return;
    eos_.store(true, std::memory_order_relaxed);
  }
  // Consumers parked on an empty ring must observe EOS; producers of
  // sibling fan-in links never park once the stream is over, but a
  // blocked push racing the close resolves through the eos_ check.
  not_empty_.notify_all();
  not_full_.notify_all();
}

void RingChannel::abort() {
  {
    std::lock_guard lk(mu_);
    if (aborted_) return;
    aborted_.store(true, std::memory_order_relaxed);
    const std::size_t count = count_.load(std::memory_order_relaxed);
    stats_.frames_dropped += count;
    // Release the queued slabs now: an aborted stream's frames must not
    // pin pool memory until the ring object itself dies.
    for (std::size_t i = 0; i < count; ++i) {
      slots_[(head_ + i) % capacity_].reset();
    }
    head_ = 0;
    count_.store(0, std::memory_order_relaxed);
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

std::size_t RingChannel::size() const {
  std::lock_guard lk(mu_);
  return count_;
}

bool RingChannel::eos() const {
  std::lock_guard lk(mu_);
  return eos_;
}

bool RingChannel::aborted() const {
  std::lock_guard lk(mu_);
  return aborted_;
}

RingChannelStats RingChannel::stats() const {
  std::lock_guard lk(mu_);
  return stats_;
}

// -- Channel interface ----------------------------------------------------

void RingChannel::send(std::span<const std::byte> message) {
  Frame frame = FramePool::global().allocate(message.size());
  if (!message.empty()) {
    std::memcpy(frame.data(), message.data(), message.size());
  }
  push(frame.view());
}

void RingChannel::send_frame(const FrameView& frame) { push(frame); }

std::optional<std::vector<std::byte>> RingChannel::receive() {
  auto view = pop();
  if (!view) return std::nullopt;
  return view->to_vector();
}

std::optional<std::vector<std::byte>> RingChannel::receive_for(
    double timeout_s) {
  auto view = pop_for(timeout_s);
  if (!view) return std::nullopt;
  return view->to_vector();
}

std::optional<FrameView> RingChannel::receive_frame() { return pop(); }

std::optional<FrameView> RingChannel::receive_frame_for(double timeout_s) {
  return pop_for(timeout_s);
}

void RingChannel::close() { close_send(); }

std::size_t RingChannel::bytes_sent() const {
  std::lock_guard lk(mu_);
  return bytes_sent_;
}

}  // namespace vdce::dm
