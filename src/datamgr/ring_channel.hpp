// Bounded streaming channel: a fixed-capacity ring of pooled frames
// with blocking backpressure (design decision D16 in DESIGN.md).
//
// Every existing channel is built for run-to-completion DAGs: the
// in-process pair rides an UNBOUNDED MessageQueue, so a producer can
// outrun its consumer without limit and memory grows with the stream.
// A RingChannel is the streaming counterpart (exemplar: R2sampler's
// fixed ring buffer between rate-converter stages): one slab of
// `capacity` FrameView slots allocated once at construction, and two
// park/wake disciplines instead of growth --
//
//   * a producer pushing into a full ring PARKS until a consumer makes
//     room (backpressure: the whole upstream pipeline throttles to the
//     slowest stage instead of buffering unboundedly);
//   * a consumer popping from an empty ring parks until a producer
//     delivers or the stream ends.
//
// End-of-stream is explicit and counted: the ring tracks its attached
// producers (one by default; fan-in adds more via add_producer), and
// close_send() retires one.  When the last producer retires, consumers
// drain the remaining frames and then see nullopt -- the clean EOS the
// streaming engine propagates stage to stage.  abort() is the hard
// teardown (ChannelBroker::clear_app): queued frames are dropped and
// every parked producer AND consumer wakes with TransportError.
//
// A push into a full ring, or a pop from an empty one, first spins for
// kSpinBeforePark watching the ring's state without its lock: in a
// steady pipeline the peer frees a slot or delivers a frame within
// microseconds, which is cheaper to wait out than a futex park and
// wake.  Only then does it park on the condition variable, and a
// push/pop signals the other side only when someone is parked.
//
// Thread-safe for any number of racing producers and consumers.  FIFO
// order is global: frames pop in exactly the order their pushes
// committed (per-producer order is therefore preserved under fan-in).
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>

#include <condition_variable>

#include "datamgr/channel.hpp"

namespace vdce::dm {

/// Point-in-time ring counters (reads are racy-but-consistent snapshots
/// under the ring's own lock).
struct RingChannelStats {
  std::uint64_t frames_pushed = 0;
  std::uint64_t frames_popped = 0;
  std::uint64_t frames_dropped = 0;   ///< queued frames discarded by abort()
  std::uint64_t producer_parks = 0;   ///< push() parked on a full ring
  std::uint64_t consumer_parks = 0;   ///< pop() parked on an empty ring
  std::size_t high_water = 0;         ///< max occupancy ever observed
};

/// Fixed-capacity single-allocation frame ring with backpressure.
///
/// Also implements the Channel interface (send == blocking push of a
/// pooled copy, receive == pop, close == orderly close_send) so a ring
/// can stand wherever a Channel is expected.
class RingChannel final : public Channel {
 public:
  /// How long a blocked push or pop spins before it parks.
  static constexpr std::chrono::microseconds kSpinBeforePark{10};

  /// `capacity` >= 1 slots; the slot array is the only allocation the
  /// channel ever makes.  The ring starts with ONE attached producer.
  explicit RingChannel(std::size_t capacity);
  ~RingChannel() override;

  // -- streaming interface ----------------------------------------------

  /// Enqueues one frame view (refcount bump, zero bytes moved), parking
  /// while the ring is full.  Throws TransportError if the ring is
  /// aborted (including while parked -- the clear_app wake) or if every
  /// producer already retired.
  void push(FrameView frame);

  /// Non-blocking push; returns false when the ring is full.  Same
  /// TransportError conditions as push().
  [[nodiscard]] bool try_push(FrameView frame);

  /// Dequeues the next frame, parking while the ring is empty.  Returns
  /// nullopt only on clean end-of-stream (all producers retired and the
  /// ring drained).  Throws TransportError if the ring is aborted.
  [[nodiscard]] std::optional<FrameView> pop();

  /// Like pop(), but gives up after `timeout_s` seconds with
  /// TransportError (the dead-producer guard).  `timeout_s <= 0`
  /// blocks indefinitely.
  [[nodiscard]] std::optional<FrameView> pop_for(double timeout_s);

  /// Attaches one more producer (fan-in); EOS now needs one more
  /// close_send().  Throws StateError once the stream already ended.
  void add_producer();

  /// Retires one producer.  When the last producer retires the stream
  /// is at end-of-stream: consumers drain, then see nullopt.
  /// Idempotent once all producers are retired.
  void close_send();

  /// Hard teardown: drops queued frames (releasing their slabs) and
  /// wakes every parked producer and consumer with TransportError.
  /// Idempotent.
  void abort();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t size() const;
  /// True once every producer retired (frames may remain to drain).
  [[nodiscard]] bool eos() const;
  [[nodiscard]] bool aborted() const;
  [[nodiscard]] RingChannelStats stats() const;

  // -- Channel interface -------------------------------------------------

  void send(std::span<const std::byte> message) override;
  void send_frame(const FrameView& frame) override;
  [[nodiscard]] std::optional<std::vector<std::byte>> receive() override;
  [[nodiscard]] std::optional<std::vector<std::byte>> receive_for(
      double timeout_s) override;
  [[nodiscard]] std::optional<FrameView> receive_frame() override;
  [[nodiscard]] std::optional<FrameView> receive_frame_for(
      double timeout_s) override;
  /// Orderly close: identical to close_send().
  void close() override;
  [[nodiscard]] std::size_t bytes_sent() const override;

 private:
  /// Pops under `lk` after the wait predicate passed; assumes
  /// count_ > 0.
  [[nodiscard]] FrameView take_locked();
  void push_locked(FrameView&& frame);
  /// Waits under `lk` until `ready()`: spins unlocked for
  /// kSpinBeforePark, then parks on `cv` -- counted in `parks`, with
  /// `parked` raised while it waits -- until `deadline` when one is
  /// given.  Returns ready().  count_, eos_ and aborted_ change only
  /// under mu_, but are atomic so that the spin can read them without
  /// it.
  template <typename Ready>
  bool await(std::unique_lock<std::mutex>& lk, std::condition_variable& cv,
             std::size_t& parked, std::uint64_t& parks, Ready ready,
             const std::chrono::steady_clock::time_point* deadline);

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::unique_ptr<FrameView[]> slots_;  // the single allocation
  std::size_t head_ = 0;                // next slot to pop
  std::atomic<std::size_t> count_{0};   // occupied slots
  std::atomic<bool> eos_{false};        // all producers retired
  std::atomic<bool> aborted_{false};    // abort() was called
  std::size_t producers_ = 1;           // attached, not yet retired
  std::size_t producers_parked_ = 0;    // pushes parked on not_full_
  std::size_t consumers_parked_ = 0;    // pops parked on not_empty_
  std::size_t bytes_sent_ = 0;
  RingChannelStats stats_;
};

}  // namespace vdce::dm
