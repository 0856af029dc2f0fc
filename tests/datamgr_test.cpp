// Tests for the Data Manager stack: channels (in-process and TCP),
// the rendezvous broker, message-passing library facades, services,
// and the send/receive/compute thread lifecycle.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "datamgr/broker.hpp"
#include "datamgr/channel.hpp"
#include "datamgr/data_manager.hpp"
#include "datamgr/event_loop.hpp"
#include "datamgr/frame.hpp"
#include "datamgr/mplib.hpp"
#include "datamgr/services.hpp"
#include "datamgr/tcp.hpp"

namespace vdce::dm {
namespace {

using common::AppId;
using common::StateError;
using common::TaskId;
using common::TransportError;

std::vector<std::byte> bytes_of(const std::string& s) {
  std::vector<std::byte> out;
  for (char c : s) out.push_back(static_cast<std::byte>(c));
  return out;
}

std::string string_of(const std::vector<std::byte>& b) {
  std::string out;
  for (std::byte v : b) out.push_back(static_cast<char>(v));
  return out;
}

// ------------------------------------------------------------ channels

TEST(InProcChannel, DeliversInOrder) {
  auto pair = make_inproc_pair();
  pair.sender->send(bytes_of("one"));
  pair.sender->send(bytes_of("two"));
  EXPECT_EQ(string_of(*pair.receiver->receive()), "one");
  EXPECT_EQ(string_of(*pair.receiver->receive()), "two");
}

TEST(InProcChannel, CloseDrainsThenEof) {
  auto pair = make_inproc_pair();
  pair.sender->send(bytes_of("last"));
  pair.sender->close();
  EXPECT_EQ(string_of(*pair.receiver->receive()), "last");
  EXPECT_EQ(pair.receiver->receive(), std::nullopt);
}

TEST(InProcChannel, SendAfterCloseThrows) {
  auto pair = make_inproc_pair();
  pair.receiver->close();
  EXPECT_THROW(pair.sender->send(bytes_of("x")), TransportError);
}

TEST(InProcChannel, WrongDirectionThrows) {
  auto pair = make_inproc_pair();
  EXPECT_THROW((void)pair.sender->receive(), TransportError);
  EXPECT_THROW(pair.receiver->send(bytes_of("x")), TransportError);
}

TEST(InProcChannel, CountsBytes) {
  auto pair = make_inproc_pair();
  pair.sender->send(bytes_of("12345"));
  EXPECT_EQ(pair.sender->bytes_sent(), 5u);
}

TEST(TcpChannel, RoundTripOverLoopback) {
  TcpListener listener;
  EXPECT_GT(listener.port(), 0);

  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  ASSERT_TRUE(server_end);

  client_end->send(bytes_of("hello over tcp"));
  EXPECT_EQ(string_of(*server_end->receive()), "hello over tcp");

  // And the other direction.
  server_end->send(bytes_of("reply"));
  EXPECT_EQ(string_of(*client_end->receive()), "reply");
}

TEST(TcpChannel, LargeMessage) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  common::Rng rng(1);
  std::vector<std::byte> big(1 << 20);
  for (auto& b : big) b = static_cast<std::byte>(rng() & 0xFF);
  client_end->send(big);
  const auto got = server_end->receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, big);
}

TEST(TcpChannel, EmptyMessage) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  client_end->send({});
  const auto got = server_end->receive();
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->empty());
}

TEST(TcpChannel, OrderlyEofOnClose) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  client_end->close();
  EXPECT_EQ(server_end->receive(), std::nullopt);
}

TEST(TcpChannel, ConnectToDeadPortThrows) {
  // Grab a port then close the listener so nothing is listening.
  std::uint16_t port;
  {
    TcpListener listener;
    port = listener.port();
  }
  EXPECT_THROW((void)tcp_connect(port), TransportError);
}

TEST(TcpChannel, RejectsOversizedSend) {
  // The 4-byte length header cannot carry messages above the frame
  // limit; send must refuse instead of silently truncating the length.
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  client_end->set_max_message_bytes(64);
  EXPECT_THROW(client_end->send(std::vector<std::byte>(65)),
               TransportError);
  // At the limit is still fine.
  client_end->send(std::vector<std::byte>(64));
  EXPECT_EQ(server_end->receive()->size(), 64u);
}

TEST(TcpChannel, ReceiveBoundsChecksDecodedLength) {
  // A peer announcing a frame larger than the receiver's limit must be
  // rejected before the receiver allocates the announced size.
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  server_end->set_max_message_bytes(16);
  client_end->send(std::vector<std::byte>(1024));
  EXPECT_THROW((void)server_end->receive(), TransportError);
}

TEST(TcpChannel, InvalidFrameLimitRejected) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  EXPECT_THROW(client_end->set_max_message_bytes(0), StateError);
  EXPECT_THROW(client_end->set_max_message_bytes(std::size_t{1} << 40),
               StateError);
}

TEST(TcpChannel, ReceiveForTimesOutWithoutData) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  EXPECT_THROW((void)server_end->receive_for(0.05), TransportError);
  // The channel is still usable after a timeout.
  client_end->send(bytes_of("late"));
  EXPECT_EQ(string_of(*server_end->receive_for(5.0)), "late");
}

TEST(TcpChannel, ReceiveForSeesOrderlyClose) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();
  client_end->close();
  EXPECT_EQ(server_end->receive_for(5.0), std::nullopt);
}

TEST(InProcChannel, ReceiveForTimesOutWithoutData) {
  auto pair = make_inproc_pair();
  EXPECT_THROW((void)pair.receiver->receive_for(0.05), TransportError);
  pair.sender->send(bytes_of("late"));
  EXPECT_EQ(string_of(*pair.receiver->receive_for(5.0)), "late");
}

TEST(InProcChannel, ReceiveForSeesOrderlyClose) {
  auto pair = make_inproc_pair();
  pair.sender->close();
  EXPECT_EQ(pair.receiver->receive_for(5.0), std::nullopt);
}

// -------------------------------------------------------------- broker

class BrokerKinds : public ::testing::TestWithParam<TransportKind> {};

TEST_P(BrokerKinds, RendezvousDelivers) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};

  auto receiver = broker.open_receive(key);
  std::jthread producer([&] {
    auto sender = broker.open_send(key);
    sender->send(bytes_of("payload"));
    sender->close();
  });
  EXPECT_EQ(string_of(*receiver->receive()), "payload");
}

TEST_P(BrokerKinds, SenderWaitsForReceiver) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  std::shared_ptr<Channel> receiver;

  std::jthread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    receiver = broker.open_receive(key);
  });
  auto sender = broker.open_send(key, /*timeout_s=*/5.0);  // blocks, then ok
  consumer.join();
  sender->send(bytes_of("late ok"));
  EXPECT_EQ(string_of(*receiver->receive()), "late ok");
}

TEST_P(BrokerKinds, TimeoutWhenNoConsumer) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  EXPECT_THROW((void)broker.open_send(key, 0.05), TransportError);
}

TEST_P(BrokerKinds, DuplicateReceiveRejected) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  (void)broker.open_receive(key);
  EXPECT_THROW((void)broker.open_receive(key), StateError);
}

TEST_P(BrokerKinds, ClearAppFreesKeys) {
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  (void)broker.open_receive(key);
  broker.clear_app(AppId(1));
  EXPECT_NO_THROW((void)broker.open_receive(key));
}

TEST_P(BrokerKinds, ClearAppAbortsPendingOpenSend) {
  // Regression (DESIGN.md D12): a feeder blocked in open_send while the
  // engine tears the app down must abort promptly, not sleep out its
  // full timeout -- and must never pair with the NEXT recovery round's
  // registration for the same key.
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(7), TaskId(0), TaskId(1)};

  std::atomic<bool> threw{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::jthread feeder([&] {
    try {
      (void)broker.open_send(key, /*timeout_s=*/30.0);
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  broker.clear_app(AppId(7));
  feeder.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(threw.load());
  EXPECT_LT(elapsed, 5.0) << "open_send waited out its timeout";
}

TEST_P(BrokerKinds, ClearAppIdempotentAndConcurrentSafe) {
  // clear_app twice in a row is a no-op the second time, and a storm of
  // concurrent clears racing blocked feeders neither crashes nor
  // strands a waiter.
  ChannelBroker broker(GetParam());
  constexpr int kFeeders = 4;
  std::atomic<int> aborted{0};
  {
    std::vector<std::jthread> feeders;
    for (int i = 0; i < kFeeders; ++i) {
      feeders.emplace_back([&broker, &aborted, i] {
        try {
          (void)broker.open_send(
              LinkKey{AppId(9), TaskId(i), TaskId(100 + i)},
              /*timeout_s=*/30.0);
        } catch (const TransportError&) {
          aborted.fetch_add(1);
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    std::jthread clearer_a([&] { broker.clear_app(AppId(9)); });
    std::jthread clearer_b([&] { broker.clear_app(AppId(9)); });
  }
  EXPECT_EQ(aborted.load(), kFeeders);

  // The broker stays usable for the same app after the clears: a fresh
  // registration pairs with a fresh open_send.
  const LinkKey key{AppId(9), TaskId(0), TaskId(100)};
  auto receiver = broker.open_receive(key);
  std::jthread producer([&] {
    auto sender = broker.open_send(key, /*timeout_s=*/5.0);
    sender->send(bytes_of("after clear"));
    sender->close();
  });
  EXPECT_EQ(string_of(*receiver->receive()), "after clear");
}

TEST_P(BrokerKinds, ClearAppLeavesOtherAppsWaiting) {
  // Clearing app A must not abort a feeder blocked on app B's link.
  ChannelBroker broker(GetParam());
  const LinkKey key{AppId(2), TaskId(0), TaskId(1)};
  std::shared_ptr<Channel> receiver;

  std::jthread consumer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
    receiver = broker.open_receive(key);
  });
  std::jthread other_clear([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    broker.clear_app(AppId(1));  // unrelated app
  });
  auto sender = broker.open_send(key, /*timeout_s=*/5.0);
  consumer.join();
  sender->send(bytes_of("unaffected"));
  EXPECT_EQ(string_of(*receiver->receive()), "unaffected");
}

INSTANTIATE_TEST_SUITE_P(Transports, BrokerKinds,
                         ::testing::Values(TransportKind::kInProcess,
                                           TransportKind::kTcp));

// ------------------------------------------------- ring channel (D16)

TEST(RingChannel, FifoOrderAndDrainToEos) {
  RingChannel ring(4);
  for (int i = 0; i < 4; ++i) {
    ring.push(FramePool::global().copy_of(bytes_of("f" + std::to_string(i))));
  }
  EXPECT_EQ(ring.size(), 4u);
  ring.close_send();
  EXPECT_TRUE(ring.eos());
  for (int i = 0; i < 4; ++i) {
    auto fv = ring.pop();
    ASSERT_TRUE(fv.has_value());
    EXPECT_EQ(string_of(fv->to_vector()), "f" + std::to_string(i));
  }
  EXPECT_FALSE(ring.pop().has_value());  // clean EOS
  EXPECT_FALSE(ring.pop().has_value());  // and it stays that way
}

TEST(RingChannel, TryPushReportsFullWithoutBlocking) {
  RingChannel ring(2);
  EXPECT_TRUE(ring.try_push(FramePool::global().copy_of(bytes_of("a"))));
  EXPECT_TRUE(ring.try_push(FramePool::global().copy_of(bytes_of("b"))));
  EXPECT_FALSE(ring.try_push(FramePool::global().copy_of(bytes_of("c"))));
  EXPECT_EQ(ring.stats().frames_pushed, 2u);
  (void)ring.pop();
  EXPECT_TRUE(ring.try_push(FramePool::global().copy_of(bytes_of("c"))));
}

TEST(RingChannel, ProducerParksOnFullUntilConsumerMakesRoom) {
  RingChannel ring(1);
  ring.push(FramePool::global().copy_of(bytes_of("first")));
  std::atomic<bool> delivered{false};
  std::jthread producer([&] {
    ring.push(FramePool::global().copy_of(bytes_of("second")));
    delivered.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_FALSE(delivered.load());  // parked on the full ring
  EXPECT_EQ(string_of(ring.pop()->to_vector()), "first");
  producer.join();
  EXPECT_TRUE(delivered.load());
  EXPECT_EQ(string_of(ring.pop()->to_vector()), "second");
  EXPECT_GE(ring.stats().producer_parks, 1u);
}

TEST(RingChannel, PopForTimesOutWithTransportError) {
  RingChannel ring(2);
  const auto before =
      common::MetricsRegistry::global().counter("datamgr.deadline_expiries")
          .value();
  EXPECT_THROW((void)ring.pop_for(0.05), TransportError);
  EXPECT_GT(common::MetricsRegistry::global()
                .counter("datamgr.deadline_expiries")
                .value(),
            before);
}

TEST(RingChannel, MultiProducerEosNeedsEveryRetirement) {
  RingChannel ring(8);
  ring.add_producer();  // two producers now
  ring.push(FramePool::global().copy_of(bytes_of("x")));
  ring.close_send();
  EXPECT_FALSE(ring.eos());  // one producer still attached
  ring.close_send();
  EXPECT_TRUE(ring.eos());
  EXPECT_TRUE(ring.pop().has_value());
  EXPECT_FALSE(ring.pop().has_value());
  EXPECT_THROW(ring.add_producer(), StateError);
  EXPECT_THROW(ring.push(FramePool::global().copy_of(bytes_of("y"))),
               TransportError);
}

TEST(RingChannel, AbortDropsFramesAndWakesParkedProducer) {
  RingChannel ring(1);
  ring.push(FramePool::global().copy_of(bytes_of("stuck")));
  std::atomic<bool> threw{false};
  std::jthread producer([&] {
    try {
      ring.push(FramePool::global().copy_of(bytes_of("parked")));
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ring.abort();
  ring.abort();  // idempotent
  producer.join();
  EXPECT_TRUE(threw.load());
  EXPECT_TRUE(ring.aborted());
  EXPECT_EQ(ring.size(), 0u);  // the queued frame was dropped
  EXPECT_EQ(ring.stats().frames_dropped, 1u);
  EXPECT_THROW((void)ring.pop(), TransportError);
  EXPECT_THROW(ring.push(FramePool::global().copy_of(bytes_of("late"))),
               TransportError);
}

TEST(RingChannel, AbortWakesParkedConsumer) {
  RingChannel ring(2);
  std::atomic<bool> threw{false};
  std::jthread consumer([&] {
    try {
      (void)ring.pop();  // parks: empty, no EOS
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ring.abort();
  consumer.join();
  EXPECT_TRUE(threw.load());
}

// A blocked push or pop spins for RingChannel::kSpinBeforePark before it
// parks.  The tests below race the other side against that window: most
// trials land inside it, the rest against a parked waiter, and the
// outcome must be the same either way.
TEST(RingChannel, AbortDuringTheSpinWakesProducerAndConsumer) {
  for (int trial = 0; trial < 200; ++trial) {
    RingChannel full(1);
    full.push(FramePool::global().copy_of(bytes_of("stuck")));
    RingChannel empty(1);
    std::atomic<int> started{0};
    std::atomic<int> threw{0};
    {
      std::jthread producer([&] {
        const FrameView frame = FramePool::global().copy_of(bytes_of("f"));
        started.fetch_add(1);
        try {
          full.push(frame);
        } catch (const TransportError&) {
          threw.fetch_add(1);
        }
      });
      std::jthread consumer([&] {
        started.fetch_add(1);
        try {
          (void)empty.pop();
        } catch (const TransportError&) {
          threw.fetch_add(1);
        }
      });
      while (started.load() < 2) std::this_thread::yield();
      full.abort();
      empty.abort();
    }
    ASSERT_EQ(threw.load(), 2) << "trial " << trial;
  }
}

TEST(RingChannel, SpinningConsumerSeesTheLastFrameThenCleanEos) {
  for (int trial = 0; trial < 200; ++trial) {
    RingChannel ring(2);
    std::atomic<bool> started{false};
    std::vector<std::string> got;
    bool eos = false;
    {
      std::jthread consumer([&] {
        started.store(true);
        while (auto frame = ring.pop()) {
          got.push_back(string_of(frame->to_vector()));
        }
        eos = true;
      });
      while (!started.load()) std::this_thread::yield();
      ring.push(FramePool::global().copy_of(bytes_of("last")));
      ring.close_send();
    }
    ASSERT_TRUE(eos) << "trial " << trial;
    ASSERT_EQ(got, std::vector<std::string>{"last"}) << "trial " << trial;
  }
}

TEST(RingChannel, PopForDeadlineInsideTheSpinStillExpires) {
  RingChannel ring(2);
  auto& expiries =
      common::MetricsRegistry::global().counter("datamgr.deadline_expiries");
  const auto before = expiries.value();
  EXPECT_THROW((void)ring.pop_for(1e-6), TransportError);
  EXPECT_EQ(expiries.value(), before + 1);
  // It expired while spinning: it never parked.
  EXPECT_EQ(ring.stats().consumer_parks, 0u);
}

TEST(RingChannel, ParksCountOnlyRealParks) {
  RingChannel ring(2);
  ring.push(FramePool::global().copy_of(bytes_of("ready")));
  (void)ring.pop();  // a frame was waiting: no spin, no park
  EXPECT_EQ(ring.stats().consumer_parks, 0u);

  std::jthread consumer([&] { (void)ring.pop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  ring.push(FramePool::global().copy_of(bytes_of("late")));
  consumer.join();
  EXPECT_EQ(ring.stats().consumer_parks, 1u);
  EXPECT_EQ(ring.stats().producer_parks, 0u);
}

TEST(RingChannel, ChannelInterfaceRoundTrip) {
  RingChannel ring(4);
  Channel& ch = ring;
  ch.send(bytes_of("via channel"));
  EXPECT_EQ(ch.bytes_sent(), bytes_of("via channel").size());
  EXPECT_EQ(string_of(*ch.receive()), "via channel");
  ch.close();
  EXPECT_FALSE(ch.receive().has_value());
}

// -------------------------------------- broker streaming links (D16)

TEST(ChannelBrokerStream, RendezvousSharesOneRing) {
  ChannelBroker broker(TransportKind::kInProcess);
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  auto receiver = broker.open_stream_receive(key, 4);
  auto sender = broker.open_stream_send(key);
  EXPECT_EQ(receiver.get(), sender.get());  // one bounded ring, two ends
  sender->push(FramePool::global().copy_of(bytes_of("hello")));
  sender->close_send();
  EXPECT_EQ(string_of(receiver->pop()->to_vector()), "hello");
  EXPECT_FALSE(receiver->pop().has_value());
}

TEST(ChannelBrokerStream, FanInAttachesOneProducerPerOpen) {
  ChannelBroker broker(TransportKind::kInProcess);
  const LinkKey key{AppId(1), TaskId(0), TaskId(1)};
  auto receiver = broker.open_stream_receive(key, 4);
  auto a = broker.open_stream_send(key);
  auto b = broker.open_stream_send(key);
  a->push(FramePool::global().copy_of(bytes_of("from a")));
  a->close_send();
  EXPECT_FALSE(receiver->eos());  // b is still attached
  b->close_send();
  EXPECT_TRUE(receiver->eos());
  EXPECT_TRUE(receiver->pop().has_value());
  EXPECT_FALSE(receiver->pop().has_value());
}

TEST(ChannelBrokerStream, BatchAndStreamRegistrationsDoNotMix) {
  ChannelBroker broker(TransportKind::kInProcess);
  const LinkKey batch_key{AppId(1), TaskId(0), TaskId(1)};
  const LinkKey stream_key{AppId(1), TaskId(1), TaskId(2)};
  (void)broker.open_receive(batch_key);
  (void)broker.open_stream_receive(stream_key, 2);
  EXPECT_THROW((void)broker.open_stream_send(batch_key, 0.2), StateError);
  EXPECT_THROW((void)broker.open_stream_receive(stream_key, 2), StateError);
}

TEST(ChannelBrokerStream, ClearAppWakesProducerParkedOnFullRing) {
  // Satellite regression: PR 5's clear-generation bump frees feeders
  // blocked in open_send, but a STREAMING producer can be parked deeper
  // -- inside push() on a full ring it already holds.  clear_app must
  // abort the ring so that producer wakes with TransportError instead
  // of sleeping until its consumer (torn down with the app) drains.
  ChannelBroker broker(TransportKind::kInProcess);
  const LinkKey key{AppId(7), TaskId(0), TaskId(1)};
  auto receiver = broker.open_stream_receive(key, 2);
  auto sender = broker.open_stream_send(key);
  sender->push(FramePool::global().copy_of(bytes_of("a")));
  sender->push(FramePool::global().copy_of(bytes_of("b")));  // ring full

  std::atomic<bool> threw{false};
  const auto t0 = std::chrono::steady_clock::now();
  std::jthread producer([&] {
    try {
      sender->push(FramePool::global().copy_of(bytes_of("c")));  // parks
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  broker.clear_app(AppId(7));
  producer.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_TRUE(threw.load());
  EXPECT_LT(elapsed, 5.0) << "parked producer slept through clear_app";
  EXPECT_TRUE(receiver->aborted());
  EXPECT_THROW((void)receiver->pop(), TransportError);
}

TEST(ChannelBrokerStream, ClearAppWakesConsumerParkedOnEmptyRing) {
  ChannelBroker broker(TransportKind::kInProcess);
  const LinkKey key{AppId(8), TaskId(0), TaskId(1)};
  auto receiver = broker.open_stream_receive(key, 2);
  std::atomic<bool> threw{false};
  std::jthread consumer([&] {
    try {
      (void)receiver->pop();  // parks: nothing queued, no EOS
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  broker.clear_app(AppId(8));
  consumer.join();
  EXPECT_TRUE(threw.load());
}

TEST(ChannelBrokerStream, ClearAppAbortsPendingOpenStreamSend) {
  // The clear-generation bump covers streaming rendezvous too: a
  // producer waiting for a consumer that will never register aborts
  // promptly.
  ChannelBroker broker(TransportKind::kInProcess);
  std::atomic<bool> threw{false};
  std::jthread feeder([&] {
    try {
      (void)broker.open_stream_send(LinkKey{AppId(9), TaskId(0), TaskId(1)},
                                    /*timeout_s=*/30.0);
    } catch (const TransportError&) {
      threw.store(true);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  broker.clear_app(AppId(9));
  feeder.join();
  EXPECT_TRUE(threw.load());
}

// --------------------------------------------------------------- mplib

class MpLibSweep : public ::testing::TestWithParam<MpLibrary> {};

TEST_P(MpLibSweep, TaggedRoundTrip) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(GetParam(), pair.sender);
  MessageEndpoint rx(GetParam(), pair.receiver);
  tx.send(42, bytes_of("tagged message"));
  const auto msg = rx.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 42);
  EXPECT_EQ(string_of(msg->data), "tagged message");
}

TEST_P(MpLibSweep, EofPropagates) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(GetParam(), pair.sender);
  MessageEndpoint rx(GetParam(), pair.receiver);
  tx.close();
  EXPECT_EQ(rx.receive(), std::nullopt);
}

TEST_P(MpLibSweep, LargePayloadRoundTrip) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(GetParam(), pair.sender);
  MessageEndpoint rx(GetParam(), pair.receiver);
  common::Rng rng(2);
  std::vector<std::byte> big(100000);
  for (auto& b : big) b = static_cast<std::byte>(rng() & 0xFF);
  tx.send(7, big);
  const auto msg = rx.receive();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->data, big);
}

INSTANTIATE_TEST_SUITE_P(Libraries, MpLibSweep,
                         ::testing::Values(MpLibrary::kP4, MpLibrary::kPvm,
                                           MpLibrary::kMpi, MpLibrary::kNcs));

TEST(MpLib, LibraryMismatchDetected) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(MpLibrary::kP4, pair.sender);
  MessageEndpoint rx(MpLibrary::kMpi, pair.receiver);
  tx.send(1, bytes_of("x"));
  EXPECT_THROW((void)rx.receive(), TransportError);
}

TEST(MpLib, MpiCommunicatorChecked) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(MpLibrary::kMpi, pair.sender, /*communicator=*/1);
  MessageEndpoint rx(MpLibrary::kMpi, pair.receiver, /*communicator=*/2);
  tx.send(1, bytes_of("x"));
  EXPECT_THROW((void)rx.receive(), TransportError);
}

TEST(MpLib, PvmFragmentsLargeMessages) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(MpLibrary::kPvm, pair.sender);
  std::vector<std::byte> data(MessageEndpoint::kPvmFragment * 2 + 100);
  tx.send(1, data);
  tx.close();
  // On the raw channel: one header frame + three fragment frames.
  int frames = 0;
  while (pair.receiver->receive()) ++frames;
  EXPECT_EQ(frames, 4);
}

TEST(MpLib, PvmMissingFragmentDetected) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(MpLibrary::kPvm, pair.sender);
  MessageEndpoint rx(MpLibrary::kPvm, pair.receiver);
  std::vector<std::byte> data(MessageEndpoint::kPvmFragment + 10);
  tx.send(1, data);
  // Swallow the last fragment: read the header + first fragment through
  // a raw side-channel is not possible here, so instead close the
  // channel mid-message by sending a fresh header claiming fragments
  // that never arrive.
  auto pair2 = make_inproc_pair();
  MessageEndpoint tx2(MpLibrary::kPvm, pair2.sender);
  MessageEndpoint rx2(MpLibrary::kPvm, pair2.receiver);
  tx2.send(1, data);
  // Receive normally works:
  EXPECT_EQ(rx2.receive()->data.size(), data.size());
  // Truncated: header only, then close.
  common::WireWriter header;
  header.write_u8(static_cast<std::uint8_t>(MpLibrary::kPvm));
  header.write_u32(1);
  header.write_u32(3);  // claims 3 fragments
  header.write_u64(100);
  pair2.sender->send(header.bytes());
  pair2.sender->close();
  EXPECT_THROW((void)rx2.receive(), TransportError);
}

TEST(MpLib, NcsSequenceViolationDetected) {
  auto tx_pair = make_inproc_pair();
  MessageEndpoint tx(MpLibrary::kNcs, tx_pair.sender);
  MessageEndpoint rx(MpLibrary::kNcs, tx_pair.receiver);
  tx.send(1, bytes_of("a"));
  // Drop one message by consuming it at the raw level... instead send
  // two and read both fine first:
  tx.send(2, bytes_of("b"));
  EXPECT_EQ(rx.receive()->tag, 1);
  EXPECT_EQ(rx.receive()->tag, 2);
  // Now fake an out-of-order frame by constructing a second sender whose
  // sequence numbers restart at 0.
  MessageEndpoint rogue(MpLibrary::kNcs, tx_pair.sender);
  rogue.send(3, bytes_of("c"));  // seq 0, receiver expects 2
  EXPECT_THROW((void)rx.receive(), TransportError);
}

// ------------------------------------------------------------ services

TEST(IoServiceTest, FileRoundTrip) {
  IoService io("/tmp");
  const auto payload = tasklib::Payload::of_vector({1.0, 2.0, 3.0});
  io.write_output("/tmp/vdce_io_test.bin", payload);
  const auto reread = io.read_input("file:/tmp/vdce_io_test.bin");
  EXPECT_EQ(reread.as_vector(), payload.as_vector());
}

TEST(IoServiceTest, UrlResolvesAgainstDocRoot) {
  IoService io("/tmp");
  const auto payload = tasklib::Payload::of_scalar(4.5);
  io.write_output("/tmp/vdce_url_test.bin", payload);
  EXPECT_DOUBLE_EQ(io.read_input("url:vdce_url_test.bin").as_scalar(), 4.5);
}

TEST(IoServiceTest, BadSpecThrows) {
  IoService io;
  EXPECT_THROW((void)io.read_input("ftp:whatever"), common::ParseError);
  EXPECT_THROW((void)io.read_input("file:/tmp/definitely_missing_xyz"),
               common::NotFoundError);
}

TEST(ConsoleServiceTest, SuspendBlocksCheckpoint) {
  ConsoleService console;
  console.suspend();
  EXPECT_TRUE(console.suspended());

  std::atomic<bool> passed{false};
  std::jthread worker([&] {
    console.checkpoint();
    passed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(passed);
  console.resume();
  worker.join();
  EXPECT_TRUE(passed);
}

TEST(ConsoleServiceTest, AbortThrowsInCheckpoint) {
  ConsoleService console;
  console.abort();
  EXPECT_TRUE(console.aborted());
  EXPECT_THROW(console.checkpoint(), StateError);
}

TEST(ConsoleServiceTest, AbortWakesSuspended) {
  ConsoleService console;
  console.suspend();
  std::atomic<bool> threw{false};
  std::jthread worker([&] {
    try {
      console.checkpoint();
    } catch (const StateError&) {
      threw = true;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  console.abort();
  worker.join();
  EXPECT_TRUE(threw);
}

// -------------------------------------------------------- data manager

class DataManagerKinds : public ::testing::TestWithParam<TransportKind> {};

TEST_P(DataManagerKinds, TwoTaskPipeline) {
  ChannelBroker broker(GetParam());
  const auto& registry = tasklib::builtin_registry();

  // synth_source -> synth_sink, each on its own "machine" thread.
  TaskWiring source_wiring{AppId(1), TaskId(0), {}, {TaskId(1)}};
  TaskWiring sink_wiring{AppId(1), TaskId(1), {TaskId(0)}, {}};

  tasklib::Payload sink_out;
  std::string error;
  std::jthread sink_machine([&] {
    try {
      DataManager dm(broker);
      dm.setup(sink_wiring);
      common::Rng rng(2);
      tasklib::TaskContext ctx{1.0, &rng};
      sink_out = dm.run(registry, "synth_sink", ctx);
      dm.teardown();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  std::jthread source_machine([&] {
    try {
      DataManager dm(broker);
      dm.setup(source_wiring);
      common::Rng rng(1);
      tasklib::TaskContext ctx{1.0, &rng};
      (void)dm.run(registry, "synth_source", ctx);
      dm.teardown();
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  sink_machine.join();
  source_machine.join();
  ASSERT_TRUE(error.empty()) << error;
  // 1024 doubles + payload framing -> sink counted the bytes.
  EXPECT_GT(sink_out.as_scalar(), 8000.0);
}

TEST_P(DataManagerKinds, RecvTimeoutFailsInsteadOfHanging) {
  // A dead peer (registered link, sender never connects) must fail the
  // receive within the armed timeout, not hang the machine thread.
  ChannelBroker broker(GetParam());
  DataManager dm(broker);
  dm.set_recv_timeout(0.1);
  dm.setup(TaskWiring{AppId(1), TaskId(1), {TaskId(0)}, {}});
  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  EXPECT_THROW((void)dm.run(tasklib::builtin_registry(), "synth_sink", ctx),
               TransportError);
  dm.teardown();
}

INSTANTIATE_TEST_SUITE_P(Transports, DataManagerKinds,
                         ::testing::Values(TransportKind::kInProcess,
                                           TransportKind::kTcp));

TEST(DataManagerTest, RunBeforeSetupThrows) {
  ChannelBroker broker(TransportKind::kInProcess);
  DataManager dm(broker);
  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  EXPECT_THROW((void)dm.run(tasklib::builtin_registry(), "synth_source", ctx),
               StateError);
}

TEST(DataManagerTest, DoubleSetupThrows) {
  ChannelBroker broker(TransportKind::kInProcess);
  DataManager dm(broker);
  dm.setup(TaskWiring{AppId(1), TaskId(0), {}, {}});
  EXPECT_THROW(dm.setup(TaskWiring{AppId(1), TaskId(0), {}, {}}), StateError);
}

TEST(DataManagerTest, StatsAccumulate) {
  ChannelBroker broker(TransportKind::kInProcess);
  DataManager dm(broker);
  dm.setup(TaskWiring{AppId(1), TaskId(0), {}, {}});
  common::Rng rng(1);
  tasklib::TaskContext ctx{1.0, &rng};
  (void)dm.run(tasklib::builtin_registry(), "synth_source", ctx);
  EXPECT_EQ(dm.stats().messages_received, 0u);
  EXPECT_EQ(dm.stats().messages_sent, 0u);
}

TEST(DataManagerTest, InputChannelClosedIsError) {
  ChannelBroker broker(TransportKind::kInProcess);
  const auto& registry = tasklib::builtin_registry();
  TaskWiring wiring{AppId(1), TaskId(1), {TaskId(0)}, {}};

  std::string error;
  std::jthread consumer([&] {
    try {
      DataManager dm(broker);
      dm.setup(wiring);
      common::Rng rng(1);
      tasklib::TaskContext ctx{1.0, &rng};
      (void)dm.run(registry, "synth_sink", ctx);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  // The producer connects but closes without sending.
  auto sender =
      broker.open_send(LinkKey{AppId(1), TaskId(0), TaskId(1)}, 5.0);
  sender->close();
  consumer.join();
  EXPECT_NE(error.find("closed"), std::string::npos) << error;
}

// ----------------------------------------------------- frame pool (D13)

TEST(FramePool, SizeClassesRoundUpToPowersOfTwo) {
  FramePool pool;
  EXPECT_EQ(pool.allocate(1).capacity(), 256u);
  EXPECT_EQ(pool.allocate(256).capacity(), 256u);
  EXPECT_EQ(pool.allocate(257).capacity(), 512u);
  EXPECT_EQ(pool.allocate(5000).capacity(), 8192u);

  Frame f = pool.allocate(300);
  EXPECT_EQ(f.size(), 300u);
  f.resize(100);
  EXPECT_EQ(f.size(), 100u);
  f.resize(512);  // re-grow within capacity is fine
  EXPECT_EQ(f.size(), 512u);
  EXPECT_THROW(f.resize(513), StateError);
}

TEST(FramePool, ReusesRecycledSlabs) {
  FramePool pool;
  { Frame f = pool.allocate(1000); }  // heap miss, recycled on drop
  const auto s1 = pool.stats();
  EXPECT_EQ(s1.reuse_misses, 1u);
  EXPECT_EQ(s1.slabs_allocated, 1u);
  EXPECT_EQ(s1.free_slabs, 1u);

  { Frame f = pool.allocate(900); }  // same 1024-byte class: a hit
  const auto s2 = pool.stats();
  EXPECT_EQ(s2.reuse_hits, 1u);
  EXPECT_EQ(s2.slabs_allocated, 1u);

  pool.trim();
  EXPECT_EQ(pool.stats().free_slabs, 0u);
}

TEST(FramePool, ViewPinsSlabAcrossChurn) {
  FramePool pool;
  Frame f = pool.allocate(512);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<std::byte>(i & 0xFF);
  }
  const std::vector<std::byte> expected = f.view().to_vector();
  FrameView pinned = f.view();
  f.reset();  // the view alone now keeps the slab out of the free list

  for (int i = 0; i < 64; ++i) {
    Frame churn = pool.allocate(512);
    std::fill_n(churn.data(), churn.size(), std::byte{0xEE});
  }
  EXPECT_EQ(pinned.to_vector(), expected);

  const auto before = pool.stats();
  pinned.reset();  // last reference: only now does the slab park
  EXPECT_EQ(pool.stats().free_slabs, before.free_slabs + 1);
}

TEST(FramePool, SubviewSharesTheSlab) {
  FramePool pool;
  Frame f = pool.allocate(64);
  for (std::size_t i = 0; i < f.size(); ++i) {
    f.data()[i] = static_cast<std::byte>(i);
  }
  const FrameView whole = f.view();
  const FrameView mid = whole.subview(16, 32);
  EXPECT_EQ(mid.size(), 32u);
  EXPECT_EQ(mid.data(), whole.data() + 16);  // zero-copy: same bytes

  const FrameView nested = mid.subview(8, 8);
  EXPECT_EQ(nested.data(), whole.data() + 24);
  EXPECT_THROW((void)whole.subview(60, 8), StateError);
}

TEST(FramePool, HighWaterTracksPeakUse) {
  FramePool pool;
  {
    Frame a = pool.allocate(1024);
    Frame b = pool.allocate(1024);
    EXPECT_EQ(pool.stats().bytes_in_use, 2048u);
  }
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
  EXPECT_EQ(pool.stats().high_water_bytes, 2048u);
}

TEST(FramePool, CopyOfMatchesSource) {
  const auto src = bytes_of("copied into the pool");
  const FrameView v = FramePool::global().copy_of(src);
  EXPECT_EQ(v.to_vector(), src);
}

TEST(FramePool, GlobalPoolExportsMetrics) {
  auto& registry = common::MetricsRegistry::global();
  FramePool::global().trim();  // force the next allocation to the heap
  const auto misses_before =
      registry.counter("datamgr.pool.reuse_misses").value();
  const auto slabs_before =
      registry.counter("datamgr.pool.slabs_allocated").value();
  Frame f = FramePool::global().allocate(1 << 14);
  EXPECT_GT(registry.counter("datamgr.pool.reuse_misses").value(),
            misses_before);
  EXPECT_GT(registry.counter("datamgr.pool.slabs_allocated").value(),
            slabs_before);
}

TEST(FramePool, ConcurrentChurnIsSafe) {
  // TSan target: allocation, view copying, subviews, and release racing
  // across threads on one pool.
  FramePool pool;
  constexpr int kThreads = 8;
  constexpr int kIters = 2000;
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&pool, t] {
        std::vector<FrameView> held;
        for (int i = 0; i < kIters; ++i) {
          Frame f = pool.allocate(
              static_cast<std::size_t>((t * 37 + i) % 5000) + 1);
          f.data()[0] = static_cast<std::byte>(i);
          FrameView v = f.view();
          FrameView copy = v;  // refcount bump
          if (i % 7 == 0) held.push_back(copy.subview(0, f.size() / 2));
          if (held.size() > 16) held.erase(held.begin());
        }
      });
    }
  }
  EXPECT_EQ(pool.stats().bytes_in_use, 0u);
}

TEST(FramePool, CrossThreadChurnBalancesTheBooks) {
  // The global pool's thread caches: one thread takes every slab,
  // another releases it, then both exit.
  FramePool& pool = FramePool::global();
  pool.trim();
  const auto before = pool.stats();
  constexpr std::uint64_t kFrames = 5000;
  RingChannel ring(16);
  {
    std::jthread producer([&] {
      for (std::uint64_t i = 0; i < kFrames; ++i) {
        Frame f = pool.allocate(3000);  // the 4 KiB class
        f.data()[0] = static_cast<std::byte>(i);
        ring.push(f.view());
      }
      ring.close_send();
    });
    std::jthread consumer([&] {
      while (auto view = ring.pop()) view->reset();
    });
  }
  const auto after = pool.stats();
  EXPECT_EQ(after.bytes_in_use, before.bytes_in_use);
  const std::uint64_t served = (after.reuse_hits - before.reuse_hits) +
                               (after.reuse_misses - before.reuse_misses);
  EXPECT_EQ(served, kFrames);
  // Both caches drained into the one shared list, which keeps its cap.
  EXPECT_GE(after.free_slabs, before.free_slabs + 1);
  EXPECT_LE(after.free_slabs, before.free_slabs + FramePool::kMaxFreePerClass);
}

TEST(FramePool, ThreadExitDrainsItsCache) {
  FramePool& pool = FramePool::global();
  pool.trim();
  const auto before = pool.stats();
  std::thread([&pool] {
    for (int i = 0; i < 1000; ++i) {
      Frame f = pool.allocate(100);
      f.data()[0] = std::byte{1};
    }
  }).join();
  const auto drained = pool.stats();
  EXPECT_EQ(drained.free_slabs, before.free_slabs + 1);
  EXPECT_EQ(drained.bytes_in_use, before.bytes_in_use);
  EXPECT_EQ(drained.reuse_hits - before.reuse_hits, 999u);
  EXPECT_GE(drained.high_water_bytes, 256u);

  // The exited thread's slab is on the shared list, where this thread's
  // next allocation of the class finds it.
  { Frame f = pool.allocate(100); }
  EXPECT_EQ(pool.stats().reuse_misses, drained.reuse_misses);
  pool.trim();
}

// --------------------------------------------- zero-copy channel paths

TEST(InProcChannel, FrameDeliveryIsZeroCopy) {
  auto pair = make_inproc_pair();
  const FrameView sent = FramePool::global().copy_of(bytes_of("no copies"));
  pair.sender->send_frame(sent);
  const auto got = pair.receiver->receive_frame();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->data(), sent.data());  // the very same slab bytes
  EXPECT_EQ(got->to_vector(), sent.to_vector());
}

TEST(TcpChannel, FrameLimitExactBoundary) {
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  server_end->set_max_message_bytes(64);
  client_end->send(std::vector<std::byte>(64));  // exactly at the limit
  EXPECT_EQ(server_end->receive()->size(), 64u);
  client_end->send(std::vector<std::byte>(65));  // one over
  EXPECT_THROW((void)server_end->receive(), TransportError);
}

TEST(TcpChannel, HugeFrameRoundTripThroughPool) {
  // > 64 MiB through the pooled scatter/gather send and the event-loop
  // receive (exercising backpressure pause/rearm on the way).
  constexpr std::size_t kBytes = (std::size_t{64} << 20) + 4097;
  TcpListener listener;
  std::unique_ptr<TcpChannel> server_end;
  std::jthread acceptor([&] { server_end = listener.accept(); });
  auto client_end = tcp_connect(listener.port());
  acceptor.join();

  Frame big = FramePool::global().allocate(kBytes);
  std::fill_n(big.data(), big.size(), std::byte{0});
  for (std::size_t i = 0; i < kBytes; i += 4093) {
    big.data()[i] = static_cast<std::byte>((i * 2654435761u) >> 13);
  }
  const FrameView sent = big.view();

  std::jthread sender([&] { client_end->send_frame(sent); });
  const auto got = server_end->receive_frame();
  sender.join();
  ASSERT_TRUE(got.has_value());
  ASSERT_EQ(got->size(), kBytes);
  EXPECT_TRUE(std::equal(got->begin(), got->end(), sent.begin()));
  FramePool::global().trim();  // don't keep two 128 MiB slabs parked
}

TEST(TcpChannel, EventLoopKeepsThreadCountFlat) {
  const auto thread_count = [] {
    std::size_t n = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task")) {
      ++n;
    }
    return n;
  };

  TcpListener listener;
  std::vector<std::unique_ptr<TcpChannel>> ends;
  const auto connect_pair = [&] {
    std::unique_ptr<TcpChannel> server_end;
    std::jthread acceptor([&] { server_end = listener.accept(); });
    auto client_end = tcp_connect(listener.port());
    acceptor.join();
    ends.push_back(std::move(server_end));
    ends.push_back(std::move(client_end));
  };

  connect_pair();  // forces the event loop (and its one thread) up
  const std::size_t baseline_threads = thread_count();
  const std::size_t baseline_channels =
      TcpEventLoop::global().channel_count();

  for (int i = 0; i < 16; ++i) connect_pair();

  // 32 more registered connections, zero more threads.
  EXPECT_EQ(TcpEventLoop::global().channel_count(),
            baseline_channels + 32);
  EXPECT_LE(thread_count(), baseline_threads);

  // And they all still move bytes through the one loop.
  ends[1]->send(bytes_of("ping"));
  EXPECT_EQ(string_of(*ends[0]->receive()), "ping");
  ends[33]->send(bytes_of("pong"));
  EXPECT_EQ(string_of(*ends[32]->receive()), "pong");
}

TEST_P(MpLibSweep, FrameRoundTrip) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(GetParam(), pair.sender);
  MessageEndpoint rx(GetParam(), pair.receiver);
  const auto payload = bytes_of("zero copy tagged");
  tx.send_frame(9, FramePool::global().copy_of(payload));
  const auto msg = rx.receive_frame();
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->tag, 9);
  EXPECT_EQ(msg->data.to_vector(), payload);
}

TEST(MpLib, PreparedFrameFansOutToAllConsumers) {
  // The engine's fan-out: one prepare() + serialize, N send_prepared()
  // calls shipping the SAME slab to every consumer link.
  auto a = make_inproc_pair();
  auto b = make_inproc_pair();
  MessageEndpoint tx_a(MpLibrary::kNcs, a.sender);
  MessageEndpoint tx_b(MpLibrary::kNcs, b.sender);
  MessageEndpoint rx_a(MpLibrary::kNcs, a.receiver);
  MessageEndpoint rx_b(MpLibrary::kNcs, b.receiver);

  const auto body = bytes_of("fan-out body");
  PreparedFrame prep = tx_a.prepare(5, body.size());
  ASSERT_EQ(prep.body().size(), body.size());
  std::memcpy(prep.body().data(), body.data(), body.size());
  const FrameView full = prep.frame.view();
  tx_a.send_prepared(full);
  tx_b.send_prepared(full);

  for (auto* rx : {&rx_a, &rx_b}) {
    const auto msg = rx->receive_frame();
    ASSERT_TRUE(msg.has_value());
    EXPECT_EQ(msg->tag, 5);
    EXPECT_EQ(msg->data.to_vector(), body);
    // Zero-copy end to end: the delivered body aliases the prepared slab.
    EXPECT_EQ(msg->data.data(), full.data() + prep.body_offset);
  }

  // Both NCS endpoints advanced their sequence numbers in lockstep, so
  // a follow-up message still passes the receiver's sequence check.
  tx_a.send(6, body);
  EXPECT_EQ(rx_a.receive()->tag, 6);
}

TEST(MpLib, PvmHasNoSingleEnvelope) {
  auto pair = make_inproc_pair();
  MessageEndpoint tx(MpLibrary::kPvm, pair.sender);
  EXPECT_THROW((void)tx.prepare(1, 16), StateError);
}

}  // namespace
}  // namespace vdce::dm
