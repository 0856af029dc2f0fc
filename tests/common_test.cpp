// Unit tests for vdce_common: ids, clocks, rng, serialization,
// statistics, queues, string helpers.
#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <set>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "common/error.hpp"
#include "common/ids.hpp"
#include "common/queue.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"

namespace vdce::common {
namespace {

// ---------------------------------------------------------------- ids

TEST(Ids, DistinctTypesAreDistinct) {
  static_assert(!std::is_same_v<HostId, SiteId>);
  static_assert(!std::is_same_v<TaskId, AppId>);
}

TEST(Ids, DefaultIsInvalid) {
  HostId id;
  EXPECT_FALSE(id.valid());
  EXPECT_EQ(id, HostId::invalid());
}

TEST(Ids, ValueRoundTrip) {
  HostId id(42);
  EXPECT_TRUE(id.valid());
  EXPECT_EQ(id.value(), 42u);
}

TEST(Ids, Ordering) {
  EXPECT_LT(TaskId(1), TaskId(2));
  EXPECT_EQ(TaskId(7), TaskId(7));
  EXPECT_NE(TaskId(7), TaskId(8));
}

TEST(Ids, Hashable) {
  std::set<HostId> s{HostId(1), HostId(2)};
  EXPECT_EQ(s.size(), 2u);
  std::unordered_map<TaskId, int> m;
  m[TaskId(3)] = 9;
  EXPECT_EQ(m.at(TaskId(3)), 9);
}

// ---------------------------------------------------------------- clock

TEST(SteadyClockTest, Monotone) {
  SteadyClock clock;
  const TimePoint a = clock.now();
  const TimePoint b = clock.now();
  EXPECT_GE(b, a);
  EXPECT_GE(a, 0.0);
}

TEST(SteadyClockTest, ReadsTheHostWideSteadyTimeline) {
  // The epoch is the host's CLOCK_MONOTONIC, not the object's
  // construction: another process reading steady_clock agrees.
  const double host = std::chrono::duration<double>(
                          std::chrono::steady_clock::now().time_since_epoch())
                          .count();
  EXPECT_NEAR(SteadyClock().now(), host, 1e-3);
  EXPECT_NEAR(steady_clock().now(), host, 1e-3);
}

TEST(VirtualClockTest, StartsAtGivenTime) {
  VirtualClock clock(5.0);
  EXPECT_DOUBLE_EQ(clock.now(), 5.0);
}

TEST(VirtualClockTest, Advance) {
  VirtualClock clock;
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 2.5);
  clock.advance_to(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
}

TEST(VirtualClockTest, SleepForAdvancesWithoutBlocking) {
  VirtualClock clock;
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> sleepers;
  for (int i = 0; i < 8; ++i) {
    sleepers.emplace_back([&clock] { clock.sleep_for(0.5); });
  }
  for (std::thread& t : sleepers) t.join();
  const double wall = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  EXPECT_DOUBLE_EQ(clock.now(), 4.0);  // concurrent sleepers add up
  EXPECT_LT(wall, 0.5);
}

TEST(VirtualClockTest, RejectsBackwardMotion) {
  VirtualClock clock(5.0);
  EXPECT_THROW(clock.advance(-1.0), StateError);
  EXPECT_THROW(clock.advance_to(4.0), StateError);
}

// ---------------------------------------------------------------- rng

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(3.0, 5.0);
    EXPECT_GE(u, 3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(9);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all residues reached
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  constexpr int kN = 20000;
  for (int i = 0; i < kN; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kN, 0.5, 0.02);
}

TEST(RngTest, NormalMoments) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.normal());
  EXPECT_NEAR(stats.mean(), 0.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(RngTest, ExponentialMean) {
  Rng rng(17);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.add(rng.exponential(2.0));
  EXPECT_NEAR(stats.mean(), 0.5, 0.03);
}

TEST(RngTest, BernoulliProbability) {
  Rng rng(19);
  int hits = 0;
  constexpr int kN = 10000;
  for (int i = 0; i < kN; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.03);
}

TEST(RngTest, ReseedResets) {
  Rng rng(23);
  const auto first = rng();
  rng.reseed(23);
  EXPECT_EQ(rng(), first);
}

// ---------------------------------------------------------------- wire

TEST(WireTest, ScalarRoundTrip) {
  WireWriter w;
  w.write_u8(0xAB);
  w.write_u16(0x1234);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_i64(-42);
  w.write_f64(3.14159);

  WireReader r(w.bytes());
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u16(), 0x1234);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.read_i64(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(WireTest, BigEndianOnTheWire) {
  WireWriter w;
  w.write_u32(0x01020304);
  const auto& b = w.bytes();
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(static_cast<int>(b[0]), 1);
  EXPECT_EQ(static_cast<int>(b[1]), 2);
  EXPECT_EQ(static_cast<int>(b[2]), 3);
  EXPECT_EQ(static_cast<int>(b[3]), 4);
}

TEST(WireTest, StringRoundTrip) {
  WireWriter w;
  w.write_string("hello vdce");
  w.write_string("");
  WireReader r(w.bytes());
  EXPECT_EQ(r.read_string(), "hello vdce");
  EXPECT_EQ(r.read_string(), "");
}

TEST(WireTest, VectorRoundTrip) {
  WireWriter w;
  w.write_f64_vector(std::vector<double>{1.5, -2.5, 0.0});
  WireReader r(w.bytes());
  const auto v = r.read_f64_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  EXPECT_DOUBLE_EQ(v[1], -2.5);
  EXPECT_DOUBLE_EQ(v[2], 0.0);
}

TEST(WireTest, SpecialFloats) {
  WireWriter w;
  w.write_f64(std::numeric_limits<double>::infinity());
  w.write_f64(-0.0);
  WireReader r(w.bytes());
  EXPECT_TRUE(std::isinf(r.read_f64()));
  EXPECT_EQ(std::signbit(r.read_f64()), true);
}

TEST(WireTest, TruncatedInputThrows) {
  WireWriter w;
  w.write_u32(7);
  WireReader r(w.bytes());
  EXPECT_EQ(r.read_u16(), 0u);
  EXPECT_THROW((void)r.read_u32(), ParseError);
}

TEST(WireTest, TruncatedStringThrows) {
  WireWriter w;
  w.write_u32(100);  // claims 100 bytes, provides none
  WireReader r(w.bytes());
  EXPECT_THROW((void)r.read_string(), ParseError);
}

TEST(WireTest, BytesRoundTrip) {
  WireWriter w;
  std::vector<std::byte> data{std::byte{1}, std::byte{2}, std::byte{3}};
  w.write_bytes(data);
  WireReader r(w.bytes());
  EXPECT_EQ(r.read_bytes(), data);
}

TEST(WireTest, F64RunMatchesOneAtATime) {
  const std::vector<double> v{1.0, -0.0, 3.25e-300, -7.5e300,
                              std::numeric_limits<double>::infinity()};
  WireWriter bulk, single;
  bulk.write_f64s(v);
  for (const double x : v) single.write_f64(x);
  EXPECT_EQ(bulk.bytes(), single.bytes());
  std::vector<double> back(v.size());
  WireReader r(bulk.bytes());
  r.read_f64s(back);
  EXPECT_TRUE(r.done());
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(back[i]),
              std::bit_cast<std::uint64_t>(v[i]));
  }
}

TEST(WireTest, CountIsBoundedByTheBytesLeft) {
  WireWriter w;
  w.write_u32(3);
  w.write_u32(0);
  w.write_u32(0);
  w.write_u32(0);
  {
    WireReader r(w.bytes());
    EXPECT_EQ(r.read_count(4), 3u);  // exactly 12 bytes follow
  }
  {
    WireReader r(w.bytes());
    EXPECT_THROW((void)r.read_count(5), ParseError);
  }
  // A garbage count must fail before anything is sized from it.
  WireWriter huge;
  huge.write_u32(0xFFFFFFFFu);
  {
    WireReader r(huge.bytes());
    EXPECT_THROW((void)r.read_count(1), ParseError);
  }
  {
    WireReader r(huge.bytes());
    EXPECT_THROW((void)r.read_f64_vector(), ParseError);
  }
  // Zero-byte elements carry no bound.
  WireReader r(huge.bytes());
  EXPECT_EQ(r.read_count(0), 0xFFFFFFFFu);
}

// ---------------------------------------------------------------- stats

TEST(RunningStatsTest, Empty) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(RunningStatsTest, KnownValues) {
  RunningStats s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(SlidingWindowTest, EvictsOldest) {
  SlidingWindowStats w(3);
  w.add(1.0);
  w.add(2.0);
  w.add(3.0);
  w.add(10.0);  // evicts 1.0
  EXPECT_EQ(w.count(), 3u);
  EXPECT_DOUBLE_EQ(w.mean(), 5.0);
  EXPECT_DOUBLE_EQ(w.last(), 10.0);
}

TEST(SlidingWindowTest, ConfidenceGrowsWithSpread) {
  SlidingWindowStats tight(8), wide(8);
  for (int i = 0; i < 8; ++i) {
    tight.add(5.0 + 0.01 * i);
    wide.add(5.0 + 2.0 * i);
  }
  EXPECT_LT(tight.confidence_halfwidth(), wide.confidence_halfwidth());
}

TEST(SlidingWindowTest, SingleSampleHasZeroCi) {
  SlidingWindowStats w(4);
  w.add(3.0);
  EXPECT_DOUBLE_EQ(w.confidence_halfwidth(), 0.0);
}

TEST(SlidingWindowTest, RejectsZeroCapacity) {
  EXPECT_THROW(SlidingWindowStats w(0), StateError);
}

TEST(ForecastTest, LastSample) {
  SlidingWindowStats w(4);
  w.add(1.0);
  w.add(9.0);
  EXPECT_DOUBLE_EQ(forecast(w, ForecastMethod::kLastSample), 9.0);
}

TEST(ForecastTest, WindowMean) {
  SlidingWindowStats w(4);
  w.add(1.0);
  w.add(9.0);
  EXPECT_DOUBLE_EQ(forecast(w, ForecastMethod::kWindowMean), 5.0);
}

TEST(ForecastTest, ExponentialSmoothing) {
  SlidingWindowStats w(4);
  w.add(0.0);
  w.add(10.0);
  // s = 0.5*10 + 0.5*0 = 5
  EXPECT_DOUBLE_EQ(
      forecast(w, ForecastMethod::kExponentialSmoothing, 0.5), 5.0);
}

TEST(ForecastTest, EmptyWindowIsZero) {
  SlidingWindowStats w(4);
  EXPECT_DOUBLE_EQ(forecast(w, ForecastMethod::kWindowMean), 0.0);
}

TEST(PercentileTest, NearestRank) {
  std::vector<double> v{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  EXPECT_DOUBLE_EQ(percentile(v, 50), 5.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 10), 1.0);
}

TEST(PercentileTest, RejectsEmpty) {
  EXPECT_THROW((void)percentile({}, 50), StateError);
}

TEST(PercentileTest, RejectsOutOfRangeAndNanPct) {
  const std::vector<double> v{1, 2, 3};
  EXPECT_THROW((void)percentile(v, -1.0), StateError);
  EXPECT_THROW((void)percentile(v, 100.5), StateError);
  EXPECT_THROW((void)percentile(v, std::nan("")), StateError);
}

TEST(PercentileTest, SingleSampleIsEveryPercentile) {
  const std::vector<double> v{7.5};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 7.5);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 7.5);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 7.5);
}

TEST(RunningStatsTest, VarianceGuardsSmallN) {
  // n < 2 has no sample variance (the n-1 denominator): both must be
  // exactly 0, never NaN or a division artefact.
  RunningStats s;
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStatsTest, VarianceNeverNegativeUnderRoundoff) {
  // Regression: Welford's m2 can drift fractionally below zero for
  // near-identical large-magnitude samples; an unguarded variance would
  // then make stddev() NaN.
  RunningStats s;
  for (int i = 0; i < 1000; ++i) {
    s.add(1e15 + static_cast<double>(i % 2));
  }
  EXPECT_GE(s.variance(), 0.0);
  EXPECT_FALSE(std::isnan(s.stddev()));

  RunningStats identical;
  for (int i = 0; i < 100; ++i) identical.add(0.1 + 0.2);
  EXPECT_GE(identical.variance(), 0.0);
  EXPECT_FALSE(std::isnan(identical.stddev()));
}

TEST(SlidingWindowTest, VarianceGuardsSmallNAndRoundoff) {
  SlidingWindowStats w(8);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  w.add(5.0);
  EXPECT_DOUBLE_EQ(w.variance(), 0.0);  // single sample: no n-1 division
  EXPECT_DOUBLE_EQ(w.stddev(), 0.0);
  for (int i = 0; i < 8; ++i) w.add(1e15 + 0.5);
  EXPECT_GE(w.variance(), 0.0);
  EXPECT_FALSE(std::isnan(w.stddev()));
}

// ---------------------------------------------------------------- queue

TEST(QueueTest, FifoOrder) {
  MessageQueue<int> q;
  q.push(1);
  q.push(2);
  q.push(3);
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  EXPECT_EQ(q.pop(), 3);
}

TEST(QueueTest, CloseDrainsThenNullopt) {
  MessageQueue<int> q;
  q.push(1);
  q.close();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), std::nullopt);
}

TEST(QueueTest, PushAfterCloseRejected) {
  MessageQueue<int> q;
  q.close();
  EXPECT_FALSE(q.push(1));
  EXPECT_EQ(q.size(), 0u);
}

TEST(QueueTest, TryPopNonBlocking) {
  MessageQueue<int> q;
  EXPECT_EQ(q.try_pop(), std::nullopt);
  q.push(5);
  EXPECT_EQ(q.try_pop(), 5);
}

TEST(QueueTest, PopForTimesOut) {
  MessageQueue<int> q;
  const auto result = q.pop_for(std::chrono::milliseconds(10));
  EXPECT_EQ(result, std::nullopt);
}

TEST(QueueTest, CrossThreadDelivery) {
  MessageQueue<int> q;
  std::jthread producer([&q] {
    for (int i = 0; i < 100; ++i) q.push(i);
    q.close();
  });
  int count = 0;
  while (auto v = q.pop()) {
    EXPECT_EQ(*v, count);
    ++count;
  }
  EXPECT_EQ(count, 100);
}

TEST(QueueTest, CloseWakesBlockedConsumer) {
  MessageQueue<int> q;
  std::jthread closer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.close();
  });
  EXPECT_EQ(q.pop(), std::nullopt);  // returns instead of hanging
}

// ---------------------------------------------------------------- strings

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t x \n"), "x");
}

TEST(StringsTest, SplitKeepsEmptyFields) {
  const auto f = split("a,,b", ',');
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[1], "");
  EXPECT_EQ(f[2], "b");
}

TEST(StringsTest, SplitWsDropsEmpty) {
  const auto f = split_ws("  a  b\tc \n");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(starts_with("file:abc", "file:"));
  EXPECT_FALSE(starts_with("fil", "file:"));
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parse_double("3.5", "test"), 3.5);
  EXPECT_DOUBLE_EQ(parse_double(" -2 ", "test"), -2.0);
  EXPECT_THROW((void)parse_double("abc", "test"), ParseError);
  EXPECT_THROW((void)parse_double("1.5x", "test"), ParseError);
  EXPECT_THROW((void)parse_double("", "test"), ParseError);
}

TEST(StringsTest, ParseUint) {
  EXPECT_EQ(parse_uint("42", "test"), 42ul);
  EXPECT_THROW((void)parse_uint("-1", "test"), ParseError);
  EXPECT_THROW((void)parse_uint("4.2", "test"), ParseError);
}

TEST(StringsTest, ParseI32) {
  EXPECT_EQ(parse_i32(" 7 ", "test"), 7);
  EXPECT_EQ(parse_i32("-2147483648", "test"), -2147483647 - 1);
  EXPECT_EQ(parse_i32("2147483647", "test"), 2147483647);
  EXPECT_THROW((void)parse_i32("2147483648", "test"), ParseError);
  EXPECT_THROW((void)parse_i32("1e300", "test"), ParseError);
  EXPECT_THROW((void)parse_i32("nan", "test"), ParseError);
  EXPECT_THROW((void)parse_i32("4.2", "test"), ParseError);
  EXPECT_THROW((void)parse_i32("", "test"), ParseError);
}

TEST(StringsTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"solo"}, ","), "solo");
}

}  // namespace
}  // namespace vdce::common
