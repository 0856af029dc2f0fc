// Tests of the benchmark's own arithmetic.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "stats.hpp"
#include "tracing.hpp"

namespace perfbench {
namespace {

TEST(Percentile, NearestRankPicksTheSmallestSampleCoveringP) {
  // 1..10: p50 -> rank 5, p90 -> rank 9, p91 -> rank ceil(9.1) = 10.
  std::vector<double> v;
  for (int i = 10; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 50.0), 5.0);
  EXPECT_EQ(percentile(v, 90.0), 9.0);
  EXPECT_EQ(percentile(v, 91.0), 10.0);
  EXPECT_EQ(percentile(v, 100.0), 10.0);
  EXPECT_EQ(percentile(v, 1.0), 1.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
  EXPECT_EQ(percentile({7.0}, 99.0), 7.0);
}

TEST(Percentile, RankIsExactForWholePercentiles) {
  EXPECT_EQ(nearest_rank(1000, 99.0), 990u);
  EXPECT_EQ(nearest_rank(100, 90.0), 90u);
  EXPECT_EQ(nearest_rank(3, 50.0), 2u);
  EXPECT_EQ(nearest_rank(0, 50.0), 0u);
}

TEST(TailRule, TenSamplesBeyondThePercentile) {
  EXPECT_EQ(samples_beyond(1000, 99.0), 10u);
  EXPECT_EQ(samples_beyond(999, 99.0), 9u);  // p99 needs 1000 samples
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(samples_beyond(99, 90.0), 9u);
  EXPECT_EQ(samples_beyond(0, 90.0), 0u);
  EXPECT_EQ(min_samples_for(99.0), 1000u);
  EXPECT_EQ(min_samples_for(90.0), 100u);
  EXPECT_EQ(min_samples_for(50.0), 20u);
}

TEST(SelfTime, SubtractsDirectChildrenOnly) {
  // parent [0,100] > child [10,40] > grandchild [15,25]; child [50,60].
  const std::vector<Interval> spans = {
      {0, 100}, {10, 40}, {15, 25}, {50, 60}};
  const auto self = self_times(spans);
  ASSERT_EQ(self.size(), 4u);
  EXPECT_DOUBLE_EQ(self[0], 100 - 30 - 10);
  EXPECT_DOUBLE_EQ(self[1], 30 - 10);
  EXPECT_DOUBLE_EQ(self[2], 10);
  EXPECT_DOUBLE_EQ(self[3], 10);
}

TEST(SelfTime, SiblingsAndUnorderedInput) {
  // Two top-level spans back to back; the second starts where the
  // first ends and holds one child.  Input order is scrambled.
  const std::vector<Interval> spans = {{12, 14}, {0, 10}, {10, 20}, {2, 3}};
  const auto self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 2);
  EXPECT_DOUBLE_EQ(self[1], 9);
  EXPECT_DOUBLE_EQ(self[2], 8);
  EXPECT_DOUBLE_EQ(self[3], 1);
}

TEST(SelfTime, RecordedSpansNestOnTheirOwnThreadOnly) {
  SpanLog log;
  {
    const ScopedSpan outer(&log, SpanKind::kSubmit, 0, 7);
    {
      const ScopedSpan inner(&log, SpanKind::kHostSelection, 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    // Work on another thread must not be subtracted from `outer`.
    std::thread other([&log] {
      const ScopedSpan task(&log, SpanKind::kTask, 0);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    });
    other.join();
  }
  const auto spans = log.spans();
  ASSERT_EQ(spans.size(), 3u);
  std::vector<Interval> main_thread;
  for (const Span& s : spans) {
    if (s.thread == spans.front().thread) {
      main_thread.push_back(Interval{static_cast<double>(s.start_ns),
                                     static_cast<double>(s.end_ns)});
    }
  }
  ASSERT_EQ(main_thread.size(), 2u);
  EXPECT_EQ(spans[1].request, 7u);  // the child inherits the request
  const auto self = self_times(main_thread);
  const double outer = main_thread[0].end - main_thread[0].start;
  const double inner = main_thread[1].end - main_thread[1].start;
  EXPECT_DOUBLE_EQ(self[0], outer - inner);
  EXPECT_GE(self[0], 2e6);  // still holds the other thread's 2 ms
}

TEST(Overlap, ShareOfSpanTimeWithAnotherSpanOutstanding) {
  EXPECT_EQ(overlap_fraction(std::vector<Interval>{{0, 10}}), 0.0);
  EXPECT_EQ(overlap_fraction(std::vector<Interval>{{0, 10}, {10, 20}}), 0.0);
  // [0,10] and [5,15]: 5 overlapped units in each of 20 span units.
  EXPECT_DOUBLE_EQ(
      overlap_fraction(std::vector<Interval>{{0, 10}, {5, 15}}), 0.5);
  EXPECT_DOUBLE_EQ(
      overlap_fraction(std::vector<Interval>{{0, 10}, {0, 10}}), 1.0);
}

TEST(Normalisation, CounterDeltasPerAppAndPerFrame) {
  EXPECT_DOUBLE_EQ(per_op(100.0, 400.0, 3), 100.0);      // per app
  EXPECT_DOUBLE_EQ(per_op(1.5, 2.5, 20000) * 1e6, 50.0);  // s -> us/frame
  EXPECT_EQ(per_op(1.0, 2.0, 0), 0.0);
  EXPECT_EQ(ratio(1.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(ratio(3.0, 4.0), 0.75);
}

TEST(QuietTime, SlicesUnderTheShareCount) {
  EXPECT_DOUBLE_EQ(tick_share({0.0, 100, 10}, {1.0, 300, 30}), 0.1);
  EXPECT_EQ(tick_share({0.0, 100, 10}, {1.0, 100, 10}), 0.0);
  // Readings every 0.5 s, 100 ticks apart, of which 5, 0, 30, 0, 0, 0
  // were stolen: the 1 s slices from t = 0, 1 and 2 have shares 0.025,
  // 0.15 and 0.
  const std::vector<TickReading> readings{
      {0.0, 0, 0},    {0.5, 100, 5},  {1.0, 200, 5},
      {1.5, 300, 35}, {2.0, 400, 35}, {2.5, 500, 35}, {3.0, 600, 35}};
  EXPECT_DOUBLE_EQ(quiet_seconds(readings, 0.0, 3.0, 1.0, 0.05), 2.0);
  EXPECT_DOUBLE_EQ(quiet_seconds(readings, 0.0, 3.0, 1.0, 0.2), 3.0);
  EXPECT_DOUBLE_EQ(quiet_seconds(readings, 0.0, 2.5, 1.0, 0.05), 1.0);
  // Slices start at the first reading inside [t0, t1].
  EXPECT_DOUBLE_EQ(quiet_seconds(readings, 0.2, 3.0, 1.0, 0.05), 1.0);
  EXPECT_EQ(quiet_seconds(readings, 0.0, 0.9, 1.0, 0.05), 0.0);
}

}  // namespace
}  // namespace perfbench
