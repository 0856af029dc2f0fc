// The benchmark's arithmetic: percentiles, the tail rule, same-thread
// self time, span overlap, counter normalisation and quiet time.  Pure
// functions, covered by tests/selftest.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace perfbench {

/// Nearest-rank position (1-based) of percentile `p` (0 < p <= 100)
/// among `n` samples: ceil(p * n / 100), at least 1.
[[nodiscard]] std::size_t nearest_rank(std::size_t n, double p);

/// Nearest-rank percentile: the smallest sample such that at least p%
/// of the samples are at or below it.  0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double p);

/// Samples strictly beyond the nearest-rank position of `p`.
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double p);

/// The smallest sample count at which percentile `p` has `min_beyond`
/// samples beyond it (the tail rule: report the highest percentile with
/// at least 10 samples beyond it).
[[nodiscard]] std::size_t min_samples_for(double p,
                                          std::size_t min_beyond = 10);

/// A closed time interval of one span, seconds or nanoseconds alike.
struct Interval {
  double start = 0.0;
  double end = 0.0;
};

/// Self time of each span recorded on ONE thread: its duration minus
/// the durations of its direct children (spans nested inside it on the
/// same thread).  Result order matches the input order.
[[nodiscard]] std::vector<double> self_times(std::span<const Interval> spans);

/// Share of the summed span time during which at least one OTHER span
/// of the set is outstanding (0 for fewer than two spans).
[[nodiscard]] double overlap_fraction(std::span<const Interval> spans);

/// Counter delta per operation: (after - before) / ops, 0 when ops == 0.
[[nodiscard]] double per_op(double before, double after, std::uint64_t ops);

/// Ratio that reads 0 instead of dividing by zero.
[[nodiscard]] double ratio(double num, double den);

/// Median of a set of measurements (nearest-rank p50).
[[nodiscard]] double median(std::vector<double> samples);

/// Two cumulative tick counters read at steady-clock time `t` (seconds):
/// `part` of the `whole` ticks, e.g. the CPU time the hypervisor stole
/// of all CPU time.
struct TickReading {
  double t = 0.0;
  std::uint64_t whole = 0;
  std::uint64_t part = 0;
};

/// Share of the ticks between two readings that were `part` (0 when no
/// tick elapsed or a counter went back).
[[nodiscard]] double tick_share(const TickReading& before,
                                const TickReading& after);

/// Seconds of [t0, t1] in quiet slices.  The readings inside [t0, t1]
/// (in time order) are cut into slices, each from one reading to the
/// first one at least `slice_s` later, and a slice is quiet when its
/// tick_share is under `max_share`.  Time after the last whole slice
/// counts for nothing.
[[nodiscard]] double quiet_seconds(std::span<const TickReading> readings,
                                   double t0, double t1, double slice_s,
                                   double max_share);

}  // namespace perfbench
