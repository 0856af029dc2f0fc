#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

std::size_t nearest_rank(std::size_t n, double p) {
  if (n == 0) return 0;
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const std::size_t rank = nearest_rank(samples.size(), p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::size_t samples_beyond(std::size_t n, double p) {
  return n - nearest_rank(n, p);
}

std::size_t min_samples_for(double p, std::size_t min_beyond) {
  std::size_t n = min_beyond + 1;
  while (samples_beyond(n, p) < min_beyond) ++n;
  return n;
}

std::vector<double> self_times(std::span<const Interval> spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Parents before the children they enclose: earlier start first, and
  // on a tie the longer (enclosing) span first.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].start != spans[b].start) {
      return spans[a].start < spans[b].start;
    }
    return spans[a].end > spans[b].end;
  });
  std::vector<double> self(spans.size());
  std::vector<std::size_t> open;  // enclosing spans, innermost last
  for (const std::size_t i : order) {
    while (!open.empty() && spans[open.back()].end <= spans[i].start) {
      open.pop_back();
    }
    const double duration = spans[i].end - spans[i].start;
    self[i] = duration;
    if (!open.empty() && spans[i].end <= spans[open.back()].end) {
      self[open.back()] -= duration;
    }
    open.push_back(i);
  }
  return self;
}

double overlap_fraction(std::span<const Interval> spans) {
  if (spans.size() < 2) return 0.0;
  // Sweep the boundaries; time with >= 2 spans open is overlapped for
  // every open span, so it is weighted by the open count.
  std::vector<std::pair<double, int>> edges;
  edges.reserve(spans.size() * 2);
  double total = 0.0;
  for (const Interval& s : spans) {
    edges.emplace_back(s.start, +1);
    edges.emplace_back(s.end, -1);
    total += s.end - s.start;
  }
  std::sort(edges.begin(), edges.end());
  double overlapped = 0.0;
  int open = 0;
  double last = edges.front().first;
  for (const auto& [t, delta] : edges) {
    if (open >= 2) overlapped += (t - last) * open;
    open += delta;
    last = t;
  }
  return ratio(overlapped, total);
}

double per_op(double before, double after, std::uint64_t ops) {
  if (ops == 0) return 0.0;
  return (after - before) / static_cast<double>(ops);
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double median(std::vector<double> samples) {
  return percentile(std::move(samples), 50.0);
}

double tick_share(const TickReading& before, const TickReading& after) {
  if (after.whole <= before.whole || after.part < before.part) return 0.0;
  return static_cast<double>(after.part - before.part) /
         static_cast<double>(after.whole - before.whole);
}

double quiet_seconds(std::span<const TickReading> readings, double t0,
                     double t1, double slice_s, double max_share) {
  double quiet = 0.0;
  const TickReading* open = nullptr;  // start of the current slice
  for (const TickReading& r : readings) {
    if (r.t < t0) continue;
    if (r.t > t1) break;
    if (open == nullptr) {
      open = &r;
    } else if (r.t - open->t >= slice_s) {
      if (tick_share(*open, r) < max_share) quiet += r.t - open->t;
      open = &r;
    }
  }
  return quiet;
}

}  // namespace perfbench
