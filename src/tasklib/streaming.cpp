#include "tasklib/streaming.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <mutex>
#include <numbers>
#include <tuple>

#include "common/error.hpp"
#include "tasklib/fft.hpp"

namespace vdce::tasklib {

std::vector<double> windowed_sinc_fir(std::size_t taps, double cutoff) {
  if (taps == 0) throw common::StateError("FIR needs at least one tap");
  if (!(cutoff > 0.0) || cutoff > 0.5) {
    throw common::StateError("FIR cutoff must lie in (0, 0.5]");
  }
  std::vector<double> h(taps);
  const double mid = (static_cast<double>(taps) - 1.0) / 2.0;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double x = 2.0 * std::numbers::pi * cutoff * t;
    const double sinc = t == 0.0 ? 2.0 * cutoff
                                 : std::sin(x) / (std::numbers::pi * t);
    const double hamming =
        0.54 - 0.46 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(i) /
                               (static_cast<double>(taps) - 1.0 + 1e-12));
    h[i] = sinc * hamming;
    sum += h[i];
  }
  for (double& v : h) v /= sum;  // unit DC gain
  return h;
}

namespace {

// A process-wide table of immutable vectors, each built once on first
// use of its key.  Entries are never erased, so a returned reference
// stays valid for the life of the process.
template <typename Key>
class VectorTable {
 public:
  template <typename Build>
  const std::vector<double>& get(const Key& key, Build&& build) {
    std::lock_guard lk(mu_);
    auto it = table_.find(key);
    if (it == table_.end()) it = table_.emplace(key, build()).first;
    return it->second;
  }

 private:
  std::mutex mu_;
  std::map<Key, std::vector<double>> table_;
};

// The up-scaled interpolation FIR of rational_resample, per (taps, up,
// down).
const std::vector<double>& resample_fir(std::size_t taps, unsigned up,
                                        unsigned down) {
  static VectorTable<std::tuple<std::size_t, unsigned, unsigned>> table;
  return table.get({taps, up, down}, [&] {
    const double cutoff = 0.5 / static_cast<double>(std::max(up, down));
    std::vector<double> h = windowed_sinc_fir(taps, cutoff);
    // The zero-stuffed signal carries 1/up of the original power per
    // sample; the interpolation filter restores it.
    for (double& v : h) v *= static_cast<double>(up);
    return h;
  });
}

// One output of the polyphase walk.  out[m] = sum_k h[k] * stuffed[m*down
// - k], where stuffed[j] is signal[j/up] when up divides j and 0
// otherwise -- so only the taps k = pos mod up, pos mod up + up, ...
// contribute, in ascending k with src = (pos - k) / up stepping down by
// one.  Taps whose src lies past the signal contribute nothing and are
// skipped; the walk ends at the last tap or at src 0.
struct Lane {
  std::size_t k = 0;      // first contributing tap
  std::size_t src = 0;    // its signal index
  std::size_t terms = 0;  // contributing taps
};

// The lanes of outputs 0, 1, 2, ... in turn.  pos = m * down is carried
// as (pos / up, pos mod up) and stepped by down, so no output costs an
// integer division.
class PolyphaseWalk {
 public:
  PolyphaseWalk(std::size_t n, std::size_t taps, unsigned up, unsigned down)
      : n_(n),
        up_(up),
        src_step_(down / up),
        k_step_(down % up),
        base_terms_(taps / up),
        extra_term_below_(taps % up) {}

  Lane next() {
    Lane l{k_, src_, 0};
    // Phase k has a tap at k, k + up, ... below taps.
    std::size_t by_taps = base_terms_ + (l.k < extra_term_below_ ? 1 : 0);
    if (l.src >= n_) {
      const std::size_t skip = l.src - (n_ - 1);
      l.k += skip * up_;
      l.src = n_ - 1;
      by_taps = by_taps > skip ? by_taps - skip : 0;
    }
    l.terms = std::min(by_taps, l.src + 1);
    k_ += k_step_;
    src_ += src_step_;
    if (k_ >= up_) {
      k_ -= up_;
      ++src_;
    }
    return l;
  }

 private:
  std::size_t n_, up_, src_step_, k_step_, base_terms_, extra_term_below_;
  std::size_t src_ = 0;  // pos / up
  std::size_t k_ = 0;    // pos mod up
};

// Adds lane `l`'s terms from `from` on to `acc`, in ascending k.
double finish(const Lane& l, std::size_t from, double acc, const double* h,
              const double* x, std::size_t up) {
  for (std::size_t i = from; i < l.terms; ++i) {
    acc += h[l.k + i * up] * x[l.src - i];
  }
  return acc;
}

}  // namespace

std::vector<double> rational_resample(const std::vector<double>& signal,
                                      unsigned up, unsigned down,
                                      std::size_t taps) {
  std::vector<double> out;
  rational_resample_into(signal, up, down, taps, out);
  return out;
}

void rational_resample_into(std::span<const double> signal, unsigned up,
                            unsigned down, std::size_t taps,
                            std::vector<double>& out) {
  if (up == 0 || down == 0) {
    throw common::StateError("resample factors must be positive");
  }
  const std::size_t n = signal.size();
  const std::size_t out_len =
      (n * up + down - 1) / down;  // ceil(n * up / down)
  out.resize(out_len);
  if (n == 0) return;
  const double* const h = resample_fir(taps, up, down).data();
  const double* const x = signal.data();

  // Four outputs at a time, each in its own accumulator: every output
  // still sums its own terms from 0.0 in ascending k -- the serial
  // walk's order, so the results are bit-identical to it -- but four
  // independent add chains overlap instead of one running alone.
  PolyphaseWalk walk(n, taps, up, down);
  std::size_t m = 0;
  for (; m + 4 <= out_len; m += 4) {
    const Lane l0 = walk.next();
    const Lane l1 = walk.next();
    const Lane l2 = walk.next();
    const Lane l3 = walk.next();
    const std::size_t shared =
        std::min(std::min(l0.terms, l1.terms), std::min(l2.terms, l3.terms));
    double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
    for (std::size_t i = 0, j = 0; i < shared; ++i, j += up) {
      a0 += h[l0.k + j] * x[l0.src - i];
      a1 += h[l1.k + j] * x[l1.src - i];
      a2 += h[l2.k + j] * x[l2.src - i];
      a3 += h[l3.k + j] * x[l3.src - i];
    }
    out[m] = finish(l0, shared, a0, h, x, up);
    out[m + 1] = finish(l1, shared, a1, h, x, up);
    out[m + 2] = finish(l2, shared, a2, h, x, up);
    out[m + 3] = finish(l3, shared, a3, h, x, up);
  }
  for (; m < out_len; ++m) out[m] = finish(walk.next(), 0, 0.0, h, x, up);
}

namespace {

// One window of samples per invocation (unit size = 64 samples).
std::size_t window_len(double input_size) {
  return std::max<std::size_t>(
      16, static_cast<std::size_t>(std::lround(64.0 * input_size)));
}

// The noiseless part of a source window of n samples: two tones.
const std::vector<double>& two_tones(std::size_t n) {
  static VectorTable<std::size_t> table;
  return table.get(n, [n] {
    std::vector<double> w(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double t = static_cast<double>(i) / static_cast<double>(n);
      w[i] = std::sin(2.0 * std::numbers::pi * 5.0 * t) +
             0.5 * std::sin(2.0 * std::numbers::pi * 12.0 * t);
    }
    return w;
  });
}

repo::TaskPerformanceRecord stream_perf(const std::string& name,
                                        double base_time, double comp,
                                        double comm_mb, double mem_mb) {
  repo::TaskPerformanceRecord r;
  r.task_name = name;
  r.base_time_s = base_time;
  r.computation_size = comp;
  r.communication_size_mb = comm_mb;
  r.memory_req_mb = mem_mb;
  return r;
}

LibraryEntry stream_entry(std::string name, std::string desc, unsigned min_in,
                          unsigned max_in, TaskFn fn, double base_time,
                          double comp, double comm_mb, double mem_mb) {
  LibraryEntry e;
  e.name = name;
  e.menu = "streaming";
  e.description = std::move(desc);
  e.min_inputs = min_in;
  e.max_inputs = max_in;
  e.fn = std::move(fn);
  e.default_perf = stream_perf(name, base_time, comp, comm_mb, mem_mb);
  return e;
}

}  // namespace

void register_streaming_menu(TaskRegistry& r) {
  // The stages decode, compute and encode through per-thread scratch
  // (the idiom of fft_inplace's): a stage thread running one window
  // after another reuses the same buffers, so a steady stream allocates
  // nothing but the pooled output frame.
  r.add(stream_entry(
      "stream_window_source", "one sensor window: two tones + seeded noise",
      0, 0,
      [](const std::vector<Payload>&, const TaskContext& ctx) {
        const std::size_t n = window_len(ctx.input_size);
        const std::vector<double>& tones = two_tones(n);
        thread_local std::vector<double> w;
        w.resize(n);
        for (std::size_t i = 0; i < n; ++i) {
          w[i] = tones[i] + 0.1 * ctx.rng->normal();
        }
        return Payload::of_vector(std::span<const double>(w));
      },
      0.01, 0.1, 0.0005, 0.01));

  r.add(stream_entry(
      "stream_resample", "rational 3/2 rate conversion (windowed-sinc FIR)",
      1, 1,
      [](const std::vector<Payload>& in, const TaskContext&) {
        thread_local std::vector<double> window, resampled;
        in[0].vector_into(window);
        rational_resample_into(window, 3, 2, 48, resampled);
        return Payload::of_vector(std::span<const double>(resampled));
      },
      0.05, 0.5, 0.0008, 0.01));

  r.add(stream_entry(
      "stream_window_fft", "power spectrum of one window",
      1, 1,
      [](const std::vector<Payload>& in, const TaskContext&) {
        thread_local std::vector<double> window, spectrum;
        in[0].vector_into(window);
        power_spectrum_into(window, spectrum);
        return Payload::of_vector(std::span<const double>(spectrum));
      },
      0.05, 0.5, 0.0008, 0.01));

  r.add(stream_entry(
      "stream_sink", "window digest: {samples, energy, peak}",
      1, 8,
      [](const std::vector<Payload>& in, const TaskContext&) {
        thread_local std::vector<double> window;
        double samples = 0.0, energy = 0.0, peak = 0.0;
        for (const Payload& p : in) {
          p.vector_into(window);
          for (const double v : window) {
            samples += 1.0;
            energy += v * v;
            peak = std::max(peak, std::abs(v));
          }
        }
        const std::array<double, 3> digest{samples, energy, peak};
        return Payload::of_vector(std::span<const double>(digest));
      },
      0.01, 0.05, 0.00005, 0.01));
}

}  // namespace vdce::tasklib
