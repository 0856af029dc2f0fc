#include "tasklib/fft.hpp"

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <numbers>

#include "common/error.hpp"

namespace vdce::tasklib {

using common::expects;

bool is_pow2(std::size_t n) { return n >= 1 && (n & (n - 1)) == 0; }

std::size_t next_pow2(std::size_t n) {
  expects(n >= 1, "next_pow2 of zero");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

namespace {

// Everything fft_inplace needs for one size n = 2^log2n, built once and
// never changed.  Twiddles of every stage sit back to back: the stage of
// half-length h starts at offset h - 1.  Each stage's twiddles come from
// the w *= wn recurrence (not from cos/sin per index): the transform's
// output bits are pinned to that recurrence's values.
struct FftPlan {
  std::vector<std::uint32_t> bitrev;
  std::vector<double> fwd_re, fwd_im, inv_re, inv_im;
};

void fill_twiddles(std::size_t n, bool inverse, std::vector<double>& re,
                   std::vector<double>& im) {
  re.reserve(n - 1);
  im.reserve(n - 1);
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const Complex wn(std::cos(angle), std::sin(angle));
    Complex w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k) {
      re.push_back(w.real());
      im.push_back(w.imag());
      w *= wn;
    }
  }
}

std::unique_ptr<const FftPlan> build_plan(std::size_t log2n) {
  const std::size_t n = std::size_t{1} << log2n;
  auto plan = std::make_unique<FftPlan>();
  plan->bitrev.resize(n);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    plan->bitrev[i] = static_cast<std::uint32_t>(j);
  }
  fill_twiddles(n, false, plan->fwd_re, plan->fwd_im);
  fill_twiddles(n, true, plan->inv_re, plan->inv_im);
  return plan;
}

// Process-wide plans indexed by log2 n, each built on first use.
const FftPlan& plan_for(std::size_t log2n) {
  static std::array<std::once_flag, 33> once;
  static std::array<std::unique_ptr<const FftPlan>, 33> plans;
  std::call_once(once[log2n], [&] { plans[log2n] = build_plan(log2n); });
  return *plans[log2n];
}

}  // namespace

void fft_inplace(std::vector<Complex>& data, bool inverse) {
  const std::size_t n = data.size();
  expects(is_pow2(n), "FFT size must be a power of two");
  expects(n <= (std::size_t{1} << 32), "FFT size exceeds 2^32");
  const FftPlan& plan =
      plan_for(static_cast<std::size_t>(std::countr_zero(n)));

  // Split re/im scratch, filled in bit-reversed order.
  thread_local std::vector<double> scratch;
  if (scratch.size() < 2 * n) scratch.resize(2 * n);
  double* const re = scratch.data();
  double* const im = re + n;
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = data[plan.bitrev[i]].real();
    im[i] = data[plan.bitrev[i]].imag();
  }

  // Butterfly passes.  v = x * w and u +/- v are spelled out as the
  // real operations std::complex performs, in the same order, so the
  // results are bit-identical to the complex arithmetic (for finite
  // products; std::complex would recompute a NaN product).
  const double* const tw_re =
      inverse ? plan.inv_re.data() : plan.fwd_re.data();
  const double* const tw_im =
      inverse ? plan.inv_im.data() : plan.fwd_im.data();
  for (std::size_t half = 1; half < n; half <<= 1) {
    const double* __restrict wr = tw_re + (half - 1);
    const double* __restrict wi = tw_im + (half - 1);
    for (std::size_t i = 0; i < n; i += 2 * half) {
      double* __restrict ar = re + i;
      double* __restrict ai = im + i;
      double* __restrict br = re + i + half;
      double* __restrict bi = im + i + half;
      for (std::size_t k = 0; k < half; ++k) {
        const double vr = br[k] * wr[k] - bi[k] * wi[k];
        const double vi = br[k] * wi[k] + bi[k] * wr[k];
        const double ur = ar[k];
        const double ui = ai[k];
        ar[k] = ur + vr;
        ai[k] = ui + vi;
        br[k] = ur - vr;
        bi[k] = ui - vi;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      data[i] = Complex(re[i] * scale, im[i] * scale);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) data[i] = Complex(re[i], im[i]);
  }
}

std::vector<Complex> fft(const std::vector<Complex>& data) {
  auto out = data;
  fft_inplace(out, /*inverse=*/false);
  return out;
}

std::vector<Complex> ifft(const std::vector<Complex>& data) {
  auto out = data;
  fft_inplace(out, /*inverse=*/true);
  return out;
}

std::vector<Complex> fft_real(const std::vector<double>& data) {
  expects(!data.empty(), "fft_real of empty signal");
  std::vector<Complex> c(next_pow2(data.size()), Complex(0.0, 0.0));
  for (std::size_t i = 0; i < data.size(); ++i) c[i] = Complex(data[i], 0.0);
  fft_inplace(c, /*inverse=*/false);
  return c;
}

std::vector<double> power_spectrum(const std::vector<double>& signal) {
  const auto spec = fft_real(signal);
  std::vector<double> out(spec.size());
  for (std::size_t i = 0; i < spec.size(); ++i) out[i] = std::norm(spec[i]);
  return out;
}

std::vector<double> lowpass_filter(const std::vector<double>& signal,
                                   double cutoff_fraction) {
  expects(cutoff_fraction > 0.0 && cutoff_fraction <= 1.0,
          "cutoff fraction must be in (0, 1]");
  auto spectrum = fft_real(signal);
  const std::size_t n = spectrum.size();
  // Bins [0, cutoff] and the mirrored tail are kept; the middle zeroed.
  const auto cutoff =
      static_cast<std::size_t>(cutoff_fraction * static_cast<double>(n) / 2);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t distance = std::min(k, n - k);  // from DC
    if (distance > cutoff) spectrum[k] = Complex(0.0, 0.0);
  }
  fft_inplace(spectrum, /*inverse=*/true);
  std::vector<double> out(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    out[i] = spectrum[i].real();
  }
  return out;
}

std::vector<double> circular_convolve(const std::vector<double>& a,
                                      const std::vector<double>& b) {
  expects(a.size() == b.size(), "circular_convolve size mismatch");
  expects(is_pow2(a.size()), "circular_convolve size must be a power of two");
  std::vector<Complex> fa(a.size()), fb(b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    fa[i] = Complex(a[i], 0.0);
    fb[i] = Complex(b[i], 0.0);
  }
  fft_inplace(fa, false);
  fft_inplace(fb, false);
  for (std::size_t i = 0; i < fa.size(); ++i) fa[i] *= fb[i];
  fft_inplace(fa, true);
  std::vector<double> out(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) out[i] = fa[i].real();
  return out;
}

}  // namespace vdce::tasklib
