// Fourier-analysis kernels for the "Fourier analysis" task library menu.
#pragma once

#include <complex>
#include <cstddef>
#include <span>
#include <vector>

namespace vdce::tasklib {

using Complex = std::complex<double>;

/// In-place radix-2 Cooley-Tukey FFT.  `data.size()` must be a power of
/// two (throws StateError otherwise).  `inverse` selects the inverse
/// transform (including the 1/N scaling).
void fft_inplace(std::vector<Complex>& data, bool inverse = false);

/// Out-of-place forward FFT.
[[nodiscard]] std::vector<Complex> fft(const std::vector<Complex>& data);

/// Out-of-place inverse FFT (with 1/N scaling).
[[nodiscard]] std::vector<Complex> ifft(const std::vector<Complex>& data);

/// Real-input convenience wrapper: zero imaginary parts, pads to the
/// next power of two with zeros.
[[nodiscard]] std::vector<Complex> fft_real(const std::vector<double>& data);

/// |X_k|^2 for each bin of the forward transform of a real signal
/// (zero-padded to the next power of two).
[[nodiscard]] std::vector<double> power_spectrum(
    const std::vector<double>& signal);

/// power_spectrum() into `out`, reusing its capacity.  Windows up to
/// kSpectrumScratchPoints points transform in a per-thread scratch, so
/// a steady stream of them allocates nothing; longer ones use a
/// temporary, so no thread keeps a bulk-sized buffer alive.
void power_spectrum_into(std::span<const double> signal,
                         std::vector<double>& out);

/// Largest transform power_spectrum_into() runs in per-thread scratch.
inline constexpr std::size_t kSpectrumScratchPoints = 4096;

/// Circular convolution of two equal-length power-of-two sequences via
/// the convolution theorem.
[[nodiscard]] std::vector<double> circular_convolve(
    const std::vector<double>& a, const std::vector<double>& b);

/// Ideal low-pass filter via the frequency domain: zeroes every bin
/// above `cutoff_fraction` of the Nyquist band and transforms back.
/// The input is zero-padded to a power of two; the result keeps the
/// original length.  cutoff_fraction must lie in (0, 1].
[[nodiscard]] std::vector<double> lowpass_filter(
    const std::vector<double>& signal, double cutoff_fraction);

/// Smallest power of two >= n (n >= 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n);

/// True iff n is a power of two (n >= 1).
[[nodiscard]] bool is_pow2(std::size_t n);

}  // namespace vdce::tasklib
