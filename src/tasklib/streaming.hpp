// Streaming task family: windowed signal stages for the D16 streaming
// execution mode (menu "streaming").
//
// The paper's C3I tracking scenario is naturally a continuous pipeline:
// sensor frames arrive forever and flow through rate conversion and
// spectral analysis toward a tracker.  These stages are that pipeline's
// library form (exemplar: R2sampler's multi-stage rate converter) —
// each call maps ONE window of samples to ONE window, holding no state
// between calls, so a stream of N frames through a stage is exactly N
// independent invocations.  That per-frame purity is what the
// differential test wall leans on: a finite stream must be
// bit-identical to running the batch engine once per frame.
//
//   stream_window_source   0-in   one window of two tones + seeded noise
//   stream_resample        1-in   rational 3/2 rate conversion (FIR)
//   stream_window_fft      1-in   power spectrum of the window
//   stream_sink            1..8   digest: {samples, energy, peak}
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "tasklib/registry.hpp"

namespace vdce::tasklib {

/// Hamming-windowed-sinc low-pass FIR prototype.  `cutoff` is the
/// normalized cutoff frequency in (0, 0.5] (fraction of the sample
/// rate); `taps` >= 1.  Unit DC gain.
[[nodiscard]] std::vector<double> windowed_sinc_fir(std::size_t taps,
                                                    double cutoff);

/// Rational rate conversion by up/down (R2sampler's scheme): zero-stuff
/// by `up`, low-pass at min(1/(2 up), 1/(2 down)) of the stuffed rate
/// with a `taps`-tap windowed-sinc FIR (gain `up`), keep every
/// `down`-th sample.  Output length = ceil(n * up / down).
[[nodiscard]] std::vector<double> rational_resample(
    const std::vector<double>& signal, unsigned up, unsigned down,
    std::size_t taps = 48);

/// rational_resample() into `out`, reusing its capacity: `out` ends up
/// holding exactly the output, bit-identical to rational_resample()'s.
void rational_resample_into(std::span<const double> signal, unsigned up,
                            unsigned down, std::size_t taps,
                            std::vector<double>& out);

/// Registers the "streaming" menu into `r`.
void register_streaming_menu(TaskRegistry& r);

}  // namespace vdce::tasklib
