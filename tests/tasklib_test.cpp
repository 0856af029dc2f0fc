// Unit and property tests for the task libraries: matrix algebra, FFT,
// C3I kernels, payload encoding and the registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <latch>
#include <span>
#include <thread>
#include <tuple>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "datamgr/frame.hpp"
#include "tasklib/c3i.hpp"
#include "tasklib/fft.hpp"
#include "tasklib/matrix.hpp"
#include "tasklib/payload.hpp"
#include "tasklib/registry.hpp"
#include "tasklib/streaming.hpp"

namespace vdce::tasklib {
namespace {

using common::Rng;
using common::StateError;

// -------------------------------------------------------------- matrix

TEST(MatrixTest, IdentityMultiplication) {
  Rng rng(1);
  const auto a = Matrix::random(5, 5, rng);
  const auto i = Matrix::identity(5);
  EXPECT_EQ(multiply(a, i), a);
  EXPECT_EQ(multiply(i, a), a);
}

TEST(MatrixTest, MultiplyKnownValues) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  // a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12]
  double av[] = {1, 2, 3, 4, 5, 6};
  double bv[] = {7, 8, 9, 10, 11, 12};
  a.data().assign(av, av + 6);
  b.data().assign(bv, bv + 6);
  const auto c = multiply(a, b);
  EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
  EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
  EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
  EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(MatrixTest, MultiplyDimensionMismatch) {
  Matrix a(2, 3), b(2, 3);
  EXPECT_THROW((void)multiply(a, b), StateError);
}

TEST(MatrixTest, TransposeInvolution) {
  Rng rng(2);
  const auto a = Matrix::random(3, 7, rng);
  EXPECT_EQ(transpose(transpose(a)), a);
  EXPECT_DOUBLE_EQ(transpose(a).at(4, 2), a.at(2, 4));
}

TEST(LuTest, ReconstructsPA) {
  Rng rng(3);
  const std::size_t n = 8;
  const auto a = Matrix::random(n, n, rng, /*diag_boost=*/2.0);
  const auto f = lu_decompose(a);
  // Rebuild L and U, check L*U == P*A.
  Matrix l = Matrix::identity(n);
  Matrix u(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) l.at(i, j) = f.lu.at(i, j);
    for (std::size_t j = i; j < n; ++j) u.at(i, j) = f.lu.at(i, j);
  }
  const auto lu = multiply(l, u);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(lu.at(i, j), a.at(f.perm[i], j), 1e-9);
    }
  }
}

TEST(LuTest, SolveRecoversKnownSolution) {
  Rng rng(4);
  const std::size_t n = 16;
  const auto a = Matrix::random(n, n, rng, 4.0);
  std::vector<double> x_true(n);
  for (auto& v : x_true) v = rng.uniform(-2.0, 2.0);
  const auto b = multiply(a, x_true);
  const auto x = lu_solve(lu_decompose(a), b);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], x_true[i], 1e-8);
}

TEST(LuTest, SingularMatrixThrows) {
  Matrix a(3, 3, 0.0);  // all zeros
  EXPECT_THROW((void)lu_decompose(a), StateError);
  Matrix b(2, 2);
  b.at(0, 0) = 1.0;
  b.at(0, 1) = 2.0;
  b.at(1, 0) = 2.0;
  b.at(1, 1) = 4.0;  // rank 1
  EXPECT_THROW((void)lu_decompose(b), StateError);
}

TEST(LuTest, NonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW((void)lu_decompose(a), StateError);
}

TEST(LuTest, PivotingHandlesZeroDiagonal) {
  // [[0, 1], [1, 0]] requires a row swap.
  Matrix a(2, 2);
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  const auto f = lu_decompose(a);
  const auto x = lu_solve(f, std::vector<double>{3.0, 5.0});
  EXPECT_NEAR(x[0], 5.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(InvertTest, InverseTimesOriginalIsIdentity) {
  Rng rng(5);
  const std::size_t n = 10;
  const auto a = Matrix::random(n, n, rng, 3.0);
  const auto inv = invert(a);
  const auto prod = multiply(a, inv);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(prod.at(i, j), i == j ? 1.0 : 0.0, 1e-8);
    }
  }
}

TEST(DeterminantTest, KnownValues) {
  Matrix a(2, 2);
  a.at(0, 0) = 3.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 2.0;
  a.at(1, 1) = 4.0;
  EXPECT_NEAR(determinant(a), 10.0, 1e-12);
  EXPECT_NEAR(determinant(Matrix::identity(5)), 1.0, 1e-12);
}

TEST(ResidualTest, ExactSolutionHasTinyResidual) {
  Rng rng(6);
  const auto a = Matrix::random(12, 12, rng, 3.0);
  std::vector<double> x(12, 1.0);
  const auto b = multiply(a, x);
  EXPECT_LT(residual(a, x, b), 1e-12);
  // A perturbed solution has a visible residual.
  x[0] += 0.1;
  EXPECT_GT(residual(a, x, b), 1e-4);
}

// Property: solve works across sizes.
class LuSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LuSizeSweep, SolveAccurate) {
  Rng rng(100 + GetParam());
  const std::size_t n = GetParam();
  const auto a = Matrix::random(n, n, rng, static_cast<double>(n));
  std::vector<double> x_true(n, 0.5);
  const auto b = multiply(a, x_true);
  const auto x = lu_solve(lu_decompose(a), b);
  EXPECT_LT(residual(a, x, b), 1e-8 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSizeSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

TEST(CholeskyTest, ReconstructsSpd) {
  Rng rng(21);
  const auto a = random_spd(10, rng);
  const auto l = cholesky(a);
  const auto llt = multiply(l, transpose(l));
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(llt.at(i, j), a.at(i, j), 1e-9);
    }
  }
  // Strictly lower-triangular factor.
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = i + 1; j < 10; ++j) {
      EXPECT_DOUBLE_EQ(l.at(i, j), 0.0);
    }
  }
}

TEST(CholeskyTest, RejectsNonSpd) {
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(1, 1) = -1.0;  // negative eigenvalue
  EXPECT_THROW((void)cholesky(a), StateError);
  EXPECT_THROW((void)cholesky(Matrix(2, 3)), StateError);
}

TEST(JacobiSolveTest, ConvergesOnDominantSystem) {
  Rng rng(22);
  const auto a = Matrix::random(12, 12, rng, /*diag_boost=*/14.0);
  std::vector<double> x_true(12, 1.5);
  const auto b = multiply(a, x_true);
  const auto result = jacobi_solve(a, b, 1e-10, 500);
  EXPECT_TRUE(result.converged);
  EXPECT_LT(result.residual, 1e-9);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_NEAR(result.x[i], 1.5, 1e-7);
  }
}

TEST(JacobiSolveTest, ReportsNonConvergence) {
  // Not diagonally dominant: Jacobi diverges.
  Matrix a(2, 2);
  a.at(0, 0) = 1.0;
  a.at(0, 1) = 5.0;
  a.at(1, 0) = 5.0;
  a.at(1, 1) = 1.0;
  const auto result = jacobi_solve(a, {1.0, 1.0}, 1e-10, 50);
  EXPECT_FALSE(result.converged);
}

TEST(JacobiSolveTest, RejectsZeroDiagonal) {
  Matrix a(2, 2);
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  EXPECT_THROW((void)jacobi_solve(a, {1.0, 1.0}), StateError);
}

// ----------------------------------------------------------------- fft

TEST(FftTest, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(64));
  EXPECT_FALSE(is_pow2(48));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(5), 8u);
  EXPECT_EQ(next_pow2(64), 64u);
}

TEST(FftTest, NonPow2Throws) {
  std::vector<Complex> v(6);
  EXPECT_THROW(fft_inplace(v), StateError);
}

TEST(FftTest, DeltaHasFlatSpectrum) {
  std::vector<Complex> v(8, {0.0, 0.0});
  v[0] = {1.0, 0.0};
  const auto spec = fft(v);
  for (const auto& c : spec) {
    EXPECT_NEAR(c.real(), 1.0, 1e-12);
    EXPECT_NEAR(c.imag(), 0.0, 1e-12);
  }
}

TEST(FftTest, InverseRecovers) {
  Rng rng(7);
  std::vector<Complex> v(64);
  for (auto& c : v) c = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  const auto rt = ifft(fft(v));
  for (std::size_t i = 0; i < v.size(); ++i) {
    EXPECT_NEAR(rt[i].real(), v[i].real(), 1e-10);
    EXPECT_NEAR(rt[i].imag(), v[i].imag(), 1e-10);
  }
}

TEST(FftTest, SinglePureToneSpectrum) {
  constexpr std::size_t kN = 128;
  constexpr double kFreq = 5.0;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = std::sin(2.0 * M_PI * kFreq * i / kN);
  }
  const auto power = power_spectrum(signal);
  // Peak exactly at bins 5 and N-5.
  std::size_t argmax = 0;
  for (std::size_t i = 1; i < kN / 2; ++i) {
    if (power[i] > power[argmax]) argmax = i;
  }
  EXPECT_EQ(argmax, 5u);
  EXPECT_NEAR(power[5], power[kN - 5], 1e-6);
}

TEST(FftTest, ParsevalHolds) {
  Rng rng(8);
  std::vector<double> signal(256);
  for (auto& s : signal) s = rng.uniform(-1, 1);
  double time_energy = 0.0;
  for (double s : signal) time_energy += s * s;
  const auto power = power_spectrum(signal);
  double freq_energy = 0.0;
  for (double p : power) freq_energy += p;
  EXPECT_NEAR(freq_energy / signal.size(), time_energy, 1e-8);
}

TEST(FftTest, RealInputPadsToPow2) {
  std::vector<double> signal(100, 1.0);
  const auto spec = fft_real(signal);
  EXPECT_EQ(spec.size(), 128u);
}

TEST(FftTest, ConvolutionIdentity) {
  // Convolving with a delta returns the signal.
  std::vector<double> a{1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<double> delta{1, 0, 0, 0, 0, 0, 0, 0};
  const auto c = circular_convolve(a, delta);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(c[i], a[i], 1e-10);
}

TEST(FftTest, ConvolutionMatchesDirect) {
  Rng rng(9);
  std::vector<double> a(16), b(16);
  for (auto& v : a) v = rng.uniform(-1, 1);
  for (auto& v : b) v = rng.uniform(-1, 1);
  const auto fast = circular_convolve(a, b);
  for (std::size_t k = 0; k < 16; ++k) {
    double direct = 0.0;
    for (std::size_t j = 0; j < 16; ++j) {
      direct += a[j] * b[(k + 16 - j) % 16];
    }
    EXPECT_NEAR(fast[k], direct, 1e-9);
  }
}

TEST(LowpassTest, RemovesHighTonesKeepsLow) {
  constexpr std::size_t kN = 256;
  std::vector<double> low(kN), high(kN), mixed(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i) / kN;
    low[i] = std::sin(2.0 * M_PI * 4.0 * t);    // bin 4 (kept)
    high[i] = std::sin(2.0 * M_PI * 100.0 * t); // bin 100 (cut)
    mixed[i] = low[i] + high[i];
  }
  const auto filtered = lowpass_filter(mixed, 0.25);  // cutoff bin 32
  double err = 0.0;
  for (std::size_t i = 0; i < kN; ++i) {
    err = std::max(err, std::abs(filtered[i] - low[i]));
  }
  EXPECT_LT(err, 1e-9);
}

TEST(LowpassTest, FullBandIsIdentity) {
  std::vector<double> sig{1, 2, 3, 4, 5, 6, 7, 8};
  const auto out = lowpass_filter(sig, 1.0);
  for (std::size_t i = 0; i < sig.size(); ++i) {
    EXPECT_NEAR(out[i], sig[i], 1e-10);
  }
}

TEST(LowpassTest, RejectsBadCutoff) {
  EXPECT_THROW((void)lowpass_filter({1, 2}, 0.0), StateError);
  EXPECT_THROW((void)lowpass_filter({1, 2}, 1.5), StateError);
}

// ----------------------------------------------------------------- c3i

TEST(C3iTest, ScenarioShape) {
  Rng rng(10);
  ScenarioParams params;
  params.num_targets = 3;
  params.clutter_per_scan = 5;
  const auto scans = generate_scenario(params, 4, 1.0, rng);
  ASSERT_EQ(scans.size(), 4u);
  for (const auto& scan : scans) EXPECT_EQ(scan.size(), 8u);
  EXPECT_DOUBLE_EQ(scans[2].front().time_s, 2.0);
}

TEST(C3iTest, DetectionSeparatesTargetsFromClutter) {
  Rng rng(11);
  ScenarioParams params;  // target intensity 10, clutter < 4
  const auto scans = generate_scenario(params, 3, 1.0, rng);
  for (const auto& scan : scans) {
    const auto dets = detect(scan, 5.0);
    EXPECT_EQ(dets.size(), params.num_targets);
  }
}

TEST(C3iTest, DetectThresholdBoundary) {
  std::vector<SensorReport> reports{{0, 0, 4.999, 0}, {0, 0, 5.0, 0}};
  EXPECT_EQ(detect(reports, 5.0).size(), 1u);
  EXPECT_EQ(detect(reports, 0.0).size(), 2u);
}

TEST(C3iTest, AssociationClaimsClosest) {
  Track t;
  t.id = 1;
  t.x = 0.0;
  t.y = 0.0;
  std::vector<Detection> dets{{5.0, 0.0, 9, 0}, {0.5, 0.0, 9, 0}};
  const auto assoc = associate({t}, dets, 2.0);
  ASSERT_TRUE(assoc.track_to_detection[0].has_value());
  EXPECT_EQ(*assoc.track_to_detection[0], 1u);
  ASSERT_EQ(assoc.unassociated.size(), 1u);
  EXPECT_EQ(assoc.unassociated[0], 0u);
}

TEST(C3iTest, AssociationRespectsGate) {
  Track t;
  t.id = 1;
  std::vector<Detection> dets{{50.0, 50.0, 9, 0}};
  const auto assoc = associate({t}, dets, 2.0);
  EXPECT_FALSE(assoc.track_to_detection[0].has_value());
  EXPECT_EQ(assoc.unassociated.size(), 1u);
}

TEST(C3iTest, TrackerInitiatesFromUnassociated) {
  std::uint32_t next_id = 1;
  FilterParams params;
  std::vector<Detection> dets{{1.0, 2.0, 9, 0.0}, {30.0, 40.0, 9, 0.0}};
  const auto tracks = track_update({}, dets, 0.0, params, next_id);
  EXPECT_EQ(tracks.size(), 2u);
  EXPECT_EQ(next_id, 3u);
}

TEST(C3iTest, TrackerDropsAfterMaxMisses) {
  std::uint32_t next_id = 1;
  FilterParams params;
  params.max_misses = 2;
  std::vector<Track> tracks =
      track_update({}, {{0.0, 0.0, 9, 0.0}}, 0.0, params, next_id);
  ASSERT_EQ(tracks.size(), 1u);
  // Miss repeatedly.
  for (int scan = 1; scan <= 3; ++scan) {
    tracks = track_update(tracks, {}, scan, params, next_id);
  }
  EXPECT_TRUE(tracks.empty());
}

TEST(C3iTest, TrackerConvergesOnStraightMover) {
  std::uint32_t next_id = 1;
  FilterParams params;
  std::vector<Track> tracks;
  // Target moves +1 km/s in x; perfect detections.
  for (int scan = 0; scan < 20; ++scan) {
    const double t = scan;
    tracks = track_update(
        tracks, {{1.0 * t, 5.0, 9.0, t}}, t, params, next_id);
    ASSERT_EQ(tracks.size(), 1u);
  }
  EXPECT_NEAR(tracks[0].x, 19.0, 0.5);
  EXPECT_NEAR(tracks[0].vx, 1.0, 0.2);
  EXPECT_NEAR(tracks[0].vy, 0.0, 0.2);
  EXPECT_EQ(tracks[0].hits, 20);
}

TEST(C3iTest, ThreatRankingOrders) {
  Track near_track;  // close to the defended point
  near_track.id = 1;
  near_track.x = 1.0;
  near_track.y = 0.0;
  Track far_track;
  far_track.id = 2;
  far_track.x = 90.0;
  far_track.y = 90.0;
  const auto threats = rank_threats({far_track, near_track}, 0.0, 0.0);
  ASSERT_EQ(threats.size(), 2u);
  EXPECT_EQ(threats[0].track_id, 1u);
  EXPECT_GT(threats[0].score, threats[1].score);
}

TEST(C3iTest, ClosingSpeedRaisesThreat) {
  Track inbound;
  inbound.id = 1;
  inbound.x = 10.0;
  inbound.vx = -1.0;  // heading for the origin
  Track outbound = inbound;
  outbound.id = 2;
  outbound.vx = +1.0;
  const auto threats = rank_threats({outbound, inbound}, 0.0, 0.0);
  EXPECT_EQ(threats[0].track_id, 1u);
}

TEST(C3iFuseTest, MergesNearbyReports) {
  std::vector<std::vector<SensorReport>> a{{{10.0, 10.0, 5.0, 0.0}}};
  std::vector<std::vector<SensorReport>> b{{{10.2, 10.0, 6.0, 0.0}}};
  const auto fused = fuse_scans(a, b, 0.5);
  ASSERT_EQ(fused.size(), 1u);
  ASSERT_EQ(fused[0].size(), 1u);  // merged into one
  EXPECT_NEAR(fused[0][0].x, 10.1, 1e-12);
  EXPECT_DOUBLE_EQ(fused[0][0].intensity, 11.0);  // reinforced
}

TEST(C3iFuseTest, KeepsDistantReports) {
  std::vector<std::vector<SensorReport>> a{{{10.0, 10.0, 5.0, 0.0}}};
  std::vector<std::vector<SensorReport>> b{{{50.0, 50.0, 6.0, 0.0}}};
  const auto fused = fuse_scans(a, b, 0.5);
  EXPECT_EQ(fused[0].size(), 2u);
}

TEST(C3iFuseTest, RejectsMismatchedScanCounts) {
  std::vector<std::vector<SensorReport>> a(2), b(3);
  EXPECT_THROW((void)fuse_scans(a, b), StateError);
}

TEST(C3iFuseTest, FusionImprovesDetection) {
  // Two noisy sensors, each below threshold alone; fused, the target
  // crosses it.
  std::vector<std::vector<SensorReport>> a{{{10.0, 10.0, 3.0, 0.0}}};
  std::vector<std::vector<SensorReport>> b{{{10.1, 10.0, 3.0, 0.0}}};
  EXPECT_TRUE(detect(a[0], 5.0).empty());
  const auto fused = fuse_scans(a, b);
  EXPECT_EQ(detect(fused[0], 5.0).size(), 1u);
}

// ------------------------------------------------------------- payload

TEST(PayloadTest, ScalarRoundTrip) {
  const auto p = Payload::of_scalar(2.75);
  EXPECT_EQ(p.type(), PayloadType::kScalar);
  EXPECT_DOUBLE_EQ(p.as_scalar(), 2.75);
}

TEST(PayloadTest, TypeMismatchThrows) {
  const auto p = Payload::of_scalar(1.0);
  EXPECT_THROW((void)p.as_matrix(), StateError);
  EXPECT_THROW((void)p.as_tracks(), StateError);
}

TEST(PayloadTest, MatrixRoundTrip) {
  Rng rng(12);
  const auto m = Matrix::random(4, 7, rng);
  EXPECT_EQ(Payload::of_matrix(m).as_matrix(), m);
}

TEST(PayloadTest, LuRoundTrip) {
  Rng rng(13);
  const auto f = lu_decompose(Matrix::random(6, 6, rng, 2.0));
  const auto rt = Payload::of_lu(f).as_lu();
  EXPECT_EQ(rt.lu, f.lu);
  EXPECT_EQ(rt.perm, f.perm);
  EXPECT_EQ(rt.perm_sign, f.perm_sign);
}

TEST(PayloadTest, ComplexVectorRoundTrip) {
  std::vector<Complex> v{{1, 2}, {-3, 4}};
  const auto rt = Payload::of_complex_vector(v).as_complex_vector();
  ASSERT_EQ(rt.size(), 2u);
  EXPECT_EQ(rt[0], v[0]);
  EXPECT_EQ(rt[1], v[1]);
}

TEST(PayloadTest, ReportScansRoundTrip) {
  std::vector<std::vector<SensorReport>> scans{
      {{1, 2, 3, 0}}, {}, {{4, 5, 6, 1}, {7, 8, 9, 1}}};
  EXPECT_EQ(Payload::of_report_scans(scans).as_report_scans(), scans);
}

TEST(PayloadTest, TracksAndThreatsRoundTrip) {
  std::vector<Track> tracks{{1, 2, 3, 4, 5, 6, 1, 9}};
  EXPECT_EQ(Payload::of_tracks(tracks).as_tracks(), tracks);
  std::vector<Threat> threats{{4, 0.5}, {2, 0.25}};
  EXPECT_EQ(Payload::of_threats(threats).as_threats(), threats);
}

TEST(PayloadTest, TextRoundTrip) {
  EXPECT_EQ(Payload::of_text("hello").as_text(), "hello");
}

TEST(PayloadTest, WireImageRoundTrip) {
  const auto p = Payload::of_vector({1.0, 2.0, 3.0});
  const auto wire = p.to_wire();
  const auto rt = Payload::from_wire(wire);
  EXPECT_EQ(rt.type(), PayloadType::kVector);
  EXPECT_EQ(rt.as_vector(), p.as_vector());
  // size_mb matches the body size.
  EXPECT_NEAR(p.size_mb() * 1024.0 * 1024.0,
              static_cast<double>(p.size_bytes()), 1e-9);
}

TEST(PayloadTest, BadWireImageThrows) {
  EXPECT_THROW((void)Payload::from_wire(std::span<const std::byte>{}),
               common::ParseError);
  const std::byte bad_tag[] = {std::byte{0xFF}};
  EXPECT_THROW((void)Payload::from_wire(bad_tag), common::ParseError);
  // The borrowing overload refuses the same images.
  auto& pool = dm::FramePool::global();
  EXPECT_THROW((void)Payload::from_wire(dm::FrameView{}), common::ParseError);
  EXPECT_THROW((void)Payload::from_wire(pool.copy_of({})),
               common::ParseError);
  EXPECT_THROW((void)Payload::from_wire(pool.copy_of(bad_tag)),
               common::ParseError);
  const std::byte zero_tag[] = {std::byte{0}};
  EXPECT_THROW((void)Payload::from_wire(pool.copy_of(zero_tag)),
               common::ParseError);
}

TEST(Payload, FromWireBorrowsThePooledFrame) {
  const Payload src = Payload::of_vector(std::vector<double>{1.5, -2.0, 3.25});
  const std::vector<std::byte> image = src.to_wire();
  auto& pool = dm::FramePool::global();
  dm::FrameView view = pool.copy_of(image);
  const Payload p = Payload::from_wire(view);
  EXPECT_EQ(p.wire().data(), view.data());
  EXPECT_EQ(p.wire().size(), view.size());
  EXPECT_EQ(p.bytes().data(), view.data() + 1);

  // Drop the view and churn the pool through the same size class: the
  // payload's reference keeps its slab out of circulation.
  view.reset();
  for (int i = 0; i < 64; ++i) {
    dm::Frame f = pool.allocate(image.size());
    std::fill(f.span().begin(), f.span().end(), std::byte{0xA5});
  }
  pool.trim();
  EXPECT_EQ(p.to_wire(), image);
  EXPECT_EQ(p.as_vector(), (std::vector<double>{1.5, -2.0, 3.25}));

  // Copies share the frame; the span overload copies into a new one.
  const Payload copy = p;
  EXPECT_EQ(copy.wire().data(), p.wire().data());
  const Payload copied = Payload::from_wire(std::span(image));
  EXPECT_NE(copied.wire().data(), image.data());
  EXPECT_EQ(copied.to_wire(), image);
}

TEST(Payload, DefaultPayloadIsAnEmptyScalarImage) {
  const Payload p;
  EXPECT_EQ(p.type(), PayloadType::kScalar);
  EXPECT_EQ(p.wire_size(), 1u);
  EXPECT_EQ(p.size_bytes(), 0u);
  EXPECT_EQ(p.to_wire(), (std::vector<std::byte>{std::byte{1}}));
  EXPECT_THROW((void)p.as_scalar(), common::ParseError);
}

TEST(Payload, VectorIntoOverwritesStaleContents) {
  const std::vector<double> v{4.0, 5.0, 6.0};
  std::vector<double> out(50, -1.0);
  Payload::of_vector(v).vector_into(out);
  EXPECT_EQ(out, v);
  EXPECT_THROW(Payload::of_scalar(1.0).vector_into(out), StateError);
}

TEST(PayloadTest, GarbageCountsThrowParseErrorBeforeAllocating) {
  // Tag + a body of all-0xFF bytes: every count or dimension reads as
  // ~4e9, far past the bytes that follow.
  for (auto tag = static_cast<std::uint8_t>(PayloadType::kVector);
       tag <= static_cast<std::uint8_t>(PayloadType::kThreats); ++tag) {
    std::vector<std::byte> wire(1 + 16, std::byte{0xFF});
    wire[0] = std::byte{tag};
    const auto p = Payload::from_wire(wire);
    const auto decode = [&] {
      switch (p.type()) {
        case PayloadType::kVector:
          (void)p.as_vector();
          break;
        case PayloadType::kMatrix:
          (void)p.as_matrix();
          break;
        case PayloadType::kLuFactors:
          (void)p.as_lu();
          break;
        case PayloadType::kComplexVector:
          (void)p.as_complex_vector();
          break;
        case PayloadType::kReportScans:
          (void)p.as_report_scans();
          break;
        case PayloadType::kDetectionScans:
          (void)p.as_detection_scans();
          break;
        case PayloadType::kTracks:
          (void)p.as_tracks();
          break;
        case PayloadType::kThreats:
          (void)p.as_threats();
          break;
        default:
          break;
      }
    };
    EXPECT_THROW(decode(), common::ParseError) << to_string(p.type());
  }
}

// ------------------------------------------------------ golden digests
//
// The kernels and payload codecs are pinned bit for bit: each digest is
// FNV-1a over the exact output bits, taken from the straightforward
// reference kernels (complex-recurrence FFT, modulo-scan resampler,
// byte-at-a-time codec).  Any rewrite must reproduce them unchanged.
// Inputs come from Rng::uniform, which is pure integer arithmetic, so
// the inputs themselves do not depend on libm.

constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

std::uint64_t fnv_byte(std::uint64_t h, std::uint8_t b) {
  return (h ^ b) * 0x100000001b3ull;
}

std::uint64_t fnv(std::uint64_t h, std::span<const std::byte> bytes) {
  for (const std::byte b : bytes) {
    h = fnv_byte(h, static_cast<std::uint8_t>(b));
  }
  return h;
}

// Little-endian bit pattern of each double.
std::uint64_t fnv(std::uint64_t h, std::span<const double> values) {
  for (const double v : values) {
    const auto bits = std::bit_cast<std::uint64_t>(v);
    for (int s = 0; s < 64; s += 8) {
      h = fnv_byte(h, static_cast<std::uint8_t>(bits >> s));
    }
  }
  return h;
}

std::uint64_t fnv(std::uint64_t h, std::span<const Complex> values) {
  for (const Complex& c : values) {
    const double parts[] = {c.real(), c.imag()};
    h = fnv(h, std::span<const double>(parts));
  }
  return h;
}

std::vector<double> uniform_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-1.0, 1.0);
  return v;
}

std::vector<Complex> uniform_complex(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Complex> v(n);
  for (Complex& c : v) {
    const double re = rng.uniform(-1.0, 1.0);
    c = Complex(re, rng.uniform(-1.0, 1.0));
  }
  return v;
}

TEST(GoldenDigest, FftForwardAndInverseEverySize) {
  std::uint64_t fwd = kFnvBasis, inv = kFnvBasis;
  for (std::size_t log2n = 0; log2n <= 17; ++log2n) {
    const auto input = uniform_complex(std::size_t{1} << log2n, 100 + log2n);
    auto f = input;
    fft_inplace(f, /*inverse=*/false);
    fwd = fnv(fwd, std::span<const Complex>(f));
    auto b = input;
    fft_inplace(b, /*inverse=*/true);
    inv = fnv(inv, std::span<const Complex>(b));
  }
  EXPECT_EQ(fwd, 0x55c95d13f5709f1eull) << std::hex << fwd;
  EXPECT_EQ(inv, 0x758b8139c6e2ebd5ull) << std::hex << inv;
}

TEST(GoldenDigest, SpectralKernels) {
  std::uint64_t spec = kFnvBasis, low = kFnvBasis, conv = kFnvBasis;
  for (const std::size_t n : {1, 2, 3, 85, 128, 300, 1000}) {
    spec = fnv(spec, power_spectrum(uniform_signal(n, 200 + n)));
  }
  for (const std::size_t n : {1, 85, 300, 1024}) {
    for (const double cutoff : {0.1, 0.25, 0.5, 1.0}) {
      low = fnv(low, lowpass_filter(uniform_signal(n, 300 + n), cutoff));
    }
  }
  for (const std::size_t n : {1, 2, 8, 64, 1024}) {
    conv = fnv(conv, circular_convolve(uniform_signal(n, 400 + n),
                                       uniform_signal(n, 500 + n)));
  }
  EXPECT_EQ(spec, 0x254b10151165ae34ull) << std::hex << spec;
  EXPECT_EQ(low, 0x596d4b437e44fa4eull) << std::hex << low;
  EXPECT_EQ(conv, 0x7169b9f7f0bff104ull) << std::hex << conv;
}

TEST(GoldenDigest, RationalResample) {
  const std::tuple<unsigned, unsigned, std::size_t> shapes[] = {
      {3, 2, 48}, {2, 3, 48}, {1, 1, 1},  {1, 1, 48}, {5, 3, 17},
      {4, 1, 48}, {1, 4, 31}, {7, 5, 64}, {3, 2, 1},  {2, 1, 200}};
  std::uint64_t h = kFnvBasis;
  for (const auto& [up, down, taps] : shapes) {
    for (const std::size_t n : {0, 1, 7, 85, 300}) {
      const auto out =
          rational_resample(uniform_signal(n, 600 + n), up, down, taps);
      EXPECT_EQ(out.size(), (n * up + down - 1) / down);
      h = fnv(h, out);
    }
  }
  EXPECT_EQ(h, 0xdb2c6a6d34d64860ull) << std::hex << h;

  // Every residue of the output length mod 4, so the four-lane kernel's
  // tail runs with 1, 2 and 3 outputs left after the last full group.
  std::uint64_t tails = kFnvBasis;
  bool residue_seen[4] = {false, false, false, false};
  for (const auto& [up, down, taps] : shapes) {
    for (std::size_t n = 1; n <= 12; ++n) {
      const auto out =
          rational_resample(uniform_signal(n, 900 + n), up, down, taps);
      residue_seen[out.size() % 4] = true;
      tails = fnv(tails, out);
    }
  }
  EXPECT_TRUE(residue_seen[1] && residue_seen[2] && residue_seen[3]);
  EXPECT_EQ(tails, 0xc5ccc16b1ba8c8dcull) << std::hex << tails;

  // Into a buffer holding longer, stale contents: equal to a fresh call.
  const auto signal = uniform_signal(37, 1000);
  for (const auto& [up, down, taps] : shapes) {
    std::vector<double> reused(500, 123.0);
    rational_resample_into(signal, up, down, taps, reused);
    EXPECT_EQ(reused, rational_resample(signal, up, down, taps));
  }
}

TEST(GoldenDigest, PowerSpectrumIntoMatchesTheComplexTransform) {
  // Windows in the per-thread scratch and past it (8192 points), each
  // into a buffer holding longer, stale contents; the reference is the
  // complex transform of the zero-padded signal, bin by bin.
  std::vector<double> reused(9000, 123.0);
  for (const std::size_t n : {1, 3, 85, 128, 300, 5000}) {
    const auto signal = uniform_signal(n, 1100 + n);
    power_spectrum_into(signal, reused);
    const auto spec = fft_real(signal);
    ASSERT_EQ(reused.size(), spec.size());
    for (std::size_t i = 0; i < spec.size(); ++i) {
      EXPECT_EQ(reused[i], std::norm(spec[i])) << "n " << n << " bin " << i;
    }
  }
}

TEST(GoldenDigest, StreamingStagesOverSeeds) {
  const auto& reg = builtin_registry();
  // Window lengths 85, 64, 16, 128 and 77: the perfbench window, the
  // unit window, the floor, a power of two and an odd size.
  const double sizes[] = {85.0 / 64.0, 1.0, 0.1, 2.0, 77.0 / 64.0};
  std::uint64_t h = kFnvBasis;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    Rng rng(seed);
    const TaskContext ctx{sizes[seed % 5], &rng};
    const auto src = reg.run("stream_window_source", {}, ctx);
    const auto res = reg.run("stream_resample", {src}, ctx);
    const auto spec = reg.run("stream_window_fft", {res}, ctx);
    const auto sink = reg.run("stream_sink", {src, res, spec}, ctx);
    for (const Payload* p : {&src, &res, &spec, &sink}) {
      h = fnv(h, p->to_wire());
    }
  }
  EXPECT_EQ(h, 0xc020ff6ce67ba3c5ull) << std::hex << h;
}

TEST(GoldenDigest, PayloadWireBytes) {
  std::uint64_t h = kFnvBasis;
  for (const std::size_t n : {0, 1, 128, 1000}) {
    const auto v = uniform_signal(n, 700 + n);
    const auto p = Payload::of_vector(v);
    EXPECT_EQ(p.as_vector(), v);
    h = fnv(h, p.to_wire());
  }
  for (const std::size_t n : {0, 1, 64}) {
    const auto v = uniform_complex(n, 800 + n);
    const auto p = Payload::of_complex_vector(v);
    EXPECT_EQ(p.as_complex_vector(), v);
    h = fnv(h, p.to_wire());
  }
  Rng rng(900);
  for (const auto& [rows, cols] : {std::pair<std::size_t, std::size_t>{0, 0},
                                   {1, 1}, {3, 5}, {16, 16}}) {
    const auto m = Matrix::random(rows, cols, rng);
    const auto p = Payload::of_matrix(m);
    EXPECT_EQ(p.as_matrix(), m);
    h = fnv(h, p.to_wire());
  }
  for (const std::size_t n : {1, 8, 33}) {
    const auto f = lu_decompose(Matrix::random(n, n, rng));
    const auto p = Payload::of_lu(f);
    const auto back = p.as_lu();
    EXPECT_EQ(back.lu, f.lu);
    EXPECT_EQ(back.perm, f.perm);
    EXPECT_EQ(back.perm_sign, f.perm_sign);
    h = fnv(h, p.to_wire());
  }
  EXPECT_EQ(h, 0xadfaf085cdbdc050ull) << std::hex << h;
}

// The four C3I record payloads, pinned byte for byte.
std::string hex(std::span<const std::byte> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::byte b : bytes) {
    out.push_back(kDigits[static_cast<std::uint8_t>(b) >> 4]);
    out.push_back(kDigits[static_cast<std::uint8_t>(b) & 0xF]);
  }
  return out;
}

TEST(GoldenBytes, C3iPayloadWireBytes) {
  const std::vector<std::vector<SensorReport>> reports{
      {{1.5, -2.0, 3.25, 0.5}}, {}, {{4.0, 5.0, 6.0, 1.0}, {7, 8, 9, 1}}};
  EXPECT_EQ(hex(Payload::of_report_scans(reports).to_wire()),
            "0600000003000000013ff8000000000000c000000000000000400a0000000000"
            "003fe00000000000000000000000000002401000000000000040140000000000"
            "0040180000000000003ff0000000000000401c00000000000040200000000000"
            "0040220000000000003ff0000000000000");
  const std::vector<std::vector<Detection>> detections{
      {}, {{10.0, 20.0, 0.75, 2.0}, {-1.0, 0.5, 1.25, 2.0}}};
  EXPECT_EQ(hex(Payload::of_detection_scans(detections).to_wire()),
            "07000000020000000000000002402400000000000040340000000000003fe800"
            "00000000004000000000000000bff00000000000003fe00000000000003ff400"
            "00000000004000000000000000");
  const std::vector<Track> tracks{{7, 1.0, 2.0, 0.25, -0.5, 3.0, 1, 9},
                                  {9, -4.0, 8.0, 0.0, 1.5, 3.5, 0, 2}};
  EXPECT_EQ(hex(Payload::of_tracks(tracks).to_wire()),
            "0800000002000000073ff000000000000040000000000000003fd00000000000"
            "00bfe00000000000004008000000000000000000010000000900000009c01000"
            "0000000000402000000000000000000000000000003ff8000000000000400c00"
            "00000000000000000000000002");
  const std::vector<Threat> threats{{9, 0.875}, {7, 0.125}};
  EXPECT_EQ(hex(Payload::of_threats(threats).to_wire()),
            "0900000002000000093fec000000000000000000073fc0000000000000");
}

// Eight threads first-touch the same FFT size, FIR shape and source
// window length at once (none of them used anywhere else in this
// binary); every thread must see the same bits as a serial run.
TEST(KernelTables, ConcurrentFirstTouchIsIdentical) {
  constexpr int kThreads = 8;
  const auto input = uniform_complex(std::size_t{1} << 18, 1000);
  const auto signal = uniform_signal(300, 1001);
  struct Result {
    std::uint64_t fft = 0, resample = 0, source = 0;
  };
  std::vector<Result> results(kThreads);
  std::latch start(kThreads);
  {
    std::vector<std::jthread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        auto data = input;
        Rng rng(1002);
        const TaskContext ctx{93.0 / 64.0, &rng};
        start.arrive_and_wait();
        fft_inplace(data);
        results[t].fft = fnv(kFnvBasis, std::span<const Complex>(data));
        results[t].resample =
            fnv(kFnvBasis, rational_resample(signal, 11, 7, 37));
        results[t].source = fnv(
            kFnvBasis,
            builtin_registry().run("stream_window_source", {}, ctx).to_wire());
      });
    }
  }
  auto serial = input;
  fft_inplace(serial);
  Rng rng(1002);
  const TaskContext ctx{93.0 / 64.0, &rng};
  const Result expected{
      fnv(kFnvBasis, std::span<const Complex>(serial)),
      fnv(kFnvBasis, rational_resample(signal, 11, 7, 37)),
      fnv(kFnvBasis,
          builtin_registry().run("stream_window_source", {}, ctx).to_wire())};
  for (const Result& r : results) {
    EXPECT_EQ(r.fft, expected.fft);
    EXPECT_EQ(r.resample, expected.resample);
    EXPECT_EQ(r.source, expected.source);
  }
}

// ------------------------------------------------------------ registry

TEST(RegistryTest, BuiltinsPresent) {
  const auto& reg = builtin_registry();
  EXPECT_GE(reg.size(), 20u);
  const auto menus = reg.menus();
  EXPECT_NE(std::find(menus.begin(), menus.end(), "matrix"), menus.end());
  EXPECT_NE(std::find(menus.begin(), menus.end(), "fourier"), menus.end());
  EXPECT_NE(std::find(menus.begin(), menus.end(), "c3i"), menus.end());
  EXPECT_NE(std::find(menus.begin(), menus.end(), "synthetic"), menus.end());
}

TEST(RegistryTest, MenuGrouping) {
  const auto& reg = builtin_registry();
  const auto matrix_tasks = reg.tasks_in_menu("matrix");
  EXPECT_NE(std::find(matrix_tasks.begin(), matrix_tasks.end(),
                      "lu_decomposition"),
            matrix_tasks.end());
  EXPECT_TRUE(reg.tasks_in_menu("nonexistent").empty());
}

TEST(RegistryTest, DuplicateRejected) {
  TaskRegistry reg;
  register_builtin_tasks(reg);
  EXPECT_THROW(register_builtin_tasks(reg), StateError);
}

TEST(RegistryTest, UnknownTaskThrows) {
  EXPECT_THROW((void)builtin_registry().get("warp_drive"),
               common::NotFoundError);
}

TEST(RegistryTest, ArityEnforced) {
  const auto& reg = builtin_registry();
  Rng rng(14);
  TaskContext ctx{1.0, &rng};
  // lu_decomposition needs exactly one input.
  EXPECT_THROW((void)reg.run("lu_decomposition", {}, ctx), StateError);
  const auto m = Payload::of_matrix(Matrix::identity(4));
  EXPECT_THROW((void)reg.run("lu_decomposition", {m, m}, ctx), StateError);
}

TEST(RegistryTest, InstallDefaultsPopulatesDb) {
  repo::TaskPerformanceDb db;
  builtin_registry().install_defaults(db);
  EXPECT_EQ(db.size(), builtin_registry().size());
  EXPECT_GT(db.get("matrix_inversion").base_time_s,
            db.get("matrix_transpose").base_time_s);
}

TEST(RegistryTest, LinearSolverPipelineComputesCorrectly) {
  const auto& reg = builtin_registry();
  Rng rng(15);
  TaskContext ctx{0.5, &rng};  // 16x16

  const auto a = reg.run("matrix_generate", {}, ctx);
  const auto b = reg.run("vector_generate", {}, ctx);
  const auto lu = reg.run("lu_decomposition", {a}, ctx);
  const auto low = reg.run("lu_lower", {lu}, ctx);
  const auto up = reg.run("lu_upper", {lu}, ctx);
  const auto li = reg.run("matrix_inversion", {low}, ctx);
  const auto ui = reg.run("matrix_inversion", {up}, ctx);
  const auto pb = reg.run("permute_vector", {lu, b}, ctx);
  const auto y = reg.run("matrix_vector_multiply", {li, pb}, ctx);
  const auto x = reg.run("matrix_vector_multiply", {ui, y}, ctx);
  const auto res = reg.run("residual_check", {a, x, b}, ctx);
  EXPECT_LT(res.as_scalar(), 1e-9);
}

TEST(RegistryTest, DirectSolveAgreesWithFactoredPath) {
  const auto& reg = builtin_registry();
  Rng rng(16);
  TaskContext ctx{0.5, &rng};
  const auto a = reg.run("matrix_generate", {}, ctx);
  const auto b = reg.run("vector_generate", {}, ctx);
  const auto x1 = reg.run("linear_solve", {a, b}, ctx);
  const auto lu = reg.run("lu_decomposition", {a}, ctx);
  const auto x2 = reg.run("triangular_solve", {lu, b}, ctx);
  const auto v1 = x1.as_vector();
  const auto v2 = x2.as_vector();
  ASSERT_EQ(v1.size(), v2.size());
  for (std::size_t i = 0; i < v1.size(); ++i) EXPECT_NEAR(v1[i], v2[i], 1e-9);
}

TEST(RegistryTest, C3iChainProducesThreats) {
  const auto& reg = builtin_registry();
  Rng rng(17);
  TaskContext ctx{1.0, &rng};
  const auto scans = reg.run("sensor_ingest", {}, ctx);
  const auto dets = reg.run("target_detect", {scans}, ctx);
  const auto tracks = reg.run("track_filter", {dets}, ctx);
  const auto threats = reg.run("threat_rank", {tracks}, ctx);
  EXPECT_FALSE(threats.as_threats().empty());
  const auto summary = reg.run("c3i_display", {threats}, ctx);
  EXPECT_NE(summary.as_text().find("threats="), std::string::npos);
}

TEST(RegistryTest, SourceScalesWithInputSize) {
  const auto& reg = builtin_registry();
  Rng rng(18);
  TaskContext small{0.5, &rng};
  TaskContext large{2.0, &rng};
  const auto a = reg.run("synth_source", {}, small);
  const auto b = reg.run("synth_source", {}, large);
  EXPECT_LT(a.size_bytes(), b.size_bytes());
}

TEST(RegistryTest, DeterministicGivenSeed) {
  const auto& reg = builtin_registry();
  Rng r1(42), r2(42);
  TaskContext c1{1.0, &r1}, c2{1.0, &r2};
  const auto a = reg.run("matrix_generate", {}, c1);
  const auto b = reg.run("matrix_generate", {}, c2);
  EXPECT_EQ(a.as_matrix(), b.as_matrix());
}

}  // namespace
}  // namespace vdce::tasklib
