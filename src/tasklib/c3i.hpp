// C3I (command, control, communication, and information) kernels.
//
// The paper lists a "C3I (command and control applications) library"
// among the Editor's menus; its production workloads are not public, so
// we provide a synthetic surveillance pipeline with the classic C3I
// stages: sensor ingest -> detection -> track association -> track
// filtering -> threat ranking.  The kernels are deterministic given the
// inputs, which lets integration tests check end-to-end dataflow through
// the VDCE runtime.  Each record lists its fields() in payload wire
// order (tasklib/payload.cpp encodes them with common/serialize.hpp).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.hpp"

namespace vdce::tasklib {

/// One raw sensor return.
struct SensorReport {
  double x = 0.0;        // position, km
  double y = 0.0;
  double intensity = 0.0;  // signal strength (arbitrary units)
  double time_s = 0.0;

  friend bool operator==(const SensorReport&, const SensorReport&) = default;
  static auto fields(auto& m, auto&& v) {
    return v(m.x, m.y, m.intensity, m.time_s);
  }
};

/// A confirmed detection produced by thresholding.
struct Detection {
  double x = 0.0;
  double y = 0.0;
  double strength = 0.0;
  double time_s = 0.0;

  friend bool operator==(const Detection&, const Detection&) = default;
  static auto fields(auto& m, auto&& v) {
    return v(m.x, m.y, m.strength, m.time_s);
  }
};

/// A maintained track with an alpha-beta filter state.
struct Track {
  std::uint32_t id = 0;
  double x = 0.0;
  double y = 0.0;
  double vx = 0.0;  // km/s
  double vy = 0.0;
  double last_update_s = 0.0;
  /// Consecutive updates without an associated detection.
  int misses = 0;
  /// Total associated detections.
  int hits = 0;

  friend bool operator==(const Track&, const Track&) = default;
  static auto fields(auto& m, auto&& v) {
    return v(m.id, m.x, m.y, m.vx, m.vy, m.last_update_s, m.misses, m.hits);
  }
};

/// Scenario generator: targets moving on straight lines plus clutter.
struct ScenarioParams {
  std::size_t num_targets = 4;
  std::size_t clutter_per_scan = 8;
  double field_km = 100.0;        // square field edge length
  double max_speed_km_s = 0.3;
  double target_intensity = 10.0;
  double clutter_intensity_max = 4.0;
  double noise_sigma_km = 0.1;    // measurement noise
};

/// Generates `num_scans` scans of sensor reports at `dt_s` spacing.
/// Target returns carry high intensity; clutter is uniform low-intensity
/// noise.  Deterministic for a given rng seed.
[[nodiscard]] std::vector<std::vector<SensorReport>> generate_scenario(
    const ScenarioParams& params, std::size_t num_scans, double dt_s,
    common::Rng& rng);

/// Detection: keeps reports with intensity above `threshold`.
[[nodiscard]] std::vector<Detection> detect(
    const std::vector<SensorReport>& reports, double threshold);

/// Association result: detection index per track (or none), plus the
/// indices of unassociated detections (track initiators).
struct Association {
  std::vector<std::optional<std::size_t>> track_to_detection;
  std::vector<std::size_t> unassociated;
};

/// Greedy nearest-neighbour gating: each track grabs the closest
/// unclaimed detection within `gate_km` (predicted position at the
/// detection time).  Deterministic: tracks claim in id order.
[[nodiscard]] Association associate(const std::vector<Track>& tracks,
                                    const std::vector<Detection>& detections,
                                    double gate_km);

/// Alpha-beta filter parameters.
struct FilterParams {
  double alpha = 0.5;
  double beta = 0.2;
  /// Tracks are dropped after this many consecutive misses.
  int max_misses = 3;
  /// Association gate radius, km.
  double gate_km = 2.0;
};

/// One tracker step: predict tracks to `scan_time_s`, associate, update
/// hits with the alpha-beta filter, coast misses, initiate tracks from
/// unassociated detections, drop stale tracks.  Returns the new track
/// list; `next_track_id` is advanced for initiations.
[[nodiscard]] std::vector<Track> track_update(
    const std::vector<Track>& tracks, const std::vector<Detection>& detections,
    double scan_time_s, const FilterParams& params,
    std::uint32_t& next_track_id);

/// A ranked threat: closer and faster towards the defended point is
/// worse.
struct Threat {
  std::uint32_t track_id = 0;
  double score = 0.0;

  friend bool operator==(const Threat&, const Threat&) = default;
  static auto fields(auto& m, auto&& v) { return v(m.track_id, m.score); }
};

/// Ranks tracks by threat against a defended point: score combines
/// inverse distance and closing speed.  Highest score first; ties broken
/// by track id.
[[nodiscard]] std::vector<Threat> rank_threats(
    const std::vector<Track>& tracks, double defended_x, double defended_y);

/// Multi-sensor fusion: merges two scan streams scan-by-scan, combining
/// reports within `merge_radius_km` of each other into one averaged
/// report (intensities add — two sensors seeing the same target
/// reinforce it).  The streams must have equal scan counts.
[[nodiscard]] std::vector<std::vector<SensorReport>> fuse_scans(
    const std::vector<std::vector<SensorReport>>& a,
    const std::vector<std::vector<SensorReport>>& b,
    double merge_radius_km = 0.5);

}  // namespace vdce::tasklib
