// Typed payloads carried over Data Manager channels.
//
// Every value exchanged between tasks is encoded into the portable wire
// format (common/serialize.hpp) at the producing task and decoded at the
// consumer — the paper's "data conversions that might be needed when an
// application execution environment includes heterogeneous machines".
// Payloads are tagged so a consumer detects a mis-wired graph instead of
// misinterpreting bytes.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "tasklib/c3i.hpp"
#include "tasklib/fft.hpp"
#include "tasklib/matrix.hpp"

namespace vdce::tasklib {

enum class PayloadType : std::uint8_t {
  kScalar = 1,
  kVector,
  kMatrix,
  kLuFactors,
  kComplexVector,
  kReportScans,     // std::vector<std::vector<SensorReport>>
  kDetectionScans,  // std::vector<std::vector<Detection>>
  kTracks,
  kThreats,
  kText,
};

[[nodiscard]] std::string to_string(PayloadType t);

/// An immutable, typed, wire-encoded value.
class Payload {
 public:
  Payload() = default;

  [[nodiscard]] PayloadType type() const { return type_; }
  [[nodiscard]] const std::vector<std::byte>& bytes() const { return bytes_; }
  /// Encoded size in bytes (what travels over a channel).
  [[nodiscard]] std::size_t size_bytes() const { return bytes_.size(); }
  /// Encoded size in MB, as used by transfer-time models.
  [[nodiscard]] double size_mb() const {
    return static_cast<double>(bytes_.size()) / (1024.0 * 1024.0);
  }

  // -- constructors ------------------------------------------------------
  [[nodiscard]] static Payload of_scalar(double v);
  [[nodiscard]] static Payload of_vector(const std::vector<double>& v);
  [[nodiscard]] static Payload of_matrix(const Matrix& m);
  [[nodiscard]] static Payload of_lu(const LuFactors& f);
  [[nodiscard]] static Payload of_complex_vector(
      const std::vector<Complex>& v);
  [[nodiscard]] static Payload of_report_scans(
      const std::vector<std::vector<SensorReport>>& scans);
  [[nodiscard]] static Payload of_detection_scans(
      const std::vector<std::vector<Detection>>& scans);
  [[nodiscard]] static Payload of_tracks(const std::vector<Track>& tracks);
  [[nodiscard]] static Payload of_threats(const std::vector<Threat>& threats);
  [[nodiscard]] static Payload of_text(const std::string& text);

  /// Reconstructs a payload from raw channel bytes (type tag included),
  /// copying the body once.  Throws ParseError on malformed input.
  [[nodiscard]] static Payload from_wire(std::span<const std::byte> wire);

  /// The full wire image (type tag + body) to put on a channel.
  [[nodiscard]] std::vector<std::byte> to_wire() const;

  /// Size of the full wire image in bytes (1 tag byte + body).
  [[nodiscard]] std::size_t wire_size() const { return bytes_.size() + 1; }

  /// Serializes the full wire image into a caller-provided buffer of
  /// exactly wire_size() bytes — the allocation-free variant of
  /// to_wire() used to fill pooled frames.  Throws StateError on a
  /// size mismatch.
  void write_wire(std::span<std::byte> out) const;

  // -- accessors (throw StateError on a type mismatch) -------------------
  [[nodiscard]] double as_scalar() const;
  [[nodiscard]] std::vector<double> as_vector() const;
  [[nodiscard]] Matrix as_matrix() const;
  [[nodiscard]] LuFactors as_lu() const;
  [[nodiscard]] std::vector<Complex> as_complex_vector() const;
  [[nodiscard]] std::vector<std::vector<SensorReport>> as_report_scans() const;
  [[nodiscard]] std::vector<std::vector<Detection>> as_detection_scans() const;
  [[nodiscard]] std::vector<Track> as_tracks() const;
  [[nodiscard]] std::vector<Threat> as_threats() const;
  [[nodiscard]] std::string as_text() const;

 private:
  Payload(PayloadType type, std::vector<std::byte> bytes)
      : type_(type), bytes_(std::move(bytes)) {}

  void require(PayloadType t) const;

  PayloadType type_ = PayloadType::kScalar;
  std::vector<std::byte> bytes_;
};

}  // namespace vdce::tasklib
