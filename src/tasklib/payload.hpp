// Typed payloads carried over Data Manager channels.
//
// Every value exchanged between tasks is encoded into the portable wire
// format (common/serialize.hpp) at the producing task and decoded at the
// consumer — the paper's "data conversions that might be needed when an
// application execution environment includes heterogeneous machines".
// Payloads are tagged so a consumer detects a mis-wired graph instead of
// misinterpreting bytes.
//
// A Payload is its wire image in a pooled frame: the producing task
// encodes into the frame once, and channels, stream rings and the
// checkpoint store share that frame by refcount (DESIGN.md D13).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "datamgr/frame.hpp"
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

/// An immutable, typed, wire-encoded value: its full wire image (type
/// tag + body) in one pooled frame (DESIGN.md D13).  Copies share the
/// frame by refcount; no copy of a payload moves its bytes.
class Payload {
 public:
  Payload() = default;

  [[nodiscard]] PayloadType type() const { return type_; }
  /// The encoded body (the wire image without its tag byte).
  [[nodiscard]] std::span<const std::byte> bytes() const {
    return wire().bytes().subspan(1);
  }
  /// Encoded size in bytes (what travels over a channel).
  [[nodiscard]] std::size_t size_bytes() const { return wire_size() - 1; }
  /// Encoded size in MB, as used by transfer-time models.
  [[nodiscard]] double size_mb() const {
    return static_cast<double>(size_bytes()) / (1024.0 * 1024.0);
  }

  // -- constructors ------------------------------------------------------
  // The bulk ones (scalar, vector, matrix, LU, complex vector) encode
  // straight into one pooled frame; the record ones encode through a
  // WireWriter and copy its bytes into a frame once.
  [[nodiscard]] static Payload of_scalar(double v);
  [[nodiscard]] static Payload of_vector(std::span<const double> v);
  [[nodiscard]] static Payload of_vector(const std::vector<double>& v) {
    return of_vector(std::span<const double>(v));
  }
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

  /// Borrows a pooled wire image (type tag included): checks the tag and
  /// keeps the frame, copying nothing.  Throws ParseError on an empty or
  /// invalid view and on an unknown tag.
  [[nodiscard]] static Payload from_wire(dm::FrameView wire);
  /// Reconstructs a payload from raw channel bytes (type tag included),
  /// copying them into a pooled frame.  Throws ParseError as above.
  [[nodiscard]] static Payload from_wire(std::span<const std::byte> wire);

  /// The full wire image (type tag + body) to put on a channel: the
  /// payload's own frame, shared by refcount when copied.
  [[nodiscard]] const dm::FrameView& wire() const {
    return wire_.valid() ? wire_ : empty_wire();
  }

  /// A copy of the full wire image.
  [[nodiscard]] std::vector<std::byte> to_wire() const {
    return wire().to_vector();
  }

  /// Size of the full wire image in bytes (1 tag byte + body).
  [[nodiscard]] std::size_t wire_size() const { return wire().size(); }

  // -- accessors (throw StateError on a type mismatch) -------------------
  [[nodiscard]] double as_scalar() const;
  [[nodiscard]] std::vector<double> as_vector() const;
  /// as_vector() into `out`, reusing its capacity: no allocation once
  /// `out` has held a vector this long.
  void vector_into(std::vector<double>& out) const;
  [[nodiscard]] Matrix as_matrix() const;
  [[nodiscard]] LuFactors as_lu() const;
  [[nodiscard]] std::vector<Complex> as_complex_vector() const;
  [[nodiscard]] std::vector<std::vector<SensorReport>> as_report_scans() const;
  [[nodiscard]] std::vector<std::vector<Detection>> as_detection_scans() const;
  [[nodiscard]] std::vector<Track> as_tracks() const;
  [[nodiscard]] std::vector<Threat> as_threats() const;
  [[nodiscard]] std::string as_text() const;

 private:
  Payload(PayloadType type, dm::FrameView wire)
      : type_(type), wire_(std::move(wire)) {}

  void require(PayloadType t) const;
  [[nodiscard]] static const dm::FrameView& empty_wire();

  PayloadType type_ = PayloadType::kScalar;
  // Invalid only in a default-constructed payload, whose wire() is a
  // shared one-byte image: an empty scalar.
  dm::FrameView wire_;
};

}  // namespace vdce::tasklib
