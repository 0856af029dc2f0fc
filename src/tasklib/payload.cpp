#include "tasklib/payload.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace vdce::tasklib {

using common::ParseError;
using common::SpanWriter;
using common::StateError;
using common::WireReader;
using common::WireWriter;

std::string to_string(PayloadType t) {
  switch (t) {
    case PayloadType::kScalar:         return "scalar";
    case PayloadType::kVector:         return "vector";
    case PayloadType::kMatrix:         return "matrix";
    case PayloadType::kLuFactors:      return "lu_factors";
    case PayloadType::kComplexVector:  return "complex_vector";
    case PayloadType::kReportScans:    return "report_scans";
    case PayloadType::kDetectionScans: return "detection_scans";
    case PayloadType::kTracks:         return "tracks";
    case PayloadType::kThreats:        return "threats";
    case PayloadType::kText:           return "text";
  }
  return "unknown";
}

namespace {

// std::complex<double> is layout-compatible with double[2], so a complex
// vector is a run of 2n doubles: re0, im0, re1, im1, ...
std::span<const double> as_doubles(const std::vector<Complex>& v) {
  return {reinterpret_cast<const double*>(v.data()), v.size() * 2};
}
std::span<double> as_doubles(std::vector<Complex>& v) {
  return {reinterpret_cast<double*>(v.data()), v.size() * 2};
}

// Throws ParseError unless `cells` doubles are left to read, before a
// matrix of that many cells is allocated.
void require_cells(const WireReader& r, std::size_t cells) {
  if (cells > r.remaining() / 8) {
    throw ParseError("matrix payload shorter than its dimensions");
  }
}

// A pooled frame for a payload of `body` bytes with its tag byte
// written, and a writer positioned after the tag.
struct TaggedFrame {
  TaggedFrame(PayloadType type, std::size_t body)
      : frame(dm::FramePool::global().allocate(body + 1)),
        writer(frame.span()) {
    writer.write_u8(static_cast<std::uint8_t>(type));
  }
  dm::Frame frame;
  SpanWriter writer;
};

// A WireWriter whose first byte is the tag: its bytes are a whole wire
// image, copied into a pooled frame once.
WireWriter tagged_writer(PayloadType type) {
  WireWriter w;
  w.write_u8(static_cast<std::uint8_t>(type));
  return w;
}

// The tag of a wire image; throws ParseError when there is none.
PayloadType tag_of(std::span<const std::byte> wire) {
  if (wire.empty()) throw ParseError("empty payload wire image");
  const auto tag = static_cast<std::uint8_t>(wire.front());
  if (tag < static_cast<std::uint8_t>(PayloadType::kScalar) ||
      tag > static_cast<std::uint8_t>(PayloadType::kText)) {
    throw ParseError("unknown payload type tag");
  }
  return static_cast<PayloadType>(tag);
}

}  // namespace

void Payload::require(PayloadType t) const {
  if (type_ != t) {
    throw StateError("payload type mismatch: have " + to_string(type_) +
                     ", want " + to_string(t));
  }
}

const dm::FrameView& Payload::empty_wire() {
  // Leaked: payloads may outlive static destruction on detached threads.
  static const dm::FrameView* const empty = [] {
    const std::byte tag{static_cast<std::uint8_t>(PayloadType::kScalar)};
    return new dm::FrameView(dm::FramePool::global().copy_of({&tag, 1}));
  }();
  return *empty;
}

Payload Payload::of_scalar(double v) {
  TaggedFrame t(PayloadType::kScalar, 8);
  t.writer.write_f64s({&v, 1});
  return Payload(PayloadType::kScalar, t.frame.view());
}

Payload Payload::of_vector(std::span<const double> v) {
  TaggedFrame t(PayloadType::kVector, 4 + v.size() * 8);
  t.writer.write_u32(static_cast<std::uint32_t>(v.size()));
  t.writer.write_f64s(v);
  return Payload(PayloadType::kVector, t.frame.view());
}

Payload Payload::of_matrix(const Matrix& m) {
  TaggedFrame t(PayloadType::kMatrix, 8 + m.data().size() * 8);
  t.writer.write_u32(static_cast<std::uint32_t>(m.rows()));
  t.writer.write_u32(static_cast<std::uint32_t>(m.cols()));
  t.writer.write_f64s(m.data());
  return Payload(PayloadType::kMatrix, t.frame.view());
}

Payload Payload::of_lu(const LuFactors& f) {
  TaggedFrame t(PayloadType::kLuFactors,
                4 + f.lu.data().size() * 8 + f.perm.size() * 4 + 1);
  t.writer.write_u32(static_cast<std::uint32_t>(f.lu.rows()));
  t.writer.write_f64s(f.lu.data());
  for (std::size_t p : f.perm) {
    t.writer.write_u32(static_cast<std::uint32_t>(p));
  }
  t.writer.write_u8(f.perm_sign > 0 ? 1 : 0);
  return Payload(PayloadType::kLuFactors, t.frame.view());
}

Payload Payload::of_complex_vector(const std::vector<Complex>& v) {
  TaggedFrame t(PayloadType::kComplexVector, 4 + v.size() * 16);
  t.writer.write_u32(static_cast<std::uint32_t>(v.size()));
  t.writer.write_f64s(as_doubles(v));
  return Payload(PayloadType::kComplexVector, t.frame.view());
}

Payload Payload::of_report_scans(
    const std::vector<std::vector<SensorReport>>& scans) {
  WireWriter w = tagged_writer(PayloadType::kReportScans);
  common::write(w, scans);
  return from_wire(w.bytes());
}

Payload Payload::of_detection_scans(
    const std::vector<std::vector<Detection>>& scans) {
  WireWriter w = tagged_writer(PayloadType::kDetectionScans);
  common::write(w, scans);
  return from_wire(w.bytes());
}

Payload Payload::of_tracks(const std::vector<Track>& tracks) {
  WireWriter w = tagged_writer(PayloadType::kTracks);
  common::write(w, tracks);
  return from_wire(w.bytes());
}

Payload Payload::of_threats(const std::vector<Threat>& threats) {
  WireWriter w = tagged_writer(PayloadType::kThreats);
  common::write(w, threats);
  return from_wire(w.bytes());
}

Payload Payload::of_text(const std::string& text) {
  WireWriter w = tagged_writer(PayloadType::kText);
  w.write_string(text);
  return from_wire(w.bytes());
}

Payload Payload::from_wire(dm::FrameView wire) {
  const PayloadType type = tag_of(wire.bytes());
  return Payload(type, std::move(wire));
}

Payload Payload::from_wire(std::span<const std::byte> wire) {
  const PayloadType type = tag_of(wire);
  return Payload(type, dm::FramePool::global().copy_of(wire));
}

double Payload::as_scalar() const {
  require(PayloadType::kScalar);
  WireReader r(bytes());
  return r.read_f64();
}

std::vector<double> Payload::as_vector() const {
  std::vector<double> out;
  vector_into(out);
  return out;
}

void Payload::vector_into(std::vector<double>& out) const {
  require(PayloadType::kVector);
  WireReader r(bytes());
  out.resize(r.read_count(8));
  r.read_f64s(out);
}

Matrix Payload::as_matrix() const {
  require(PayloadType::kMatrix);
  WireReader r(bytes());
  const std::uint32_t rows = r.read_u32();
  const std::uint32_t cols = r.read_u32();
  require_cells(r, std::size_t{rows} * cols);
  Matrix m(rows, cols);
  r.read_f64s(m.data());
  return m;
}

LuFactors Payload::as_lu() const {
  require(PayloadType::kLuFactors);
  WireReader r(bytes());
  const std::uint32_t n = r.read_u32();
  require_cells(r, std::size_t{n} * n);
  LuFactors f;
  f.lu = Matrix(n, n);
  r.read_f64s(f.lu.data());
  f.perm.resize(n);
  for (auto& p : f.perm) p = r.read_u32();
  f.perm_sign = r.read_u8() != 0 ? 1 : -1;
  return f;
}

std::vector<Complex> Payload::as_complex_vector() const {
  require(PayloadType::kComplexVector);
  WireReader r(bytes());
  std::vector<Complex> out(r.read_count(16));
  r.read_f64s(as_doubles(out));
  return out;
}

std::vector<std::vector<SensorReport>> Payload::as_report_scans() const {
  require(PayloadType::kReportScans);
  WireReader r(bytes());
  return common::read<std::vector<std::vector<SensorReport>>>(r);
}

std::vector<std::vector<Detection>> Payload::as_detection_scans() const {
  require(PayloadType::kDetectionScans);
  WireReader r(bytes());
  return common::read<std::vector<std::vector<Detection>>>(r);
}

std::vector<Track> Payload::as_tracks() const {
  require(PayloadType::kTracks);
  WireReader r(bytes());
  return common::read<std::vector<Track>>(r);
}

std::vector<Threat> Payload::as_threats() const {
  require(PayloadType::kThreats);
  WireReader r(bytes());
  return common::read<std::vector<Threat>>(r);
}

std::string Payload::as_text() const {
  require(PayloadType::kText);
  WireReader r(bytes());
  return r.read_string();
}

}  // namespace vdce::tasklib
