#include "tasklib/payload.hpp"

#include "common/error.hpp"
#include "common/serialize.hpp"

namespace vdce::tasklib {

using common::ParseError;
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

}  // namespace

void Payload::require(PayloadType t) const {
  if (type_ != t) {
    throw StateError("payload type mismatch: have " + to_string(type_) +
                     ", want " + to_string(t));
  }
}

Payload Payload::of_scalar(double v) {
  WireWriter w;
  w.write_f64(v);
  return Payload(PayloadType::kScalar, w.take());
}

Payload Payload::of_vector(const std::vector<double>& v) {
  WireWriter w;
  w.write_f64_vector(v);
  return Payload(PayloadType::kVector, w.take());
}

Payload Payload::of_matrix(const Matrix& m) {
  WireWriter w;
  w.reserve(8 + m.data().size() * 8);
  w.write_u32(static_cast<std::uint32_t>(m.rows()));
  w.write_u32(static_cast<std::uint32_t>(m.cols()));
  w.write_f64s(m.data());
  return Payload(PayloadType::kMatrix, w.take());
}

Payload Payload::of_lu(const LuFactors& f) {
  WireWriter w;
  w.reserve(4 + f.lu.data().size() * 8 + f.perm.size() * 4 + 1);
  w.write_u32(static_cast<std::uint32_t>(f.lu.rows()));
  w.write_f64s(f.lu.data());
  for (std::size_t p : f.perm) w.write_u32(static_cast<std::uint32_t>(p));
  w.write_u8(f.perm_sign > 0 ? 1 : 0);
  return Payload(PayloadType::kLuFactors, w.take());
}

Payload Payload::of_complex_vector(const std::vector<Complex>& v) {
  WireWriter w;
  w.reserve(4 + v.size() * 16);
  w.write_u32(static_cast<std::uint32_t>(v.size()));
  w.write_f64s(as_doubles(v));
  return Payload(PayloadType::kComplexVector, w.take());
}

Payload Payload::of_report_scans(
    const std::vector<std::vector<SensorReport>>& scans) {
  WireWriter w;
  common::write(w, scans);
  return Payload(PayloadType::kReportScans, w.take());
}

Payload Payload::of_detection_scans(
    const std::vector<std::vector<Detection>>& scans) {
  WireWriter w;
  common::write(w, scans);
  return Payload(PayloadType::kDetectionScans, w.take());
}

Payload Payload::of_tracks(const std::vector<Track>& tracks) {
  WireWriter w;
  common::write(w, tracks);
  return Payload(PayloadType::kTracks, w.take());
}

Payload Payload::of_threats(const std::vector<Threat>& threats) {
  WireWriter w;
  common::write(w, threats);
  return Payload(PayloadType::kThreats, w.take());
}

Payload Payload::of_text(const std::string& text) {
  WireWriter w;
  w.write_string(text);
  return Payload(PayloadType::kText, w.take());
}

std::vector<std::byte> Payload::to_wire() const {
  std::vector<std::byte> out;
  out.reserve(bytes_.size() + 1);
  out.push_back(std::byte{static_cast<std::uint8_t>(type_)});
  out.insert(out.end(), bytes_.begin(), bytes_.end());
  return out;
}

void Payload::write_wire(std::span<std::byte> out) const {
  if (out.size() != wire_size()) {
    throw StateError("write_wire buffer size mismatch");
  }
  out[0] = std::byte{static_cast<std::uint8_t>(type_)};
  if (!bytes_.empty()) {
    std::memcpy(out.data() + 1, bytes_.data(), bytes_.size());
  }
}

Payload Payload::from_wire(std::span<const std::byte> wire) {
  if (wire.empty()) throw ParseError("empty payload wire image");
  const auto tag = static_cast<std::uint8_t>(wire.front());
  if (tag < static_cast<std::uint8_t>(PayloadType::kScalar) ||
      tag > static_cast<std::uint8_t>(PayloadType::kText)) {
    throw ParseError("unknown payload type tag");
  }
  const auto body = wire.subspan(1);
  return Payload(static_cast<PayloadType>(tag),
                 std::vector<std::byte>(body.begin(), body.end()));
}

double Payload::as_scalar() const {
  require(PayloadType::kScalar);
  WireReader r(bytes_);
  return r.read_f64();
}

std::vector<double> Payload::as_vector() const {
  require(PayloadType::kVector);
  WireReader r(bytes_);
  return r.read_f64_vector();
}

Matrix Payload::as_matrix() const {
  require(PayloadType::kMatrix);
  WireReader r(bytes_);
  const std::uint32_t rows = r.read_u32();
  const std::uint32_t cols = r.read_u32();
  require_cells(r, std::size_t{rows} * cols);
  Matrix m(rows, cols);
  r.read_f64s(m.data());
  return m;
}

LuFactors Payload::as_lu() const {
  require(PayloadType::kLuFactors);
  WireReader r(bytes_);
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
  WireReader r(bytes_);
  std::vector<Complex> out(r.read_count(16));
  r.read_f64s(as_doubles(out));
  return out;
}

std::vector<std::vector<SensorReport>> Payload::as_report_scans() const {
  require(PayloadType::kReportScans);
  WireReader r(bytes_);
  return common::read<std::vector<std::vector<SensorReport>>>(r);
}

std::vector<std::vector<Detection>> Payload::as_detection_scans() const {
  require(PayloadType::kDetectionScans);
  WireReader r(bytes_);
  return common::read<std::vector<std::vector<Detection>>>(r);
}

std::vector<Track> Payload::as_tracks() const {
  require(PayloadType::kTracks);
  WireReader r(bytes_);
  return common::read<std::vector<Track>>(r);
}

std::vector<Threat> Payload::as_threats() const {
  require(PayloadType::kThreats);
  WireReader r(bytes_);
  return common::read<std::vector<Threat>>(r);
}

std::string Payload::as_text() const {
  require(PayloadType::kText);
  WireReader r(bytes_);
  return r.read_string();
}

}  // namespace vdce::tasklib
