#include "common/serialize.hpp"

#include <bit>

namespace vdce::common {

namespace {

// Stores `v`'s bytes most-significant first.
template <typename T>
void store_be(std::byte* p, T v) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    p[i] = std::byte{
        static_cast<std::uint8_t>(v >> ((sizeof(T) - 1 - i) * 8))};
  }
}

// Loads a big-endian `T`.
template <typename T>
T load_be(const std::byte* p) {
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v = static_cast<T>((v << 8) | static_cast<std::uint8_t>(p[i]));
  }
  return v;
}

// Stores each double's big-endian bit pattern, back to back.
void store_f64s(std::byte* p, std::span<const double> values) {
  for (const double v : values) {
    store_be(p, std::bit_cast<std::uint64_t>(v));
    p += 8;
  }
}

// Appends `v`'s bytes most-significant first.
template <typename T>
void put_be(std::vector<std::byte>& buf, T v) {
  for (int shift = (sizeof(T) - 1) * 8; shift >= 0; shift -= 8) {
    buf.push_back(std::byte{static_cast<std::uint8_t>(v >> shift)});
  }
}

}  // namespace

void WireWriter::write_u16(std::uint16_t v) { put_be(buf_, v); }
void WireWriter::write_u32(std::uint32_t v) { put_be(buf_, v); }
void WireWriter::write_u64(std::uint64_t v) { put_be(buf_, v); }

void WireWriter::write_f64(double v) {
  write_u64(std::bit_cast<std::uint64_t>(v));
}

void WireWriter::write_string(std::string_view s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  buf_.insert(buf_.end(), p, p + s.size());
}

void WireWriter::write_bytes(std::span<const std::byte> bytes) {
  write_u32(static_cast<std::uint32_t>(bytes.size()));
  buf_.insert(buf_.end(), bytes.begin(), bytes.end());
}

void WireWriter::write_f64_vector(std::span<const double> values) {
  reserve(4 + values.size() * 8);
  write_u32(static_cast<std::uint32_t>(values.size()));
  write_f64s(values);
}

void WireWriter::write_f64s(std::span<const double> values) {
  const std::size_t at = buf_.size();
  buf_.resize(at + values.size() * 8);
  store_f64s(buf_.data() + at, values);
}

std::byte* SpanWriter::claim(std::size_t n) {
  if (n > out_.size() - pos_) {
    throw StateError("SpanWriter: write past the end of the buffer");
  }
  std::byte* p = out_.data() + pos_;
  pos_ += n;
  return p;
}

void SpanWriter::write_u8(std::uint8_t v) { *claim(1) = std::byte{v}; }

void SpanWriter::write_u32(std::uint32_t v) { store_be(claim(4), v); }

void SpanWriter::write_f64s(std::span<const double> values) {
  store_f64s(claim(values.size() * 8), values);
}

std::uint8_t WireReader::read_u8() {
  need(1);
  return static_cast<std::uint8_t>(data_[pos_++]);
}

std::uint16_t WireReader::read_u16() {
  need(2);
  const auto v = load_be<std::uint16_t>(data_.data() + pos_);
  pos_ += 2;
  return v;
}

std::uint32_t WireReader::read_u32() {
  need(4);
  const auto v = load_be<std::uint32_t>(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t WireReader::read_u64() {
  need(8);
  const auto v = load_be<std::uint64_t>(data_.data() + pos_);
  pos_ += 8;
  return v;
}

double WireReader::read_f64() { return std::bit_cast<double>(read_u64()); }

std::string WireReader::read_string() {
  const std::uint32_t n = read_u32();
  need(n);
  std::string s(reinterpret_cast<const char*>(data_.data() + pos_), n);
  pos_ += n;
  return s;
}

std::vector<std::byte> WireReader::read_bytes() {
  const std::uint32_t n = read_u32();
  need(n);
  std::vector<std::byte> out(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
                             data_.begin() +
                                 static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

std::vector<double> WireReader::read_f64_vector() {
  std::vector<double> out(read_count(8));
  read_f64s(out);
  return out;
}

void WireReader::read_f64s(std::span<double> out) {
  need(out.size() * 8);
  const std::byte* p = data_.data() + pos_;
  for (double& v : out) {
    v = std::bit_cast<double>(load_be<std::uint64_t>(p));
    p += 8;
  }
  pos_ += out.size() * 8;
}

std::uint32_t WireReader::read_count(std::size_t min_elem_bytes) {
  const std::uint32_t n = read_u32();
  if (min_elem_bytes != 0 && n > remaining() / min_elem_bytes) {
    throw ParseError("wire element count exceeds the bytes left");
  }
  return n;
}

}  // namespace vdce::common
