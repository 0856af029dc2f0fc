// Portable wire format for inter-task and control messages.
//
// The paper's Data Manager "provides data conversions that might be
// needed when an application execution environment includes heterogeneous
// machines".  We implement that as an explicit network byte order
// (big-endian) wire format: every value is converted on write and read
// regardless of host endianness, so a message produced on any machine is
// readable on any other.
//
// On top of the two byte-level classes sits one field codec: a struct
// declares its fields once, in wire order, and `write`/`read` derive
// both directions from that list (see "field codec" below).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/ids.hpp"

namespace vdce::common {

/// Append-only encoder producing big-endian bytes.
class WireWriter {
 public:
  void write_u8(std::uint8_t v) { buf_.push_back(std::byte{v}); }
  void write_u16(std::uint16_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i64(std::int64_t v) { write_u64(static_cast<std::uint64_t>(v)); }
  /// IEEE-754 double carried as its big-endian bit pattern.
  void write_f64(double v);
  /// Length-prefixed (u32) byte string.
  void write_string(std::string_view s);
  /// Length-prefixed (u32) raw bytes.
  void write_bytes(std::span<const std::byte> bytes);
  /// Length-prefixed (u32) vector of doubles.
  void write_f64_vector(std::span<const double> values);
  /// A run of doubles with no length prefix (the reader knows the count).
  void write_f64s(std::span<const double> values);
  /// Makes room for `extra` more bytes, so that an encoder which knows
  /// its size up front fills one buffer without reallocating.
  void reserve(std::size_t extra) { buf_.reserve(buf_.size() + extra); }

  [[nodiscard]] const std::vector<std::byte>& bytes() const { return buf_; }
  [[nodiscard]] std::vector<std::byte> take() { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  std::vector<std::byte> buf_;
};

/// Encoder into a caller-sized buffer: the same bytes as WireWriter's
/// calls of the same names, with no allocation, for encoders that know
/// their size up front (bulk payloads written straight into a pooled
/// frame).  Throws StateError on a write past the buffer's end.
class SpanWriter {
 public:
  explicit SpanWriter(std::span<std::byte> out) : out_(out) {}

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  /// A run of doubles with no length prefix.
  void write_f64s(std::span<const double> values);

  /// Bytes written so far.
  [[nodiscard]] std::size_t size() const { return pos_; }

 private:
  [[nodiscard]] std::byte* claim(std::size_t n);

  std::span<std::byte> out_;
  std::size_t pos_ = 0;
};

/// Decoder over a byte span; throws ParseError on truncated input.
class WireReader {
 public:
  explicit WireReader(std::span<const std::byte> data) : data_(data) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint16_t read_u16();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] std::int64_t read_i64() {
    return static_cast<std::int64_t>(read_u64());
  }
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();
  [[nodiscard]] std::vector<std::byte> read_bytes();
  [[nodiscard]] std::vector<double> read_f64_vector();
  /// Fills `out` from a run of doubles with no length prefix.
  void read_f64s(std::span<double> out);
  /// Reads a u32 element count and bounds it by the bytes left: throws
  /// ParseError when `count * min_elem_bytes` exceeds remaining(), so a
  /// garbage count can never size an allocation.
  [[nodiscard]] std::uint32_t read_count(std::size_t min_elem_bytes);

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] bool done() const { return remaining() == 0; }

 private:
  void need(std::size_t n) const {
    if (remaining() < n) throw ParseError("wire message truncated");
  }

  std::span<const std::byte> data_;
  std::size_t pos_ = 0;
};

// -- field codec ------------------------------------------------------------
//
// A wire struct lists its fields once, in wire order:
//
//     static auto fields(auto& m, auto&& v) { return v(m.host, m.when); }
//
// and write()/read() walk that list.  Each field type has one encoding:
//
//   bool                        u8, decoded as != 0
//   8/16/32/64-bit integer      big-endian of the same width (int is u32)
//   double                      f64
//   std::string                 u32 length + bytes
//   Id<Tag>                     u32
//   enum                        its unsigned underlying integer; decoding
//                               throws ParseError above enum_max(E{}),
//                               which the enum declares next to itself
//   std::pair<A, B>             A, then B
//   std::vector<T>              u32 count + elements
//   std::unordered_map<K, V>    u32 count + (K, V) entries sorted by key,
//                               so the bytes never depend on hash order
//   a struct with fields()      its fields, in order
//
// Every count goes through WireReader::read_count with the smallest
// encoding of one element, min_wire_size<T>(), derived from the same
// lists -- so no count can size an allocation past the bytes left.
// A struct evolves by appending fields at the end of fields(): readers
// ignore trailing bytes, so an old reader accepts a newer writer's
// frames.

template <typename... T>
struct TypeList {
  static constexpr std::size_t size = sizeof...(T);
};

/// Position of `T` in `list`, or list.size when absent.
template <typename T, typename... Ts>
constexpr std::size_t index_of(TypeList<Ts...> /*list*/) {
  constexpr std::array<bool, sizeof...(Ts)> hits = {std::is_same_v<T, Ts>...};
  return static_cast<std::size_t>(std::find(hits.begin(), hits.end(), true) -
                                  hits.begin());
}

namespace detail {

template <typename T>
inline constexpr bool kIsId = false;
template <typename Tag>
inline constexpr bool kIsId<Id<Tag>> = true;

template <typename T>
inline constexpr bool kIsPair = false;
template <typename A, typename B>
inline constexpr bool kIsPair<std::pair<A, B>> = true;

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T, typename A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

template <typename T>
inline constexpr bool kIsMap = false;
template <typename K, typename V, typename H, typename E, typename A>
inline constexpr bool kIsMap<std::unordered_map<K, V, H, E, A>> = true;

/// A fields() visitor that only reports the field types.
struct FieldTypes {
  template <typename... F>
  constexpr TypeList<std::remove_cv_t<F>...> operator()(F&... /*f*/) const {
    return {};
  }
};

}  // namespace detail

/// The fewest bytes one `T` can take on the wire.
template <typename T>
constexpr std::size_t min_wire_size() {
  if constexpr (std::is_arithmetic_v<T> || std::is_enum_v<T>) {
    return sizeof(T);
  } else if constexpr (detail::kIsId<T>) {
    return 4;
  } else if constexpr (detail::kIsPair<T>) {
    return min_wire_size<typename T::first_type>() +
           min_wire_size<typename T::second_type>();
  } else if constexpr (std::is_same_v<T, std::string> ||
                       detail::kIsVector<T> || detail::kIsMap<T>) {
    return 4;  // the count of an empty one
  } else {
    using Fields =
        decltype(T::fields(std::declval<T&>(), detail::FieldTypes{}));
    return []<typename... F>(TypeList<F...>) {
      return (min_wire_size<F>() + ... + std::size_t{0});
    }(Fields{});
  }
}

template <typename T>
void write(WireWriter& w, const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    w.write_u8(v ? 1 : 0);
  } else if constexpr (std::is_enum_v<T>) {
    write(w, static_cast<std::underlying_type_t<T>>(v));
  } else if constexpr (std::is_integral_v<T>) {
    const auto u = static_cast<std::make_unsigned_t<T>>(v);
    if constexpr (sizeof(T) == 1) {
      w.write_u8(u);
    } else if constexpr (sizeof(T) == 2) {
      w.write_u16(u);
    } else if constexpr (sizeof(T) == 4) {
      w.write_u32(u);
    } else {
      w.write_u64(u);
    }
  } else if constexpr (std::is_same_v<T, double>) {
    w.write_f64(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    w.write_string(v);
  } else if constexpr (detail::kIsId<T>) {
    w.write_u32(v.value());
  } else if constexpr (detail::kIsPair<T>) {
    write(w, v.first);
    write(w, v.second);
  } else if constexpr (detail::kIsVector<T>) {
    w.write_u32(static_cast<std::uint32_t>(v.size()));
    for (const auto& e : v) write(w, e);
  } else if constexpr (detail::kIsMap<T>) {
    std::vector<const typename T::value_type*> entries;
    entries.reserve(v.size());
    for (const auto& e : v) entries.push_back(&e);
    std::sort(entries.begin(), entries.end(),
              [](const auto* a, const auto* b) {
                return a->first < b->first;
              });
    w.write_u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto* e : entries) write(w, *e);
  } else {
    T::fields(v, [&w](const auto&... f) { (write(w, f), ...); });
  }
}

template <typename T>
void read(WireReader& r, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    out = r.read_u8() != 0;
  } else if constexpr (std::is_enum_v<T>) {
    using U = std::underlying_type_t<T>;
    static_assert(std::is_unsigned_v<U>, "wire enums are unsigned");
    U raw = 0;
    read(r, raw);
    if (raw > static_cast<U>(enum_max(T{}))) {
      throw ParseError("wire enum value " + std::to_string(raw) +
                       " out of range");
    }
    out = static_cast<T>(raw);
  } else if constexpr (std::is_integral_v<T>) {
    if constexpr (sizeof(T) == 1) {
      out = static_cast<T>(r.read_u8());
    } else if constexpr (sizeof(T) == 2) {
      out = static_cast<T>(r.read_u16());
    } else if constexpr (sizeof(T) == 4) {
      out = static_cast<T>(r.read_u32());
    } else {
      out = static_cast<T>(r.read_u64());
    }
  } else if constexpr (std::is_same_v<T, double>) {
    out = r.read_f64();
  } else if constexpr (std::is_same_v<T, std::string>) {
    out = r.read_string();
  } else if constexpr (detail::kIsId<T>) {
    out = T(r.read_u32());
  } else if constexpr (detail::kIsPair<T>) {
    read(r, out.first);
    read(r, out.second);
  } else if constexpr (detail::kIsVector<T>) {
    constexpr std::size_t kMin = min_wire_size<typename T::value_type>();
    static_assert(kMin > 0, "a counted element must take wire bytes");
    out.resize(r.read_count(kMin));
    for (auto& e : out) read(r, e);
  } else if constexpr (detail::kIsMap<T>) {
    const std::uint32_t n =
        r.read_count(min_wire_size<typename T::key_type>() +
                     min_wire_size<typename T::mapped_type>());
    out.clear();
    for (std::uint32_t i = 0; i < n; ++i) {
      std::pair<typename T::key_type, typename T::mapped_type> entry;
      read(r, entry);
      out.emplace(std::move(entry));
    }
  } else {
    T::fields(out, [&r](auto&... f) { (read(r, f), ...); });
  }
}

/// Decodes one `T`.
template <typename T>
[[nodiscard]] T read(WireReader& r) {
  T v{};
  read(r, v);
  return v;
}

}  // namespace vdce::common
