#include "common/strings.hpp"

#include <cctype>
#include <charconv>
#include <limits>

#include "common/error.hpp"

namespace vdce::common {

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::vector<std::string> split(std::string_view s, char sep) {
  std::vector<std::string> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == sep) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> split_ws(std::string_view s) {
  std::vector<std::string> out;
  std::size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
    std::size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i])))
      ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

double parse_double(std::string_view s, std::string_view context) {
  s = trim(s);
  double v = 0.0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("expected number in " + std::string(context) + ": '" +
                     std::string(s) + "'");
  }
  return v;
}

unsigned long parse_uint(std::string_view s, std::string_view context) {
  s = trim(s);
  unsigned long v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("expected unsigned integer in " + std::string(context) +
                     ": '" + std::string(s) + "'");
  }
  return v;
}

std::uint32_t parse_u32(std::string_view s, std::string_view context) {
  const unsigned long v = parse_uint(s, context);
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw ParseError("value out of 32-bit range in " + std::string(context) +
                     ": '" + std::string(trim(s)) + "'");
  }
  return static_cast<std::uint32_t>(v);
}

std::int32_t parse_i32(std::string_view s, std::string_view context) {
  s = trim(s);
  std::int32_t v = 0;
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec == std::errc::result_out_of_range) {
    throw ParseError("value out of 32-bit range in " + std::string(context) +
                     ": '" + std::string(s) + "'");
  }
  if (ec != std::errc{} || ptr != s.data() + s.size()) {
    throw ParseError("expected integer in " + std::string(context) + ": '" +
                     std::string(s) + "'");
  }
  return v;
}

std::string join(const std::vector<std::string>& parts,
                 std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace vdce::common
