// Small string helpers shared by the .afg parser and the repository's
// line-oriented persistence format.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace vdce::common {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s);

/// Splits on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string> split(std::string_view s, char sep);

/// Splits on runs of whitespace, dropping empty tokens.
[[nodiscard]] std::vector<std::string> split_ws(std::string_view s);

/// True if `s` begins with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s, std::string_view prefix);

/// Parses a double; throws ParseError with `context` on failure.
[[nodiscard]] double parse_double(std::string_view s,
                                  std::string_view context);

/// Parses a non-negative integer; throws ParseError with `context` on
/// failure.
[[nodiscard]] unsigned long parse_uint(std::string_view s,
                                       std::string_view context);

/// parse_uint for 32-bit fields (ids, processor counts): also throws
/// ParseError when the value does not fit, instead of wrapping it.
[[nodiscard]] std::uint32_t parse_u32(std::string_view s,
                                      std::string_view context);

/// Parses a signed 32-bit integer (priorities); throws ParseError when
/// `s` is not an integer or does not fit, instead of casting it.
[[nodiscard]] std::int32_t parse_i32(std::string_view s,
                                     std::string_view context);

/// Joins strings with a separator.
[[nodiscard]] std::string join(const std::vector<std::string>& parts,
                               std::string_view sep);

}  // namespace vdce::common
