// Small string helpers shared by the pretty printers and parsers.
#pragma once

#include <charconv>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace tigat::util {

// Joins `parts` with `sep`; empty input gives "".
std::string join(const std::vector<std::string>& parts, std::string_view sep);

// Splits on `sep`, keeping empty fields.
std::vector<std::string> split(std::string_view text, char sep);

// Strips ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

bool starts_with(std::string_view text, std::string_view prefix);

// Parses all of `text` as a base-10 integer of type T in [lo, hi].
// nullopt on anything else: empty text, a sign T cannot hold, leading
// or trailing characters, overflow, or a value outside the range.  The
// strict counterpart of atoi for command-line flags, where a silent 0
// on garbage or a negative wrapped into a huge unsigned is a bug.
template <typename T>
[[nodiscard]] std::optional<T> parse_int(
    std::string_view text, T lo = std::numeric_limits<T>::min(),
    T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || stop != end || value < lo || value > hi) {
    return std::nullopt;
  }
  return value;
}

// Parses all of `text` as a finite decimal number in [lo, hi]; nullopt
// on anything else: empty text, leading or trailing characters, "inf"
// or "nan", overflow, or a value outside the range.  The strict
// counterpart of atof, as parse_int is of atoi.
[[nodiscard]] std::optional<double> parse_double(std::string_view text,
                                                 double lo, double hi);

// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace tigat::util
