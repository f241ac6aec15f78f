// Small string helpers shared across modules (no locale, ASCII only).
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace sf {

std::vector<std::string> split(std::string_view s, char delim);

// Parses all of `text` as a number in [lo, hi]: no sign or space the
// type does not take, no trailing characters, no overflow, no NaN.
// Command lines use it so a malformed number is refused, never read
// as 0.
template <class T>
bool parse_number(std::string_view text, T lo, T hi, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || !(v >= lo && v <= hi)) return false;
  out = v;
  return true;
}

// Parses `text` only when it is exactly what "%.17g" prints for its
// value, the one spelling the journal and trace writers use: "1" is a
// real, "1.0", "1e0" and "+1" are not.
bool parse_canonical_real(std::string_view text, double& out);

// Enum names kept as one array indexed by the enum's value: the name of
// `value` ("?" when out of range), and the value named `name`.
template <std::size_t N, class E>
const char* enum_name(const char* const (&names)[N], E value) {
  const auto i = static_cast<std::size_t>(value);
  return i < N ? names[i] : "?";
}
template <class Name, std::size_t N, class E>
bool enum_from_name(std::string_view name, const Name (&names)[N], E& out) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name != names[i]) continue;
    out = static_cast<E>(i);
    return true;
  }
  return false;
}

// printf-style convenience used by report printers; bounded buffer.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// "1h 23m 45s" style rendering of a duration in seconds.
std::string human_duration(double seconds);
// "2.1 TB" style rendering of a byte count.
std::string human_bytes(double bytes);

}  // namespace sf
