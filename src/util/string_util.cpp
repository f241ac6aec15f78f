#include "util/string_util.hpp"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace sf {

std::vector<std::string> split(std::string_view s, char delim) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(s.substr(start));
      break;
    }
    parts.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return parts;
}

bool parse_canonical_real(std::string_view text, double& out) {
  // Whole-token parse, then the canonical-text check: of all spellings
  // of a value, only the one %.17g prints is accepted.
  double v = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end || format("%.17g", v) != text) return false;
  out = v;
  return true;
}

std::string format(const char* fmt, ...) {
  char buf[1024];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return std::string(buf);
}

std::string human_duration(double seconds) {
  if (seconds < 0) seconds = 0;
  const auto total = static_cast<long long>(std::llround(seconds));
  const long long h = total / 3600;
  const long long m = (total % 3600) / 60;
  const long long s = total % 60;
  if (h > 0) return format("%lldh %02lldm %02llds", h, m, s);
  if (m > 0) return format("%lldm %02llds", m, s);
  return format("%.1fs", seconds);
}

std::string human_bytes(double bytes) {
  static const char* units[] = {"B", "KB", "MB", "GB", "TB", "PB"};
  int u = 0;
  while (bytes >= 1024.0 && u < 5) {
    bytes /= 1024.0;
    ++u;
  }
  return format("%.2f %s", bytes, units[u]);
}

}  // namespace sf
