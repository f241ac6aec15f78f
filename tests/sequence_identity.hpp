// Ungapped sequence identity, the reference the homolog generators'
// tests (test_fold_grammar, test_library) measure their output with.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>

namespace sf {

// Fraction of identical positions over the shorter length (ungapped).
inline double positional_identity(const std::string& a, const std::string& b) {
  const std::size_t n = std::min(a.size(), b.size());
  std::size_t same = 0;
  for (std::size_t i = 0; i < n; ++i) same += a[i] == b[i] ? 1 : 0;
  return n == 0 ? 0.0 : static_cast<double>(same) / static_cast<double>(n);
}

}  // namespace sf
