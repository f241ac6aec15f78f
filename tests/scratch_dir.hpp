// One scratch directory per test process: mkdtemp under
// ::testing::TempDir(), made on first use and removed with its contents
// at exit. Two runs of a suite at once (a TSan build beside a plain one)
// then never share a journal or a store. Every test that writes a file
// builds its path on test_scratch_dir(); the ctest
// `tests_use_private_scratch` rejects any other use of TempDir().
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>

namespace sf {

// The directory, with a trailing '/'; the same path on every call.
inline const std::string& test_scratch_dir() {
  struct Dir {
    std::string path;
    Dir() {
      std::string tmpl =
          (std::filesystem::path(::testing::TempDir()) / "sf_test_XXXXXX").string();
      if (mkdtemp(tmpl.data()) == nullptr) throw std::runtime_error("mkdtemp failed: " + tmpl);
      path = tmpl + "/";
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace sf
