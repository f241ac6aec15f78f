// Thread counts for the tests of code that computes on SlotComputer,
// which sizes itself from the calling thread's affinity mask (one
// thread per CPU, as `taskset` sets it for a product).
#pragma once

#include <gtest/gtest.h>
#include <sched.h>

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "util/thread_pool.hpp"

namespace sf {

// Pins the calling thread to the first `n` CPUs of its affinity mask
// while in scope, so a campaign run here computes on n threads.
class PinnedCpus {
 public:
  explicit PinnedCpus(std::size_t n) {
    CPU_ZERO(&saved_);
    EXPECT_EQ(sched_getaffinity(0, sizeof(saved_), &saved_), 0);
    cpu_set_t set;
    CPU_ZERO(&set);
    std::size_t taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &set);
        ++taken;
      }
    }
    EXPECT_EQ(taken, n);
    EXPECT_EQ(sched_setaffinity(0, sizeof(set), &set), 0);
    EXPECT_EQ(affinity_cpus(), n);
  }
  ~PinnedCpus() { sched_setaffinity(0, sizeof(saved_), &saved_); }

  PinnedCpus(const PinnedCpus&) = delete;
  PinnedCpus& operator=(const PinnedCpus&) = delete;

 private:
  cpu_set_t saved_;
};

// The counts in `fewer` below the CPUs in the affinity mask, then all
// of those CPUs (a SlotComputer's default).
inline std::vector<std::size_t> thread_counts(std::initializer_list<std::size_t> fewer) {
  const std::size_t all = affinity_cpus();
  std::vector<std::size_t> out;
  for (const std::size_t n : fewer) {
    if (n < all) out.push_back(n);
  }
  out.push_back(all);
  return out;
}

}  // namespace sf
