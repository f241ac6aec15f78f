// Flat cell grid for fixed-cutoff CA pair searches.
//
// Steric declash (geom/backbone), violation counting (geom/violations)
// and the relaxation force field's repulsive wall (relax/forcefield) all
// look for CA pairs closer than a cutoff. Each bins the points into cubes
// of side `cell` and, for point i, probes i's cell and the 26 around it.
// This grid does that with flat arrays: every point's cell is packed into
// a 64-bit key (three 21-bit two's-complement fields), the points are
// counting-sorted into a power-of-two number of buckets (at most 8n, so
// memory is O(n) whatever the chain's shape), and a probe scans its
// bucket keeping only points whose key equals the probe cell's.
// build() reuses its buffers, so a caller that rebuilds every iteration
// allocates only on the first.
//
// Visit-order contract (locked by tests/test_cell_grid.cpp): for point i,
// for_each_candidate() calls fn(j) cell by cell over the 27 probes in
// dx -> dy -> dz order (each offset -1, 0, +1), and within one probe for
// every point j whose packed key equals the probe's, ascending j. That
// is the exact sequence of the per-call std::unordered_map grids this
// replaced, so sums the callers accumulate in it stay bit-identical.
// probe_cell() keeps those grids' arithmetic, floor((c + d) * cell /
// cell), which for some (c, cell) lands one cell low: such a probe
// repeats its neighbour's cell and misses its own.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/vec3.hpp"

namespace sf {

class CellGrid {
 public:
  explicit CellGrid(double cell) : cell_(cell) {}

  // Bins `points`, replacing the previous build. Keeps no reference.
  void build(const std::vector<Vec3>& points);

  // Calls fn(j) for the candidate neighbours of built point i, in the
  // order above. Candidates include i itself and may repeat; callers
  // filter by index and distance.
  template <typename Fn>
  void for_each_candidate(std::size_t i, Fn&& fn) const {
    const Cell& c = cell_of_[i];
    long px[3] = {};
    long py[3] = {};
    long pz[3] = {};
    for (long d = -1; d <= 1; ++d) {
      px[d + 1] = probe_cell(c.x, d, cell_);
      py[d + 1] = probe_cell(c.y, d, cell_);
      pz[d + 1] = probe_cell(c.z, d, cell_);
    }
    for (const long x : px) {
      for (const long y : py) {
        for (const long z : pz) {
          const std::uint64_t key = cell_key(x, y, z);
          const std::size_t b = bucket_of(x, y, z);
          for (std::uint32_t s = bucket_start_[b]; s < bucket_start_[b + 1]; ++s) {
            if (slot_key_[s] == key) fn(static_cast<std::size_t>(slot_point_[s]));
          }
        }
      }
    }
  }

  // Buckets of the last build (at most max(8, 8n)); the product never
  // asks, the memory-bound tests do.
  std::size_t bucket_count() const {  // sfcheck:allow(U1): test_cell_grid bounds memory with it
    return bucket_start_.empty() ? 0 : bucket_start_.size() - 1;
  }

  // Cell index of coordinate v.
  static long cell_index(double v, double cell) {
    return static_cast<long>(std::floor(v / cell));
  }
  // Cell the probe at offset d from cell c lands in: the replaced grids'
  // re-floored coordinate, kept bit for bit (see the contract above).
  static long probe_cell(long c, long d, double cell) {
    return static_cast<long>(std::floor(static_cast<double>(c + d) * cell / cell));
  }
  // The cell's identity: its three indices, each masked to 21 bits.
  static std::uint64_t cell_key(long x, long y, long z) {
    return (static_cast<std::uint64_t>(x & kKeyMask) << 42) |
           (static_cast<std::uint64_t>(y & kKeyMask) << 21) |
           static_cast<std::uint64_t>(z & kKeyMask);
  }

 private:
  static constexpr long kKeyMask = 0x1FFFFF;

  struct Cell {
    long x = 0;
    long y = 0;
    long z = 0;
  };

  std::size_t bucket_of(long x, long y, long z) const {
    return (static_cast<std::size_t>(x & mask_x_) << shift_x_) |
           (static_cast<std::size_t>(y & mask_y_) << shift_y_) |
           static_cast<std::size_t>(z & mask_z_);
  }

  double cell_;
  long mask_x_ = 0;
  long mask_y_ = 0;
  long mask_z_ = 0;
  int shift_x_ = 0;
  int shift_y_ = 0;
  std::vector<Cell> cell_of_;                 // per point
  std::vector<std::uint32_t> bucket_start_;   // per bucket, plus the end
  std::vector<std::uint64_t> slot_key_;       // bucket-sorted, j ascending
  std::vector<std::uint32_t> slot_point_;
};

}  // namespace sf
