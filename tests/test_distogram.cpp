#include "geom/distogram.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace sf {
namespace {

// The reference Distogram::update must equal bit for bit: a full,
// mirrored n x n bin matrix per trace, and the mean absolute change
// between two of them accumulated in double -- what the engine compared
// recycle by recycle before the in-place update.
namespace ref {

class Distogram {
 public:
  explicit Distogram(const std::vector<Vec3>& ca) : n_(ca.size()) {
    bins_.resize(n_ * n_, 0);
    for (std::size_t i = 0; i < n_; ++i) {
      bins_[i * n_ + i] = 0;
      for (std::size_t j = i + 1; j < n_; ++j) {
        const std::uint8_t b = sf::Distogram::distance_to_bin(distance(ca[i], ca[j]));
        bins_[i * n_ + j] = b;
        bins_[j * n_ + i] = b;
      }
    }
  }

  double mean_abs_change(const Distogram& other) const {
    if (n_ != other.n_) throw std::invalid_argument("mean_abs_change: residue count mismatch");
    if (n_ < 2) return 0.0;
    double sum = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      for (std::size_t j = i + 1; j < n_; ++j) {
        sum += std::abs(static_cast<int>(bins_[i * n_ + j]) -
                        static_cast<int>(other.bins_[i * n_ + j]));
        ++pairs;
      }
    }
    return sum / static_cast<double>(pairs) * sf::Distogram::bin_width();
  }

 private:
  std::size_t n_ = 0;
  std::vector<std::uint8_t> bins_;
};

}  // namespace ref

std::vector<Vec3> line(std::size_t n, double spacing) {
  std::vector<Vec3> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back({spacing * static_cast<double>(i), 0, 0});
  return pts;
}

// A CA-like random-walk chain: 3.8 A steps in random directions, so
// its pair distances span the whole bin range.
std::vector<Vec3> random_chain(std::size_t n, Rng& rng) {
  std::vector<Vec3> pts;
  Vec3 at{};
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(at);
    at += Vec3{rng.normal(), rng.normal(), rng.normal()}.normalized() * 3.8;
  }
  return pts;
}

TEST(Distogram, BinMapping) {
  EXPECT_EQ(Distogram::distance_to_bin(0.0), 0);  // below range clamps
  EXPECT_EQ(Distogram::distance_to_bin(Distogram::kMinDist), 0);
  EXPECT_EQ(Distogram::distance_to_bin(100.0), Distogram::kBins - 1);
  // Monotone.
  EXPECT_LE(Distogram::distance_to_bin(5.0), Distogram::distance_to_bin(6.0));
}

TEST(Distogram, UpdateEqualsTwoMatrixOracleAlongRandomWalks) {
  for (const std::size_t n : {0, 1, 2, 3, 64, 300}) {
    SCOPED_TRACE("n = " + std::to_string(n));
    Rng rng(11, n);
    std::vector<Vec3> ca = random_chain(n, rng);
    Distogram disto(n);
    disto.update(ca);
    ref::Distogram prev(ca);
    double total = 0.0;
    for (int step = 0; step < 24; ++step) {
      // Step sizes from a still trace to a scrambled one, so some
      // updates change no bin and some change most of them.
      const double sigma = step % 6 == 0 ? 0.0 : 0.05 * std::pow(2.5, step % 6);
      for (auto& p : ca) {
        p += Vec3{rng.normal(0.0, sigma), rng.normal(0.0, sigma), rng.normal(0.0, sigma)};
      }
      const ref::Distogram now(ca);
      const double change = disto.update(ca);
      EXPECT_EQ(change, now.mean_abs_change(prev)) << "step " << step;
      if (sigma == 0.0) {
        EXPECT_EQ(change, 0.0);
      }
      total += change;
      prev = now;
    }
    if (n >= 2) {
      EXPECT_GT(total, 0.0);
    }
  }
}

TEST(Distogram, IdenticalStructuresHaveZeroChange) {
  const auto pts = line(30, 3.8);
  Distogram d(pts.size());
  d.update(pts);
  EXPECT_EQ(d.update(pts), 0.0);
}

TEST(Distogram, ChangeScalesWithPerturbation) {
  Rng rng(3);
  const auto pts = line(40, 3.8);
  auto small = pts;
  auto big = pts;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    small[i] += Vec3{rng.normal(0, 0.3), rng.normal(0, 0.3), rng.normal(0, 0.3)};
    big[i] += Vec3{rng.normal(0, 2.0), rng.normal(0, 2.0), rng.normal(0, 2.0)};
  }
  const auto change_from_base = [&](const std::vector<Vec3>& to) {
    Distogram d(pts.size());
    d.update(pts);
    return d.update(to);
  };
  EXPECT_LT(change_from_base(small), change_from_base(big));
}

TEST(Distogram, ChangeIsSymmetric) {
  Rng rng(5);
  const auto a = line(25, 3.8);
  auto b = a;
  for (auto& p : b) p += Vec3{rng.normal(0, 1), rng.normal(0, 1), rng.normal(0, 1)};
  Distogram ab(a.size()), ba(a.size());
  ab.update(a);
  ba.update(b);
  EXPECT_EQ(ab.update(b), ba.update(a));
}

TEST(Distogram, MismatchedSizesThrow) {
  Distogram d(10);
  EXPECT_THROW(d.update(line(11, 3.8)), std::invalid_argument);
  EXPECT_THROW(d.update(line(9, 3.8)), std::invalid_argument);
}

TEST(Distogram, TinyStructuresNeverChange) {
  Distogram none(0), one(1);
  EXPECT_EQ(none.update({}), 0.0);
  EXPECT_EQ(one.update({{0, 0, 0}}), 0.0);
  EXPECT_EQ(one.update({{1, 0, 0}}), 0.0);
}

}  // namespace
}  // namespace sf
