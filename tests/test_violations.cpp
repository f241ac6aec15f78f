#include "geom/violations.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace sf {
namespace {

TEST(Violations, CleanChainHasNone) {
  std::vector<Vec3> ca;
  for (int i = 0; i < 50; ++i) ca.push_back({3.8 * i, 0, 0});
  const ViolationReport rep = count_violations(ca);
  EXPECT_EQ(rep.clashes, 0u);
  EXPECT_EQ(rep.bumps, 0u);
}

TEST(Violations, DetectsASingleClash) {
  std::vector<Vec3> ca;
  for (int i = 0; i < 10; ++i) ca.push_back({3.8 * i, 0, 0});
  ca.push_back(ca[2] + Vec3{0.5, 0, 0});  // 0.5 A from residue 2: clash + bump
  const ViolationReport rep = count_violations(ca);
  EXPECT_GE(rep.clashes, 1u);
  EXPECT_GE(rep.bumps, rep.clashes);  // every clash is also a bump
}

TEST(Violations, BumpOnlyRange) {
  std::vector<Vec3> ca;
  for (int i = 0; i < 10; ++i) ca.push_back({3.8 * i, 0, 0});
  ca.push_back(ca[2] + Vec3{0, 2.5, 0});  // 2.5 A: bump, not clash
  const ViolationReport rep = count_violations(ca);
  EXPECT_EQ(rep.clashes, 0u);
  EXPECT_GE(rep.bumps, 1u);
}

TEST(Violations, AdjacentResiduesExcluded) {
  // Consecutive CAs at 3.5 A would be bumps if adjacency weren't excluded.
  std::vector<Vec3> ca;
  for (int i = 0; i < 20; ++i) ca.push_back({3.5 * i, 0, 0});
  const ViolationReport rep = count_violations(ca, 2);
  EXPECT_EQ(rep.bumps, 0u);
  // With min_separation 1 the same chain is full of bumps.
  EXPECT_EQ(count_violations(ca, 1).bumps, 19u);
}

// Property: the cell-list path agrees exactly with the quadratic path.
class ViolationsEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ViolationsEquivalence, CellListMatchesQuadratic) {
  Rng rng(GetParam());
  // Random compact blob: lots of near contacts.
  std::vector<Vec3> ca;
  const int n = 300 + GetParam() * 37;  // force the cell-list path (>=256)
  for (int i = 0; i < n; ++i) {
    ca.push_back({rng.uniform(-15, 15), rng.uniform(-15, 15), rng.uniform(-15, 15)});
  }
  // Quadratic reference on the same data via a small-size call: compute
  // directly here instead.
  ViolationReport ref;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    for (std::size_t j = i + 2; j < ca.size(); ++j) {
      const double d2 = distance2(ca[i], ca[j]);
      if (d2 < kBumpDistance * kBumpDistance) {
        ++ref.bumps;
        if (d2 < kClashDistance * kClashDistance) ++ref.clashes;
      }
    }
  }
  const ViolationReport fast = count_violations(ca);
  EXPECT_EQ(fast.clashes, ref.clashes);
  EXPECT_EQ(fast.bumps, ref.bumps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ViolationsEquivalence, ::testing::Values(1, 2, 3, 4, 5));

TEST(Violations, EmptyAndTiny) {
  EXPECT_EQ(count_violations(std::vector<Vec3>{}).bumps, 0u);
  EXPECT_EQ(count_violations(std::vector<Vec3>{{0, 0, 0}}).bumps, 0u);
}

}  // namespace
}  // namespace sf
