#include "geom/structure.hpp"

#include <gtest/gtest.h>

#include "geom/kabsch.hpp"

namespace sf {
namespace {

Structure make_tiny() {
  Structure s("tiny");
  for (int i = 0; i < 3; ++i) {
    Residue r;
    r.aa = "AGW"[i];
    r.heavy_atoms = i == 1 ? 4 : (i == 2 ? 14 : 5);
    r.has_cb = i != 1;  // G has no CB
    r.has_sc = i == 2;  // W has a sidechain centroid
    r.ca = {static_cast<double>(i) * 3.8, 0, 0};
    r.n = r.ca + Vec3{-1, 0.5, 0};
    r.c = r.ca + Vec3{1, 0.5, 0};
    r.o = r.c + Vec3{0, 1, 0};
    if (r.has_cb) r.cb = r.ca + Vec3{0, -1.5, 0};
    if (r.has_sc) r.sc = r.ca + Vec3{0, -3, 0};
    s.add_residue(r);
  }
  return s;
}

TEST(Structure, SequenceString) { EXPECT_EQ(make_tiny().sequence_string(), "AGW"); }

TEST(Structure, AtomCounts) {
  const Structure s = make_tiny();
  // Residue 0: N CA C O CB = 5; residue 1: 4; residue 2: N CA C O CB SC = 6.
  EXPECT_EQ(s.all_atom_coords().size(), 15u);
  EXPECT_EQ(s.heavy_atom_count(), 5 + 4 + 14);
}

TEST(Structure, CaCoordsRoundTrip) {
  Structure s = make_tiny();
  auto ca = s.ca_coords();
  ASSERT_EQ(ca.size(), 3u);
  ca[1].y = 7.0;
  s.set_ca_coords(ca);
  EXPECT_DOUBLE_EQ(s.residue(1).ca.y, 7.0);
  EXPECT_THROW(s.set_ca_coords(std::vector<Vec3>(2)), std::invalid_argument);
}

TEST(Structure, AllAtomRoundTrip) {
  Structure s = make_tiny();
  auto coords = s.all_atom_coords();
  ASSERT_EQ(coords.size(), 15u);
  for (auto& p : coords) p += Vec3{1, 2, 3};
  s.set_all_atom_coords(coords);
  const auto coords2 = s.all_atom_coords();
  for (std::size_t i = 0; i < coords.size(); ++i) {
    EXPECT_NEAR(distance(coords[i], coords2[i]), 0.0, 1e-12);
  }
  EXPECT_THROW(s.set_all_atom_coords(std::vector<Vec3>(3)), std::invalid_argument);
  coords.push_back({});
  EXPECT_THROW(s.set_all_atom_coords(coords), std::invalid_argument);
}

TEST(Structure, TransformMovesEveryAtom) {
  Structure s = make_tiny();
  const auto before = s.all_atom_coords();
  Superposition sp;
  sp.translation = {10, 0, 0};
  s.transform(sp);
  const auto after = s.all_atom_coords();
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(after[i].x - before[i].x, 10.0, 1e-12);
  }
}

TEST(Structure, CentroidAndGyration) {
  const Structure s = make_tiny();
  const Vec3 c = s.centroid_ca();
  EXPECT_NEAR(c.x, 3.8, 1e-12);
  EXPECT_GT(s.radius_of_gyration(), 0.0);
  EXPECT_EQ(Structure{}.radius_of_gyration(), 0.0);
}

TEST(Structure, EmptyIsSafe) {
  const Structure s;
  EXPECT_TRUE(s.empty());
  EXPECT_TRUE(s.all_atom_coords().empty());
  EXPECT_EQ(s.heavy_atom_count(), 0);
  EXPECT_TRUE(s.ca_coords().empty());
}

}  // namespace
}  // namespace sf
