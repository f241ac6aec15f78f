#include "relax/forcefield.hpp"

#include <gtest/gtest.h>

#include "bio/amino_acid.hpp"
#include "geom/backbone.hpp"
#include "util/rng.hpp"

namespace sf {
namespace {

double energy(const ForceField& ff, const std::vector<Vec3>& coords) {
  std::vector<Vec3> grad;
  return ff.energy_and_gradient(coords, grad);
}

Structure test_structure(int n = 30, unsigned seed = 3) {
  Rng rng(seed);
  std::vector<ResidueSpec> spec;
  const char* aas = "MKWLVEDRTYG";
  for (int i = 0; i < n; ++i) {
    ResidueSpec rs;
    rs.aa = aas[i % 11];
    rs.heavy_atoms = aa_heavy_atoms(rs.aa);
    rs.has_cb = aa_has_cb(rs.aa);
    rs.has_sc = aa_has_sc(rs.aa);
    spec.push_back(rs);
  }
  std::string ss;
  for (int i = 0; i < n; ++i) ss += (i / 10) % 2 ? 'H' : 'C';
  return build_structure("ff", spec, ss, rng);
}

TEST(ForceField, EnergyAtRestraintCentersIsModest) {
  const Structure s = test_structure();
  const ForceField ff(s);
  const double e0 = energy(ff, s.all_atom_coords());
  // At the builder geometry, restraints contribute nothing and bonds are
  // near-ideal; only weak angle/repulsion residue remains.
  EXPECT_GE(e0, 0.0);
  EXPECT_LT(e0, 50.0 * static_cast<double>(s.size()));
}

TEST(ForceField, EnergyRisesWhenDisplaced) {
  const Structure s = test_structure();
  const ForceField ff(s);
  auto coords = s.all_atom_coords();
  const double e0 = energy(ff, coords);
  Rng rng(7);
  for (auto& p : coords) {
    p += Vec3{rng.normal(0, 0.5), rng.normal(0, 0.5), rng.normal(0, 0.5)};
  }
  EXPECT_GT(energy(ff, coords), e0);
}

// The critical correctness test: analytic gradient vs finite differences.
class GradientCheck : public ::testing::TestWithParam<unsigned> {};

TEST_P(GradientCheck, MatchesFiniteDifferences) {
  const Structure s = test_structure(14, GetParam());
  const ForceField ff(s);
  auto coords = s.all_atom_coords();
  // Perturb so every term is active (restraints, bent bonds, repulsion).
  Rng rng(GetParam() + 100);
  for (auto& p : coords) {
    p += Vec3{rng.normal(0, 0.4), rng.normal(0, 0.4), rng.normal(0, 0.4)};
  }
  std::vector<Vec3> grad;
  ff.energy_and_gradient(coords, grad);

  const double h = 1e-6;
  // Spot-check a handful of coordinates.
  for (std::size_t idx : {std::size_t{0}, coords.size() / 3, coords.size() / 2,
                          coords.size() - 1}) {
    for (int axis = 0; axis < 3; ++axis) {
      auto plus = coords;
      auto minus = coords;
      double* pp = axis == 0 ? &plus[idx].x : axis == 1 ? &plus[idx].y : &plus[idx].z;
      double* pm = axis == 0 ? &minus[idx].x : axis == 1 ? &minus[idx].y : &minus[idx].z;
      *pp += h;
      *pm -= h;
      const double numeric = (energy(ff, plus) - energy(ff, minus)) / (2.0 * h);
      const double analytic = axis == 0 ? grad[idx].x : axis == 1 ? grad[idx].y : grad[idx].z;
      EXPECT_NEAR(analytic, numeric, 1e-3 * std::max(1.0, std::abs(numeric)))
          << "atom " << idx << " axis " << axis;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GradientCheck, ::testing::Values(1u, 2u, 3u, 4u));

TEST(ForceField, RepulsionActsOnClashes) {
  // Two residues forced on top of each other: large positive energy that
  // the same structure without the clash does not have.
  Structure s = test_structure(20);
  const ForceField ff_clean(s);
  const double e_clean = energy(ff_clean, s.all_atom_coords());

  Structure clashed = s;
  // Move residue 15's atoms onto residue 3.
  const Vec3 d = s.residue(3).ca - s.residue(15).ca;
  Residue& r = clashed.residue(15);
  r.n += d;
  r.ca += d;
  r.c += d;
  r.o += d;
  if (r.has_cb) r.cb += d;
  if (r.has_sc) r.sc += d;
  // Note: the force field is built on the *clashed* structure so the
  // restraints are centered there; the energy difference is pure
  // repulsion (plus bond strain at the moved residue's backbone links).
  const ForceField ff_clashed(clashed);
  const double e_clashed = energy(ff_clashed, clashed.all_atom_coords());
  EXPECT_GT(e_clashed, e_clean + 10.0);
}

TEST(ForceField, RestraintTermPinsToInput) {
  const Structure s = test_structure();
  ForceFieldParams params;
  params.bond_k = 0.0;
  params.angle_k = 0.0;
  params.repulsion_k = 0.0;
  params.sidechain_ideality_k = 0.0;
  const ForceField ff(s, params);
  auto coords = s.all_atom_coords();
  EXPECT_NEAR(energy(ff, coords), 0.0, 1e-9);
  coords[0].x += 2.0;
  // k * d^2 = 10 * 4 = 40 kcal/mol.
  EXPECT_NEAR(energy(ff, coords), 40.0, 1e-9);
}

}  // namespace
}  // namespace sf
