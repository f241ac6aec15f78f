#include "relax/minimize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <deque>
#include <utility>
#include <vector>

#include "bio/amino_acid.hpp"
#include "geom/backbone.hpp"
#include "geom/violations.hpp"
#include "util/rng.hpp"

namespace sf {
namespace {

double dot_all(const std::vector<Vec3>& a, const std::vector<Vec3>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i].dot(b[i]);
  return s;
}

double rms_norm(const std::vector<Vec3>& g) {
  if (g.empty()) return 0.0;
  return std::sqrt(dot_all(g, g) / static_cast<double>(g.size()));
}

void axpy(std::vector<Vec3>& y, double alpha, const std::vector<Vec3>& x) {
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += x[i] * alpha;
}

// minimize_lbfgs as it was with a std::deque history, which allocated a
// fresh (s, y) pair every step: the reference the preallocated ring
// must match bit for bit.
MinimizeResult minimize_lbfgs_deque(const ForceField& ff, std::vector<Vec3>& coords,
                                    const MinimizeOptions& options) {
  MinimizeResult res;
  const std::size_t n = coords.size();
  if (n == 0) return res;

  std::vector<Vec3> grad(n);
  double energy = ff.energy_and_gradient(coords, grad);
  ++res.energy_evaluations;
  res.initial_energy = energy;

  struct Pair {
    std::vector<Vec3> s;  // x_{k+1} - x_k
    std::vector<Vec3> y;  // g_{k+1} - g_k
    double rho;           // 1 / (y . s)
  };
  std::deque<Pair> history;

  std::vector<Vec3> direction(n);
  std::vector<Vec3> x_new(n);
  std::vector<Vec3> g_new(n);
  std::vector<double> alphas;

  for (int step = 0; step < options.max_steps; ++step) {
    if (rms_norm(grad) < options.grad_tolerance) {
      res.converged = true;
      break;
    }
    // Two-loop recursion: direction = -H * grad.
    direction = grad;
    alphas.assign(history.size(), 0.0);
    for (std::size_t h = history.size(); h-- > 0;) {
      const Pair& p = history[h];
      const double alpha = p.rho * dot_all(p.s, direction);
      alphas[h] = alpha;
      axpy(direction, -alpha, p.y);
    }
    // Initial Hessian scaling gamma = (s.y)/(y.y) from the latest pair.
    if (!history.empty()) {
      const Pair& last = history.back();
      const double yy = dot_all(last.y, last.y);
      if (yy > 1e-12) {
        const double gamma = 1.0 / (last.rho * yy);
        for (auto& d : direction) d *= gamma;
      }
    } else {
      // First step: cautious scaling so a stiff start can't explode.
      const double gnorm = std::sqrt(dot_all(grad, grad));
      if (gnorm > 1.0) {
        for (auto& d : direction) d *= 1.0 / gnorm;
      }
    }
    for (std::size_t h = 0; h < history.size(); ++h) {
      const Pair& p = history[h];
      const double beta = p.rho * dot_all(p.y, direction);
      axpy(direction, alphas[h] - beta, p.s);
    }
    for (auto& d : direction) d = -d;

    double dir_dot_grad = dot_all(direction, grad);
    if (dir_dot_grad >= 0.0) {
      // Not a descent direction (stale curvature); restart with -grad.
      history.clear();
      direction = grad;
      for (auto& d : direction) d = -d;
      dir_dot_grad = -dot_all(grad, grad);
    }

    // Armijo backtracking line search.
    double step_len = 1.0;
    constexpr double kArmijoC = 1e-4;
    constexpr double kBacktrack = 0.5;
    double e_new = energy;
    bool accepted = false;
    for (int ls = 0; ls < 30; ++ls) {
      x_new = coords;
      axpy(x_new, step_len, direction);
      e_new = ff.energy_and_gradient(x_new, g_new);
      ++res.energy_evaluations;
      if (e_new <= energy + kArmijoC * step_len * dir_dot_grad) {
        accepted = true;
        break;
      }
      step_len *= kBacktrack;
    }
    if (!accepted) break;  // line search failed: local flatness/noise

    // Curvature update.
    Pair pair;
    pair.s.resize(n);
    pair.y.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      pair.s[i] = x_new[i] - coords[i];
      pair.y[i] = g_new[i] - grad[i];
    }
    const double ys = dot_all(pair.y, pair.s);
    if (ys > 1e-10) {
      pair.rho = 1.0 / ys;
      history.push_back(std::move(pair));
      if (static_cast<int>(history.size()) > options.lbfgs_history) history.pop_front();
    }

    const double delta_e = energy - e_new;
    coords.swap(x_new);
    grad.swap(g_new);
    energy = e_new;
    ++res.steps;
    if (delta_e >= 0.0 && delta_e < options.energy_tolerance) {
      res.converged = true;
      break;
    }
  }
  res.final_energy = energy;
  return res;
}

// FIRE (Bitzek et al. 2006): damped dynamics with an adaptive timestep,
// the independent optimizer the L-BFGS minima are checked against.
MinimizeResult minimize_fire(const ForceField& ff, std::vector<Vec3>& coords,
                             const MinimizeOptions& options = {}) {
  MinimizeResult res;
  const std::size_t n = coords.size();
  if (n == 0) return res;

  // FIRE parameters (Bitzek et al. 2006 defaults).
  constexpr double kDtStart = 0.02;
  constexpr double kDtMax = 0.3;
  constexpr double kFInc = 1.1;
  constexpr double kFDec = 0.5;
  constexpr double kAlphaStart = 0.1;
  constexpr double kFAlpha = 0.99;
  constexpr int kNMin = 5;

  std::vector<Vec3> grad(n);
  std::vector<Vec3> vel(n, Vec3{});
  double energy = ff.energy_and_gradient(coords, grad);
  ++res.energy_evaluations;
  res.initial_energy = energy;
  double prev_energy = energy;

  double dt = kDtStart;
  double alpha = kAlphaStart;
  int steps_since_negative = 0;

  for (int step = 0; step < options.max_steps; ++step) {
    // Force is -grad.
    double power = 0.0;
    for (std::size_t i = 0; i < n; ++i) power += -grad[i].dot(vel[i]);
    if (power > 0.0) {
      ++steps_since_negative;
      const double vnorm = std::sqrt(dot_all(vel, vel));
      const double gnorm = std::sqrt(dot_all(grad, grad));
      if (gnorm > 1e-12) {
        const double mix = alpha * vnorm / gnorm;
        for (std::size_t i = 0; i < n; ++i) {
          vel[i] = vel[i] * (1.0 - alpha) - grad[i] * mix;
        }
      }
      if (steps_since_negative > kNMin) {
        dt = std::min(dt * kFInc, kDtMax);
        alpha *= kFAlpha;
      }
    } else {
      vel.assign(n, Vec3{});
      dt *= kFDec;
      alpha = kAlphaStart;
      steps_since_negative = 0;
    }
    // Semi-implicit Euler.
    for (std::size_t i = 0; i < n; ++i) {
      vel[i] -= grad[i] * dt;
      coords[i] += vel[i] * dt;
    }
    energy = ff.energy_and_gradient(coords, grad);
    ++res.energy_evaluations;
    ++res.steps;

    if (rms_norm(grad) < options.grad_tolerance) {
      res.converged = true;
      break;
    }
    const double delta_e = prev_energy - energy;
    if (delta_e >= 0.0 && delta_e < options.energy_tolerance && step > 10) {
      res.converged = true;
      break;
    }
    prev_energy = energy;
  }
  res.final_energy = energy;
  return res;
}


Structure noisy_structure(int n, double noise, unsigned seed) {
  Rng rng(seed);
  std::vector<ResidueSpec> spec;
  const char* aas = "MKWLVEDRTY";
  for (int i = 0; i < n; ++i) {
    ResidueSpec rs;
    rs.aa = aas[i % 10];
    rs.heavy_atoms = aa_heavy_atoms(rs.aa);
    rs.has_cb = aa_has_cb(rs.aa);
    rs.has_sc = aa_has_sc(rs.aa);
    spec.push_back(rs);
  }
  std::string ss;
  for (int i = 0; i < n; ++i) ss += (i / 11) % 2 ? 'H' : 'E';
  Structure s = build_structure("m", spec, ss, rng);
  if (noise > 0) {
    auto coords = s.all_atom_coords();
    for (auto& p : coords) {
      p += Vec3{rng.normal(0, noise), rng.normal(0, noise), rng.normal(0, noise)};
    }
    s.set_all_atom_coords(coords);
  }
  return s;
}

TEST(Minimize, LbfgsReducesEnergyAndConverges) {
  const Structure s = noisy_structure(40, 0.5, 3);
  const ForceField ff(s);
  auto coords = s.all_atom_coords();
  const MinimizeResult r = minimize_lbfgs(ff, coords);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.final_energy, r.initial_energy);
  EXPECT_GT(r.steps, 0);
  EXPECT_GE(r.energy_evaluations, r.steps);
}

TEST(Minimize, FireReducesEnergy) {
  const Structure s = noisy_structure(40, 0.5, 3);
  const ForceField ff(s);
  auto coords = s.all_atom_coords();
  const MinimizeResult r = minimize_fire(ff, coords);
  EXPECT_LT(r.final_energy, r.initial_energy);
}

TEST(Minimize, BackendsFindComparableMinima) {
  const Structure s = noisy_structure(35, 0.6, 5);
  const ForceField ff(s);
  auto c1 = s.all_atom_coords();
  auto c2 = s.all_atom_coords();
  MinimizeOptions opts;
  opts.energy_tolerance = 0.1;  // tight, to compare minima rather than stops
  const MinimizeResult lbfgs = minimize_lbfgs(ff, c1, opts);
  const MinimizeResult fire = minimize_fire(ff, c2, opts);
  // Independent optimizers agree on the reachable basin energy within a
  // few percent.
  const double scale = std::max(1.0, std::abs(lbfgs.final_energy));
  EXPECT_NEAR(lbfgs.final_energy, fire.final_energy, 0.1 * scale);
}

TEST(Minimize, EnergyToleranceStopsEarly) {
  const Structure s = noisy_structure(40, 0.5, 7);
  const ForceField ff(s);
  auto loose_coords = s.all_atom_coords();
  auto tight_coords = s.all_atom_coords();
  MinimizeOptions loose;
  loose.energy_tolerance = 50.0;
  MinimizeOptions tight;
  tight.energy_tolerance = 0.01;
  const MinimizeResult r_loose = minimize_lbfgs(ff, loose_coords, loose);
  const MinimizeResult r_tight = minimize_lbfgs(ff, tight_coords, tight);
  EXPECT_LE(r_loose.steps, r_tight.steps);
  EXPECT_GE(r_tight.initial_energy - r_tight.final_energy,
            r_loose.initial_energy - r_loose.final_energy - 1e-9);
}

// The ring of lbfgs_history pairs takes exactly the deque's steps: the
// same coordinates, energies and counts, bit for bit, whether the ring
// holds one pair, two or the default eight, and whether the run stops
// on the energy tolerance or runs long enough to wrap many times. The
// 6 A start (seed 6) takes a step whose curvature pair is rejected
// (y.s <= 1e-10) while the ring of eight is full, so a ring that wrote
// a pair before testing it would lose its oldest pair there.
TEST(Minimize, RingHistoryEqualsDequeHistoryBitForBit) {
  const std::pair<double, unsigned> starts[] = {{1.0, 3u}, {1.0, 9u}, {6.0, 6u}};
  for (const int history : {1, 2, 8}) {
    for (const double tolerance : {2.39, 1e-9}) {
      for (const auto& [noise, seed] : starts) {
        SCOPED_TRACE("history " + std::to_string(history) + ", tolerance " +
                     std::to_string(tolerance) + ", noise " + std::to_string(noise) +
                     ", seed " + std::to_string(seed));
        const Structure s = noisy_structure(40, noise, seed);
        const ForceField ff(s);
        MinimizeOptions opts;
        opts.lbfgs_history = history;
        opts.energy_tolerance = tolerance;
        opts.max_steps = 400;
        auto ring = s.all_atom_coords();
        auto deque = ring;
        const MinimizeResult a = minimize_lbfgs(ff, ring, opts);
        const MinimizeResult b = minimize_lbfgs_deque(ff, deque, opts);
        EXPECT_GT(a.steps, history);
        EXPECT_EQ(a.steps, b.steps);
        EXPECT_EQ(a.energy_evaluations, b.energy_evaluations);
        EXPECT_EQ(a.converged, b.converged);
        EXPECT_EQ(a.initial_energy, b.initial_energy);
        EXPECT_EQ(a.final_energy, b.final_energy);
        ASSERT_EQ(ring.size(), deque.size());
        for (std::size_t i = 0; i < ring.size(); ++i) {
          EXPECT_EQ(ring[i].x, deque[i].x);
          EXPECT_EQ(ring[i].y, deque[i].y);
          EXPECT_EQ(ring[i].z, deque[i].z);
        }
      }
    }
  }
}

TEST(Minimize, StepCapRespected) {
  const Structure s = noisy_structure(40, 1.0, 9);
  const ForceField ff(s);
  auto coords = s.all_atom_coords();
  MinimizeOptions opts;
  opts.max_steps = 5;
  opts.energy_tolerance = 1e-12;  // effectively never converge
  opts.grad_tolerance = 0.0;
  const MinimizeResult r = minimize_lbfgs(ff, coords, opts);
  EXPECT_LE(r.steps, 5);
}

TEST(Minimize, EmptyCoordsSafe) {
  const Structure s;  // empty
  const ForceField ff(s);
  std::vector<Vec3> coords;
  const MinimizeResult r = minimize_lbfgs(ff, coords);
  EXPECT_EQ(r.steps, 0);
}

TEST(Minimize, RestraintsKeepStructureNearInput) {
  const Structure s = noisy_structure(50, 0.4, 11);
  const ForceField ff(s);
  auto coords = s.all_atom_coords();
  minimize_lbfgs(ff, coords);
  // With k=10 restraints, minimized atoms stay within ~1 A of input.
  const auto input = s.all_atom_coords();
  double max_move = 0.0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    max_move = std::max(max_move, distance(coords[i], input[i]));
  }
  EXPECT_LT(max_move, 1.5);
}

// Property: minimization monotonically improves across noise levels.
class MinimizeNoise : public ::testing::TestWithParam<double> {};

TEST_P(MinimizeNoise, AlwaysImproves) {
  const Structure s = noisy_structure(30, GetParam(), 13);
  const ForceField ff(s);
  auto coords = s.all_atom_coords();
  const MinimizeResult r = minimize_lbfgs(ff, coords);
  EXPECT_LE(r.final_energy, r.initial_energy + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Noise, MinimizeNoise, ::testing::Values(0.0, 0.2, 0.5, 1.0, 2.0));

}  // namespace
}  // namespace sf
