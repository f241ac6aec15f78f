#include "relax/minimize.hpp"

#include <algorithm>
#include <cmath>

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

}  // namespace

MinimizeResult minimize_lbfgs(const ForceField& ff, std::vector<Vec3>& coords,
                              const MinimizeOptions& options) {
  MinimizeResult res;
  const std::size_t n = coords.size();
  if (n == 0) return res;

  std::vector<Vec3> grad(n);
  double energy = ff.energy_and_gradient(coords, grad);
  ++res.energy_evaluations;
  res.initial_energy = energy;

  // The last `lbfgs_history` curvature pairs, oldest first from `head`,
  // in a ring allocated once.
  struct Pair {
    std::vector<Vec3> s;  // x_{k+1} - x_k
    std::vector<Vec3> y;  // g_{k+1} - g_k
    double rho = 0.0;     // 1 / (y . s)
  };
  const auto capacity = static_cast<std::size_t>(std::max(0, options.lbfgs_history));
  std::vector<Pair> ring(capacity, Pair{std::vector<Vec3>(n), std::vector<Vec3>(n)});
  std::size_t head = 0;
  std::size_t count = 0;
  const auto pair_at = [&](std::size_t h) -> Pair& { return ring[(head + h) % capacity]; };

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
    alphas.assign(count, 0.0);
    for (std::size_t h = count; h-- > 0;) {
      const Pair& p = pair_at(h);
      const double alpha = p.rho * dot_all(p.s, direction);
      alphas[h] = alpha;
      axpy(direction, -alpha, p.y);
    }
    // Initial Hessian scaling gamma = (s.y)/(y.y) from the latest pair.
    if (count > 0) {
      const Pair& last = pair_at(count - 1);
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
    for (std::size_t h = 0; h < count; ++h) {
      const Pair& p = pair_at(h);
      const double beta = p.rho * dot_all(p.y, direction);
      axpy(direction, alphas[h] - beta, p.s);
    }
    for (auto& d : direction) d = -d;

    double dir_dot_grad = dot_all(direction, grad);
    if (dir_dot_grad >= 0.0) {
      // Not a descent direction (stale curvature); restart with -grad.
      count = 0;
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

    // Curvature update. ys is taken before any write, so a rejected
    // pair leaves the oldest one in place; an accepted one replaces it
    // once the ring is full.
    double ys = 0.0;
    for (std::size_t i = 0; i < n; ++i) ys += (g_new[i] - grad[i]).dot(x_new[i] - coords[i]);
    if (ys > 1e-10 && capacity > 0) {
      if (count == capacity) {
        head = (head + 1) % capacity;
      } else {
        ++count;
      }
      Pair& pair = pair_at(count - 1);
      for (std::size_t i = 0; i < n; ++i) {
        pair.s[i] = x_new[i] - coords[i];
        pair.y[i] = g_new[i] - grad[i];
      }
      pair.rho = 1.0 / ys;
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

}  // namespace sf
