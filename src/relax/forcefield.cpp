#include "relax/forcefield.hpp"

#include <algorithm>
#include <cmath>

#include "geom/cell_grid.hpp"

namespace sf {

ForceField::ForceField(const Structure& reference, ForceFieldParams params)
    : params_(params) {
  restraint_centers_ = reference.all_atom_coords();
  natoms_ = restraint_centers_.size();
  ca_atom_index_.reserve(reference.size());

  // Walk the atom layout in Structure::all_atom_coords() order, recording
  // per-residue atom indices and emitting bonded terms.
  int cursor = 0;
  int prev_c = -1;
  int prev_ca = -1;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Residue& r = reference.residue(i);
    const int idx_n = cursor++;
    const int idx_ca = cursor++;
    const int idx_c = cursor++;
    const int idx_o = cursor++;
    int idx_cb = -1;
    int idx_sc = -1;
    if (r.has_cb) idx_cb = cursor++;
    if (r.has_sc) idx_sc = cursor++;
    ca_atom_index_.push_back(idx_ca);

    add_bond(idx_n, idx_ca, 1.46, params_.bond_k);
    add_bond(idx_ca, idx_c, 1.52, params_.bond_k);
    add_bond(idx_c, idx_o, 1.23, params_.bond_k);
    if (prev_c >= 0) add_bond(prev_c, idx_n, 1.33, params_.bond_k);
    if (prev_ca >= 0) add_bond(prev_ca, idx_ca, 3.80, params_.bond_k * 0.5);
    if (idx_cb >= 0) add_bond(idx_ca, idx_cb, 1.53, params_.sidechain_ideality_k);
    if (idx_sc >= 0) {
      // Ideal SC reach depends on residue bulk (mirrors the builder).
      const double reach = 1.8 + 0.23 * static_cast<double>(std::max(0, r.heavy_atoms - 5));
      add_bond(idx_ca, idx_sc, reach, params_.sidechain_ideality_k);
    }
    prev_c = idx_c;
    prev_ca = idx_ca;
  }

  // Virtual CA angles restrained to the input geometry.
  for (std::size_t i = 1; i + 1 < ca_atom_index_.size(); ++i) {
    const int a = ca_atom_index_[i - 1];
    const int b = ca_atom_index_[i];
    const int c = ca_atom_index_[i + 1];
    const Vec3 v1 = restraint_centers_[static_cast<std::size_t>(a)] -
                    restraint_centers_[static_cast<std::size_t>(b)];
    const Vec3 v2 = restraint_centers_[static_cast<std::size_t>(c)] -
                    restraint_centers_[static_cast<std::size_t>(b)];
    const double denom = v1.norm() * v2.norm();
    const double cosang = denom > 1e-9 ? std::clamp(v1.dot(v2) / denom, -1.0, 1.0) : 0.0;
    angles_.push_back({a, b, c, std::acos(cosang)});
  }
}

void ForceField::add_bond(int a, int b, double r0, double k) {
  bonds_.push_back({a, b, r0, k});
}

namespace {

// Pairwise CA repulsion via a cell grid keyed on the cutoff.
template <typename PairFn>
void for_each_close_ca_pair(const std::vector<Vec3>& coords, const std::vector<int>& ca_idx,
                            double cutoff, PairFn&& fn) {
  std::vector<Vec3> ca(ca_idx.size());
  for (std::size_t i = 0; i < ca_idx.size(); ++i) {
    ca[i] = coords[static_cast<std::size_t>(ca_idx[i])];
  }
  CellGrid grid(cutoff);
  grid.build(ca);
  const double cutoff2 = cutoff * cutoff;
  for (std::size_t i = 0; i < ca.size(); ++i) {
    grid.for_each_candidate(i, [&](std::size_t j) {
      if (j <= i || j - i < 2) return;  // nonlocal pairs only
      if (distance2(ca[i], ca[j]) < cutoff2) fn(i, j);
    });
  }
}

}  // namespace

double ForceField::energy_and_gradient(const std::vector<Vec3>& coords,
                                       std::vector<Vec3>& grad) const {
  grad.assign(natoms_, Vec3{});
  double e = 0.0;

  for (const Bond& b : bonds_) {
    const Vec3 d = coords[static_cast<std::size_t>(b.a)] - coords[static_cast<std::size_t>(b.b)];
    const double r = d.norm();
    if (r < 1e-9) continue;
    const double dr = r - b.r0;
    e += b.k * dr * dr;
    const Vec3 f = d * (2.0 * b.k * dr / r);
    grad[static_cast<std::size_t>(b.a)] += f;
    grad[static_cast<std::size_t>(b.b)] -= f;
  }

  for (const Angle& a : angles_) {
    const Vec3 v1 = coords[static_cast<std::size_t>(a.a)] - coords[static_cast<std::size_t>(a.b)];
    const Vec3 v2 = coords[static_cast<std::size_t>(a.c)] - coords[static_cast<std::size_t>(a.b)];
    const double n1 = v1.norm();
    const double n2 = v2.norm();
    if (n1 < 1e-9 || n2 < 1e-9) continue;
    const double cosang = std::clamp(v1.dot(v2) / (n1 * n2), -0.999999, 0.999999);
    const double theta = std::acos(cosang);
    const double dtheta = theta - a.theta0;
    e += params_.angle_k * dtheta * dtheta;
    // dtheta/dcos = -1/sin(theta); chain rule through the cosine.
    const double sin_theta = std::sqrt(1.0 - cosang * cosang);
    const double coeff = 2.0 * params_.angle_k * dtheta * (-1.0 / sin_theta);
    const Vec3 dcos_da = (v2 / (n1 * n2)) - v1 * (cosang / (n1 * n1));
    const Vec3 dcos_dc = (v1 / (n1 * n2)) - v2 * (cosang / (n2 * n2));
    grad[static_cast<std::size_t>(a.a)] += dcos_da * coeff;
    grad[static_cast<std::size_t>(a.c)] += dcos_dc * coeff;
    grad[static_cast<std::size_t>(a.b)] -= (dcos_da + dcos_dc) * coeff;
  }

  // Repulsive wall on nonlocal CA pairs.
  for_each_close_ca_pair(
      coords, ca_atom_index_, params_.repulsion_cutoff, [&](std::size_t i, std::size_t j) {
        const int ai = ca_atom_index_[i];
        const int aj = ca_atom_index_[j];
        const Vec3 d =
            coords[static_cast<std::size_t>(ai)] - coords[static_cast<std::size_t>(aj)];
        const double r = d.norm();
        if (r < 1e-9 || r >= params_.repulsion_cutoff) return;
        const double pen = params_.repulsion_cutoff - r;
        e += params_.repulsion_k * pen * pen;
        const Vec3 f = d * (-2.0 * params_.repulsion_k * pen / r);
        grad[static_cast<std::size_t>(ai)] += f;
        grad[static_cast<std::size_t>(aj)] -= f;
      });

  // Positional restraints on every modeled heavy atom.
  for (std::size_t i = 0; i < natoms_; ++i) {
    const Vec3 d = coords[i] - restraint_centers_[i];
    e += params_.restraint_k * d.norm2();
    grad[i] += d * (2.0 * params_.restraint_k);
  }
  return e;
}

}  // namespace sf
