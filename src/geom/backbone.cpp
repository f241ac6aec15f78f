#include "geom/backbone.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "geom/cell_grid.hpp"

namespace sf {

namespace {

constexpr double kDeg = std::numbers::pi / 180.0;

// Characteristic CA virtual-bond internal coordinates per SS class
// (values from CA-trace statistics of real proteins).
struct VirtualGeom {
  double theta_deg;   // virtual bond angle CA(i-2)-CA(i-1)-CA(i)
  double tau_deg;     // virtual torsion CA(i-3)..CA(i)
  double theta_sd;    // jitter (degrees)
  double tau_sd;
};

VirtualGeom geom_for(char ss) {
  if (is_helix(ss)) return {89.0, 50.5, 3.0, 6.0};
  if (is_strand(ss)) return {123.0, -170.0, 5.0, 15.0};
  return {110.0, 0.0, 25.0, 0.0};  // coil: tau drawn uniformly by caller
}

// Place the next point given the previous three, using NeRF-style
// conversion from internal coordinates (bond b, angle theta, torsion tau).
Vec3 place_next(const Vec3& p3, const Vec3& p2, const Vec3& p1, double b, double theta,
                double tau) {
  const Vec3 bc = (p1 - p2).normalized();
  Vec3 n = (p2 - p3).cross(bc);
  if (n.norm2() < 1e-12) n = bc.cross(Vec3{0.0, 0.0, 1.0});
  if (n.norm2() < 1e-12) n = bc.cross(Vec3{0.0, 1.0, 0.0});
  n = n.normalized();
  const Vec3 m = n.cross(bc);
  const Vec3 d{-b * std::cos(theta), b * std::sin(theta) * std::cos(tau),
               b * std::sin(theta) * std::sin(tau)};
  return p1 + bc * d.x + m * d.y + n * d.z;
}

std::vector<Vec3> grow_candidate(const std::string& ss, Rng& rng, const CaTraceParams& params) {
  const std::size_t n = ss.size();
  std::vector<double> theta(n, 110.0 * kDeg);
  std::vector<double> tau(n, 0.0);
  for (std::size_t i = 3; i < n; ++i) {
    const VirtualGeom g = geom_for(ss[i]);
    theta[i] = rng.normal(g.theta_deg, g.theta_sd) * kDeg;
    if (is_helix(ss[i]) || is_strand(ss[i])) {
      tau[i] = rng.normal(g.tau_deg, g.tau_sd) * kDeg;
    } else {
      // Coil torsions set the mutual packing of secondary-structure
      // elements; drawing them uniformly is what makes distinct seeds
      // produce distinct folds.
      tau[i] = rng.uniform(-std::numbers::pi, std::numbers::pi);
    }
  }
  if (n > 2) theta[2] = geom_for(ss[2]).theta_deg * kDeg;
  return place_ca_chain(theta, tau, params.bond_length);
}

}  // namespace

std::vector<Vec3> place_ca_chain(const std::vector<double>& theta_rad,
                                 const std::vector<double>& tau_rad, double bond_length) {
  const std::size_t n = theta_rad.size();
  std::vector<Vec3> trace;
  trace.reserve(n);
  if (n == 0) return trace;
  trace.push_back({0.0, 0.0, 0.0});
  if (n > 1) trace.push_back({bond_length, 0.0, 0.0});
  if (n > 2) {
    const double th = theta_rad[2];
    trace.push_back(trace[1] + Vec3{-bond_length * std::cos(th), bond_length * std::sin(th),
                                    0.0});
  }
  for (std::size_t i = 3; i < n; ++i) {
    trace.push_back(place_next(trace[i - 3], trace[i - 2], trace[i - 1], bond_length,
                               theta_rad[i], tau_rad[i]));
  }
  return trace;
}

ChainQuality evaluate_chain(const std::vector<Vec3>& trace, double clash_floor) {
  ChainQuality q;
  const std::size_t n = trace.size();
  if (n == 0) return q;
  Vec3 c;
  for (const auto& p : trace) c += p;
  c = c / static_cast<double>(n);
  double s = 0.0;
  for (const auto& p : trace) s += distance2(p, c);
  q.radius_of_gyration = std::sqrt(s / static_cast<double>(n));
  const double floor2 = clash_floor * clash_floor;
  for (std::size_t i = 0; i + 4 < n; ++i) {
    for (std::size_t j = i + 4; j < n; ++j) {
      if (distance2(trace[i], trace[j]) < floor2) ++q.overlaps;
    }
  }
  return q;
}

bool is_helix(char ss) { return ss == 'H' || ss == 'G' || ss == 'I'; }
bool is_strand(char ss) { return ss == 'E' || ss == 'B'; }

SsGeometry ss_geometry(char ss) {
  const VirtualGeom g = geom_for(ss);
  return {g.theta_deg, g.tau_deg, g.theta_sd, g.tau_sd};
}

void resolve_steric_overlap(std::vector<Vec3>& ca, int iterations, double target_A,
                            double step) {
  const double target2 = target_A * target_A;
  std::vector<Vec3> push(ca.size());
  CellGrid grid(target_A);
  for (int it = 0; it < iterations; ++it) {
    grid.build(ca);
    std::fill(push.begin(), push.end(), Vec3{});
    bool any = false;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      grid.for_each_candidate(i, [&](std::size_t j) {
        if (j <= i || j - i < 2) return;
        const double d2 = distance2(ca[i], ca[j]);
        if (d2 >= target2 || d2 < 1e-12) return;
        const double d = std::sqrt(d2);
        const Vec3 dir = (ca[i] - ca[j]) / d;
        const double move = 0.5 * step * (target_A - d);
        push[i] += dir * move;
        push[j] -= dir * move;
        any = true;
      });
    }
    if (!any) break;
    // Clamp per-residue displacement: crowded regions accumulate pushes
    // from many pairs and would otherwise overshoot and oscillate.
    for (std::size_t i = 0; i < ca.size(); ++i) {
      const double norm = push[i].norm();
      ca[i] += norm > 0.6 ? push[i] * (0.6 / norm) : push[i];
    }
  }
}

void enforce_chain_continuity(std::vector<Vec3>& ca, int iterations, double bond,
                              double slack) {
  for (int it = 0; it < iterations; ++it) {
    bool any = false;
    for (std::size_t i = 1; i < ca.size(); ++i) {
      const double d = distance(ca[i - 1], ca[i]);
      if (d <= bond + slack || d < 1e-9) continue;
      const Vec3 dir = (ca[i] - ca[i - 1]) / d;
      const double fix = 0.5 * (d - bond);
      ca[i] -= dir * fix;
      ca[i - 1] += dir * fix;
      any = true;
    }
    if (!any) break;
  }
}

std::vector<Vec3> build_ca_trace(const std::string& ss, Rng& rng, const CaTraceParams& params) {
  if (ss.empty()) return {};
  std::vector<Vec3> best;
  double best_score = std::numeric_limits<double>::infinity();
  const int tries = std::max(1, params.candidates);
  for (int t = 0; t < tries; ++t) {
    std::vector<Vec3> cand = grow_candidate(ss, rng, params);
    const ChainQuality q = evaluate_chain(cand, params.clash_floor);
    // Globular proteins have Rg ~ 2.2 * N^0.38; penalize deviation from
    // that and penalize chain self-overlap heavily.
    const double ideal_rg = 2.2 * std::pow(static_cast<double>(ss.size()), 0.38);
    const double score = std::abs(q.radius_of_gyration - ideal_rg) + 25.0 * q.overlaps;
    if (score < best_score) {
      best_score = score;
      best = std::move(cand);
    }
  }
  return best;
}

void build_full_atoms(Structure& s) {
  const std::size_t n = s.size();
  if (n == 0) return;
  auto tangent_prev = [&](std::size_t i) -> Vec3 {
    if (n == 1) return {1.0, 0.0, 0.0};
    if (i == 0) return (s.residue(1).ca - s.residue(0).ca).normalized();
    return (s.residue(i).ca - s.residue(i - 1).ca).normalized();
  };
  auto tangent_next = [&](std::size_t i) -> Vec3 {
    if (n == 1) return {1.0, 0.0, 0.0};
    if (i + 1 == n) return (s.residue(i).ca - s.residue(i - 1).ca).normalized();
    return (s.residue(i + 1).ca - s.residue(i).ca).normalized();
  };

  for (std::size_t i = 0; i < n; ++i) {
    Residue& r = s.residue(i);
    const Vec3 tp = tangent_prev(i);
    const Vec3 tn = tangent_next(i);
    Vec3 up = tp.cross(tn);
    if (up.norm2() < 1e-8) {
      // Straight chain locally: pick any perpendicular.
      up = tp.cross(Vec3{0.0, 0.0, 1.0});
      if (up.norm2() < 1e-8) up = tp.cross(Vec3{0.0, 1.0, 0.0});
    }
    up = up.normalized();
    Vec3 out = tp - tn;  // points away from local curvature
    if (out.norm2() < 1e-8) out = up.cross(tp);
    out = out.normalized();

    r.n = r.ca - (tp * 0.82 + up * 0.57).normalized() * 1.46;
    r.c = r.ca + (tn * 0.82 - up * 0.57).normalized() * 1.52;
    r.o = r.c + (up * 0.9 - tn * 0.44).normalized() * 1.23;
    if (r.has_cb) {
      r.cb = r.ca + (out * 0.74 + up * 0.67).normalized() * 1.53;
    }
    if (r.has_sc) {
      // Centroid of the remaining sidechain heavy atoms sits farther out
      // for bulkier residues; 5 heavy atoms (ALA) -> SC coincides with a
      // short stub, 14 (TRP) -> ~3.9 A from CA.
      const double bulk = std::max(0, r.heavy_atoms - 5);
      const double reach = 1.8 + 0.23 * static_cast<double>(bulk);
      r.sc = r.ca + (out * 0.74 + up * 0.67).normalized() * reach;
    }
  }
}

// The structure fixture of the geometry and relax suites; no product
// builds a structure from a residue spec.
Structure build_structure(const std::string& name,  // sfcheck:allow(U1): fixture of test_backbone, test_forcefield, test_minimize, test_specs
                          const std::vector<ResidueSpec>& spec, const std::string& ss, Rng& rng,
                          const CaTraceParams& params) {
  Structure s(name);
  s.reserve(spec.size());
  for (const auto& rs : spec) {
    Residue r;
    r.aa = rs.aa;
    r.heavy_atoms = rs.heavy_atoms;
    r.has_cb = rs.has_cb;
    r.has_sc = rs.has_sc;
    s.add_residue(r);
  }
  std::string ss_fixed = ss;
  ss_fixed.resize(spec.size(), 'C');
  const auto trace = build_ca_trace(ss_fixed, rng, params);
  s.set_ca_coords(trace);
  build_full_atoms(s);
  return s;
}

}  // namespace sf
