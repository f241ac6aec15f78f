#include "geom/structure.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sf {

std::string Structure::sequence_string() const {
  std::string s;
  s.reserve(residues_.size());
  for (const auto& r : residues_) s += r.aa;
  return s;
}

std::vector<Vec3> Structure::ca_coords() const {
  std::vector<Vec3> ca;
  ca.reserve(residues_.size());
  for (const auto& r : residues_) ca.push_back(r.ca);
  return ca;
}

void Structure::set_ca_coords(const std::vector<Vec3>& ca) {
  if (ca.size() != residues_.size()) {
    throw std::invalid_argument("set_ca_coords: size mismatch");
  }
  for (std::size_t i = 0; i < ca.size(); ++i) residues_[i].ca = ca[i];
}

std::vector<Vec3> Structure::all_atom_coords() const {
  std::vector<Vec3> pts;
  pts.reserve(residues_.size() * 6);
  for (const auto& r : residues_) {
    pts.push_back(r.n);
    pts.push_back(r.ca);
    pts.push_back(r.c);
    pts.push_back(r.o);
    if (r.has_cb) pts.push_back(r.cb);
    if (r.has_sc) pts.push_back(r.sc);
  }
  return pts;
}

void Structure::set_all_atom_coords(const std::vector<Vec3>& coords) {
  std::size_t k = 0;
  for (auto& r : residues_) {
    if (k + 4 > coords.size()) throw std::invalid_argument("set_all_atom_coords: too few coords");
    r.n = coords[k++];
    r.ca = coords[k++];
    r.c = coords[k++];
    r.o = coords[k++];
    if (r.has_cb) {
      if (k >= coords.size()) throw std::invalid_argument("set_all_atom_coords: too few coords");
      r.cb = coords[k++];
    }
    if (r.has_sc) {
      if (k >= coords.size()) throw std::invalid_argument("set_all_atom_coords: too few coords");
      r.sc = coords[k++];
    }
  }
  if (k != coords.size()) throw std::invalid_argument("set_all_atom_coords: too many coords");
}

long Structure::heavy_atom_count() const {
  long n = 0;
  for (const auto& r : residues_) n += r.heavy_atoms;
  return n;
}

void Structure::transform(const Superposition& sp) {
  for (auto& r : residues_) {
    r.n = sp.apply(r.n);
    r.ca = sp.apply(r.ca);
    r.c = sp.apply(r.c);
    r.o = sp.apply(r.o);
    if (r.has_cb) r.cb = sp.apply(r.cb);
    if (r.has_sc) r.sc = sp.apply(r.sc);
  }
}

Vec3 Structure::centroid_ca() const {
  Vec3 c;
  if (residues_.empty()) return c;
  for (const auto& r : residues_) c += r.ca;
  return c / static_cast<double>(residues_.size());
}

double Structure::radius_of_gyration() const {
  if (residues_.empty()) return 0.0;
  const Vec3 c = centroid_ca();
  double s = 0.0;
  for (const auto& r : residues_) s += distance2(r.ca, c);
  return std::sqrt(s / static_cast<double>(residues_.size()));
}

}  // namespace sf
