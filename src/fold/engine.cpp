#include "fold/engine.hpp"

#include <algorithm>
#include <cmath>

#include "fold/memory_model.hpp"
#include "geom/backbone.hpp"
#include "geom/distogram.hpp"
#include "native/render.hpp"
#include "score/lddt.hpp"
#include "score/tm_score.hpp"

namespace sf {

std::vector<ModelWeights> five_models() {
  // Skill offsets are small and fixed: the five released parameter sets
  // really do differ slightly and consistently in CASP-style rankings.
  return {
      {1, true, 1.02},
      {2, true, 1.00},
      {3, false, 1.01},
      {4, false, 0.99},
      {5, false, 0.98},
  };
}

FoldingEngine::FoldingEngine(const FoldUniverse& universe, EngineParams params)
    : universe_(&universe), params_(params) {}

double FoldingEngine::effective_hardness(const ProteinRecord& record,
                                         const InputFeatures& features,
                                         const ModelWeights& model) const {
  const double msa_shallow =
      1.0 - std::min(1.0, features.neff / params_.neff_saturation);
  double h = (1.0 - params_.msa_weight) * record.hardness + params_.msa_weight * msa_shallow;
  if (model.uses_templates && features.has_templates) h -= params_.template_bonus;
  // Model skill nudges effective hardness: skill 1.02 ~ 2% easier.
  h -= (model.skill - 1.0);
  return std::clamp(h, 0.0, 1.0);
}

namespace {

// AR(1)-smooth per-residue displacement field with marginal deviation
// sigma per axis (the intra-domain "local" error component).
std::vector<Vec3> smooth_field(std::size_t n, double sigma, double alpha, Rng& rng) {
  std::vector<Vec3> field(n);
  const double innov = std::sqrt(std::max(0.0, 1.0 - alpha * alpha));
  Vec3 state{rng.normal(0.0, sigma), rng.normal(0.0, sigma), rng.normal(0.0, sigma)};
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      state = state * alpha + Vec3{rng.normal(0.0, sigma), rng.normal(0.0, sigma),
                                   rng.normal(0.0, sigma)} *
                                  innov;
    }
    field[i] = state;
  }
  return field;
}

// Partition of the chain into rigid domains (random breakpoints,
// geometric segment lengths) with each domain's native centroid.
struct DomainLayout {
  std::vector<int> domain_of;  // residue -> domain
  std::vector<Vec3> centroid;  // per domain
  int count = 0;
};

DomainLayout make_domains(const Structure& native, double mean_len, Rng& rng) {
  DomainLayout layout;
  const std::size_t n = native.size();
  layout.domain_of.resize(n, 0);
  constexpr int kMinDomain = 25;
  int start = 0;
  int d = 0;
  while (start < static_cast<int>(n)) {
    int len = kMinDomain + static_cast<int>(rng.exponential(1.0 / std::max(1.0, mean_len -
                                                                                   kMinDomain)));
    len = std::max(kMinDomain, len);
    const int end = std::min<int>(static_cast<int>(n), start + len);
    // Avoid a trailing stub shorter than the minimum.
    const bool absorb_tail = static_cast<int>(n) - end < kMinDomain;
    const int real_end = absorb_tail ? static_cast<int>(n) : end;
    for (int i = start; i < real_end; ++i) layout.domain_of[static_cast<std::size_t>(i)] = d;
    start = real_end;
    ++d;
  }
  layout.count = d;
  layout.centroid.assign(static_cast<std::size_t>(d), Vec3{});
  std::vector<int> counts(static_cast<std::size_t>(d), 0);
  for (std::size_t i = 0; i < n; ++i) {
    layout.centroid[static_cast<std::size_t>(layout.domain_of[i])] += native.residue(i).ca;
    ++counts[static_cast<std::size_t>(layout.domain_of[i])];
  }
  for (int k = 0; k < d; ++k) {
    if (counts[static_cast<std::size_t>(k)] > 0) {
      layout.centroid[static_cast<std::size_t>(k)] =
          layout.centroid[static_cast<std::size_t>(k)] /
          static_cast<double>(counts[static_cast<std::size_t>(k)]);
    }
  }
  return layout;
}

// A rigid perturbation "direction" per domain: unit rotation axis with a
// Gaussian angular gain, plus a Gaussian translation direction. Scaling
// by amplitude `a` yields a rotation of gain * rot_rad_per_A * a radians
// about the domain centroid and a translation of trans * a.
struct RigidDirections {
  std::vector<Vec3> axis;
  std::vector<double> ang_gain;
  std::vector<Vec3> trans;  // per-A translation vector
};

RigidDirections make_rigid_directions(int domains, Rng& rng) {
  RigidDirections dirs;
  dirs.axis.reserve(static_cast<std::size_t>(domains));
  dirs.ang_gain.reserve(static_cast<std::size_t>(domains));
  dirs.trans.reserve(static_cast<std::size_t>(domains));
  for (int d = 0; d < domains; ++d) {
    Vec3 axis{rng.normal(), rng.normal(), rng.normal()};
    dirs.axis.push_back(axis.normalized());
    dirs.ang_gain.push_back(rng.normal());
    dirs.trans.push_back(Vec3{rng.normal(0.0, 0.58), rng.normal(0.0, 0.58),
                              rng.normal(0.0, 0.58)});
  }
  return dirs;
}

// Apply one rigid perturbation at amplitude `a` to per-residue points.
void apply_rigid(std::vector<Vec3>& pts, const std::vector<int>& domain_of,
                 const std::vector<Vec3>& centroids, const RigidDirections& dirs, double a,
                 double rot_rad_per_A) {
  if (a <= 0.0) return;
  std::vector<Mat3> rot(centroids.size());
  for (std::size_t d = 0; d < centroids.size(); ++d) {
    rot[d] = rotation_about_axis(dirs.axis[d], dirs.ang_gain[d] * rot_rad_per_A * a);
  }
  for (std::size_t i = 0; i < pts.size(); ++i) {
    const auto d = static_cast<std::size_t>(domain_of[i]);
    pts[i] = rot[d] * (pts[i] - centroids[d]) + centroids[d] + dirs.trans[d] * a;
  }
}

void set_coords_from_ca_offsets(Structure& s, const Structure& native,
                                const std::vector<Vec3>& perturbed_ca) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    Residue& r = s.residue(i);
    const Residue& nat = native.residue(i);
    const Vec3 d = perturbed_ca[i] - nat.ca;
    r.n = nat.n + d;
    r.ca = perturbed_ca[i];
    r.c = nat.c + d;
    r.o = nat.o + d;
    if (r.has_cb) r.cb = nat.cb + d;
    if (r.has_sc) r.sc = nat.sc + d;
  }
}

}  // namespace

Prediction FoldingEngine::predict(const ProteinRecord& record, const InputFeatures& features,
                                  const ModelWeights& model, const PresetConfig& preset) const {
  return predict_models(record, features, {model}, preset).front();
}

std::vector<Prediction> FoldingEngine::predict_models(const ProteinRecord& record,
                                                      const InputFeatures& features,
                                                      const std::vector<ModelWeights>& models,
                                                      const PresetConfig& preset) const {
  std::vector<Prediction> preds;
  preds.reserve(models.size());
  // Fast-fail before paying for the native build.
  if (inference_memory_gb(record.length(), preset.ensembles) > params_.memory_budget_gb) {
    for (const auto& model : models) {
      Prediction pred;
      pred.model_id = model.model_id;
      pred.ensembles = preset.ensembles;
      pred.out_of_memory = true;
      preds.push_back(std::move(pred));
    }
    return preds;
  }
  if (models.empty()) return preds;
  // One native build shared by every model.
  const Structure native = build_native_structure(*universe_, record);
  for (const auto& model : models) {
    preds.push_back(predict_with_native(record, features, model, preset, native));
  }
  return preds;
}

Prediction FoldingEngine::predict_with_native(const ProteinRecord& record,
                                              const InputFeatures& features,
                                              const ModelWeights& model,
                                              const PresetConfig& preset,
                                              const Structure& native) const {
  Prediction pred;
  pred.model_id = model.model_id;
  pred.ensembles = preset.ensembles;

  const int length = record.length();
  Rng rng(record.record_seed, mix64(0x1FE2, static_cast<std::uint64_t>(model.model_id)));
  const std::size_t n = native.size();

  const double h = effective_hardness(record, features, model);
  const double floor_amp = params_.floor_base + params_.floor_hardness * h;
  const double eta =
      std::clamp(params_.eta_base * (1.0 - params_.eta_hardness * h), 0.03, 0.95);
  const double jitter_amp =
      params_.jitter_base + params_.jitter_hardness * std::pow(h, params_.jitter_exponent);

  // Persistent error directions: the residual floor and an excess whose
  // amplitude contracts by (1 - eta) per recycle; both act as rigid
  // domain perturbations plus an AR(1) local field.
  Rng field_rng = rng.split("fields");
  const DomainLayout domains = make_domains(native, params_.mean_domain_length, field_rng);
  const RigidDirections floor_dirs = make_rigid_directions(domains.count, field_rng);
  const RigidDirections excess_dirs = make_rigid_directions(domains.count, field_rng);
  const auto local_unit = smooth_field(n, 1.0, params_.local_smoothness, field_rng);

  Structure current = native;  // topology copy; coordinates overwritten below
  current.set_name(record.sequence.id() + "_model" + std::to_string(model.model_id));
  const auto native_ca = native.ca_coords();

  const int max_recycles = effective_max_recycles(preset, length);
  const bool dynamic = preset.dynamic_recycling;

  double excess = params_.init_excess;
  Distogram prev_disto;
  Rng noise_rng = rng.split("recycle_noise");
  std::vector<Vec3> ca(n);

  // Recycle 0 is the initial inference pass; recycles 1..max re-feed the
  // model. Convergence is judged from recycle 1 on (needs a predecessor).
  for (int r = 0; r <= max_recycles; ++r) {
    if (r > 0) excess *= (1.0 - eta);
    ca = native_ca;
    apply_rigid(ca, domains.domain_of, domains.centroid, floor_dirs, floor_amp,
                params_.rot_rad_per_A);
    apply_rigid(ca, domains.domain_of, domains.centroid, excess_dirs, excess,
                params_.rot_rad_per_A);
    const RigidDirections jitter_dirs = make_rigid_directions(domains.count, noise_rng);
    apply_rigid(ca, domains.domain_of, domains.centroid, jitter_dirs, jitter_amp,
                params_.rot_rad_per_A);
    // Local (intra-domain) error: persistent direction scaled by the
    // current amplitude, plus a fresh component from the jitter.
    const double local_amp = params_.local_fraction * (floor_amp + excess + jitter_amp);
    const auto local_fresh = smooth_field(n, params_.local_fraction * jitter_amp,
                                          params_.local_smoothness, noise_rng);
    for (std::size_t i = 0; i < n; ++i) {
      ca[i] += local_unit[i] * local_amp + local_fresh[i];
    }
    // The structure module's own steric/continuity resolution (cheap on
    // intermediate recycles -- a handful of iterations is enough for the
    // convergence signal; a full pass runs on the final coordinates).
    enforce_chain_continuity(ca, 10);
    resolve_steric_overlap(ca, 6, params_.declash_target_A, params_.declash_step);
    set_coords_from_ca_offsets(current, native, ca);
    Distogram disto(current.ca_coords());
    if (r > 0) {
      const double change = params_.distogram_gain * disto.mean_abs_change(prev_disto);
      pred.trace.distogram_changes.push_back(change);
      pred.trace.recycles_run = r;
      if (dynamic && r >= preset.min_dynamic_recycles && change < preset.convergence_tol_A) {
        pred.trace.converged = true;
        prev_disto = std::move(disto);
        break;
      }
    }
    prev_disto = std::move(disto);
  }

  // Full steric + continuity resolution on the final coordinates
  // (interleaved: each repair can mildly disturb the other).
  for (int round = 0; round < 4; ++round) {
    enforce_chain_continuity(ca, 20);
    resolve_steric_overlap(ca, params_.declash_iterations / 4 + 1, params_.declash_target_A,
                           params_.declash_step);
  }
  enforce_chain_continuity(ca, 20);
  set_coords_from_ca_offsets(current, native, ca);

  // Independent sidechain imperfection: CB/SC pseudo-atoms drift a little
  // off their ideal geometry (what the relaxation force field's ideality
  // terms later regularize -- Fig. 3's slight SPECS gains).
  Rng sc_rng = rng.split("sidechains");
  for (std::size_t i = 0; i < n; ++i) {
    Residue& res = current.residue(i);
    if (res.has_cb) {
      res.cb += Vec3{sc_rng.normal(0.0, params_.sidechain_noise),
                     sc_rng.normal(0.0, params_.sidechain_noise),
                     sc_rng.normal(0.0, params_.sidechain_noise)};
    }
    if (res.has_sc) {
      res.sc += Vec3{sc_rng.normal(0.0, params_.sidechain_noise),
                     sc_rng.normal(0.0, params_.sidechain_noise),
                     sc_rng.normal(0.0, params_.sidechain_noise)};
    }
  }

  // Sparse local distortions: the non-physical kinks relaxation exists to
  // fix. Poisson count scaled by length; each spikes one residue's atoms
  // with uncorrelated noise.
  Rng spike_rng = rng.split("spikes");
  const double expected_spikes =
      params_.spike_rate_per100 * static_cast<double>(length) / 100.0;
  int spikes = 0;
  {  // Poisson via exponential gaps.
    double acc = spike_rng.exponential(1.0);
    while (acc < expected_spikes) {
      ++spikes;
      acc += spike_rng.exponential(1.0);
    }
  }
  for (int k = 0; k < spikes; ++k) {
    const auto idx = static_cast<std::size_t>(
        spike_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    Residue& r = current.residue(idx);
    const Vec3 d{spike_rng.normal(0.0, params_.spike_sigma),
                 spike_rng.normal(0.0, params_.spike_sigma),
                 spike_rng.normal(0.0, params_.spike_sigma)};
    r.n += d;
    r.ca += d;
    r.c += d;
    r.o += d;
    if (r.has_cb) r.cb += d;
    if (r.has_sc) r.sc += d;
  }

  // Rare pathological model: a short segment collapses onto another part
  // of the chain (the long tail of §4.4's bump distribution -- the paper
  // saw up to 148 bumps in one structure).
  if (spike_rng.chance(params_.bad_segment_probability) &&
      n > static_cast<std::size_t>(3 * params_.bad_segment_length)) {
    const auto seg_start = static_cast<std::size_t>(spike_rng.uniform_int(
        0, static_cast<std::int64_t>(n) - params_.bad_segment_length - 1));
    const auto target_res = static_cast<std::size_t>(
        spike_rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    const Vec3 target_pos = current.residue(target_res).ca;
    for (int j = 0; j < params_.bad_segment_length; ++j) {
      Residue& r = current.residue(seg_start + static_cast<std::size_t>(j));
      // Pull the segment most of the way onto the target's neighborhood.
      const Vec3 d = (target_pos - r.ca) * 0.92 +
                     Vec3{spike_rng.normal(0.0, 1.2), spike_rng.normal(0.0, 1.2),
                          spike_rng.normal(0.0, 1.2)};
      r.n += d;
      r.ca += d;
      r.c += d;
      r.o += d;
      if (r.has_cb) r.cb += d;
      if (r.has_sc) r.sc += d;
    }
  }

  pred.structure = std::move(current);

  // Ground truth and confidence heads.
  pred.true_tm = tm_score(pred.structure, native).tm_score;
  pred.true_lddt = lddt(pred.structure, native).global;
  Rng head_rng = rng.split("heads");
  const double head_scale = 1.0 / std::sqrt(static_cast<double>(preset.ensembles));
  pred.plddt =
      std::clamp(pred.true_lddt + head_rng.normal(0.0, params_.plddt_head_sd * head_scale),
                 0.0, 100.0);
  pred.ptms = std::clamp(
      pred.true_tm + head_rng.normal(0.0, params_.ptms_head_sd * head_scale), 0.0, 1.0);
  return pred;
}

std::vector<Prediction> FoldingEngine::predict_all_models(const ProteinRecord& record,
                                                          const InputFeatures& features,
                                                          const PresetConfig& preset) const {
  return predict_models(record, features, five_models(), preset);
}

int top_model_index(const std::vector<Prediction>& preds) {
  int best = -1;
  for (std::size_t i = 0; i < preds.size(); ++i) {
    if (preds[i].out_of_memory) continue;
    if (best < 0 || preds[i].ptms > preds[static_cast<std::size_t>(best)].ptms) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

}  // namespace sf
