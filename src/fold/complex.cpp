#include "fold/complex.hpp"

#include <algorithm>
#include <cmath>

#include "fold/memory_model.hpp"
#include "geom/backbone.hpp"
#include "seqsearch/feature_model.hpp"

namespace sf {
namespace {

// A pair's result before docking: what an out-of-memory pair reports.
ComplexPrediction unscored_pair(const ProteinRecord& a, const Interactome& interactome,
                                std::size_t index_a, std::size_t index_b) {
  ComplexPrediction out;
  out.chain_a_length = a.sequence.length();
  out.truly_interacting = interactome.interacts(index_a, index_b);
  return out;
}

}  // namespace

Interactome::Interactome(const std::vector<ProteinRecord>& records, double base_rate,
                         std::uint64_t seed)
    : n_(records.size()), seed_(seed), base_rate_(base_rate) {
  record_seeds_.reserve(n_);
  fold_index_.reserve(n_);
  for (const auto& r : records) {
    record_seeds_.push_back(r.record_seed);
    fold_index_.push_back(r.fold_index);
  }
}

bool Interactome::interacts(std::size_t i, std::size_t j) const {
  if (i == j || i >= n_ || j >= n_) return false;
  if (i > j) std::swap(i, j);
  // Pair-deterministic draw; paralog pairs (same fold family) are
  // enriched, as in real interactomes.
  Rng rng(mix64(record_seeds_[i], record_seeds_[j]), mix64(seed_, 0xC0137));
  const double rate = fold_index_[i] == fold_index_[j] ? base_rate_ * 8.0 : base_rate_;
  return rng.chance(std::min(1.0, rate));
}

std::vector<std::pair<std::size_t, std::size_t>> Interactome::pairs() const {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < n_; ++i) {
    for (std::size_t j = i + 1; j < n_; ++j) {
      if (interacts(i, j)) out.emplace_back(i, j);
    }
  }
  return out;
}

ComplexEngine::ComplexEngine(const FoldUniverse& universe, ComplexEngineParams params)
    : universe_(&universe), params_(params), monomer_engine_(universe, params.engine) {}

ComplexPrediction ComplexEngine::predict_pair(const ProteinRecord& a, const ProteinRecord& b,
                                              const Interactome& interactome,
                                              std::size_t index_a, std::size_t index_b,
                                              const PresetConfig& preset) const {
  return predict_pair(a, b, sample_features(a, LibraryKind::kReduced),
                      sample_features(b, LibraryKind::kReduced), interactome, index_a, index_b,
                      preset);
}

std::array<ModelWeights, 2> ComplexEngine::chain_models() {
  const auto models = five_models();
  return {models[0], models[1]};
}

bool ComplexEngine::combined_out_of_memory(const ProteinRecord& a, const ProteinRecord& b,
                                           const PresetConfig& preset) const {
  // Memory scales with the combined length -- the practical ceiling on
  // complex screening that makes it "especially relevant to HPC".
  return inference_memory_gb(a.length() + b.length(), preset.ensembles) >
         params_.engine.memory_budget_gb;
}

ComplexPrediction ComplexEngine::predict_pair(const ProteinRecord& a, const ProteinRecord& b,
                                              const InputFeatures& fa, const InputFeatures& fb,
                                              const Interactome& interactome,
                                              std::size_t index_a, std::size_t index_b,
                                              const PresetConfig& preset) const {
  if (combined_out_of_memory(a, b, preset)) {
    ComplexPrediction out = unscored_pair(a, interactome, index_a, index_b);
    out.out_of_memory = true;
    return out;
  }
  const auto models = chain_models();
  const Prediction pa = monomer_engine_.predict(a, fa, models[0], preset);
  const Prediction pb = monomer_engine_.predict(b, fb, models[1], preset);
  return assemble(a, b, pa, pb, interactome, index_a, index_b);
}

ComplexPrediction ComplexEngine::assemble(const ProteinRecord& a, const ProteinRecord& b,
                                          const Prediction& pa, const Prediction& pb,
                                          const Interactome& interactome, std::size_t index_a,
                                          std::size_t index_b) const {
  ComplexPrediction out = unscored_pair(a, interactome, index_a, index_b);
  if (pa.out_of_memory || pb.out_of_memory) {
    out.out_of_memory = true;
    return out;
  }
  out.recycles_run = std::max(pa.trace.recycles_run, pb.trace.recycles_run);

  // Binders are docked at touching distance, non-binders drift apart
  // with degraded interface quality.
  Rng rng(mix64(a.record_seed, b.record_seed), 0xAF2C);
  const Structure& chain_a = pa.structure;
  Structure chain_b = pb.structure;

  // Dock chain B along a deterministic direction: slide it along `dir`
  // until the inter-chain surface distance hits the docking gap (the
  // shapes are lumpy, so a radius-of-gyration estimate is not enough --
  // bisect on the actual minimum CA-CA separation).
  Vec3 dir{rng.normal(), rng.normal(), rng.normal()};
  dir = dir.normalized();
  const auto ca_a = chain_a.ca_coords();
  const auto ca_b0 = chain_b.ca_coords();
  const Vec3 center_a = chain_a.centroid_ca();
  const Vec3 center_b = chain_b.centroid_ca();
  auto min_gap_at = [&](double t) {
    // Chain B centered at center_a + dir * t.
    const Vec3 offset = center_a + dir * t - center_b;
    double best = 1e18;
    for (const auto& pb_ca : ca_b0) {
      const Vec3 q = pb_ca + offset;
      for (const auto& pa_ca : ca_a) best = std::min(best, distance2(pa_ca, q));
    }
    return std::sqrt(best);
  };
  const double ra = chain_a.radius_of_gyration();
  const double rb = chain_b.radius_of_gyration();
  const double want_gap = out.truly_interacting ? params_.docked_gap_A
                                                : rng.uniform(12.0, 30.0);
  double lo = 0.0;
  double hi = 2.0 * (ra + rb) + want_gap + 10.0;
  for (int it = 0; it < 30; ++it) {
    const double mid = 0.5 * (lo + hi);
    if (min_gap_at(mid) < want_gap) lo = mid;
    else hi = mid;
  }
  Superposition shift;
  shift.translation = center_a + dir * hi - center_b;
  chain_b.transform(shift);

  // Concatenate into one two-chain structure.
  out.structure = chain_a;
  out.structure.set_name(a.sequence.id() + "+" + b.sequence.id());
  for (std::size_t i = 0; i < chain_b.size(); ++i) out.structure.add_residue(chain_b.residue(i));
  {
    // Resolve interfacial overlap the way the structure module would.
    auto ca = out.structure.ca_coords();
    resolve_steric_overlap(ca, 20, 3.8, 0.4);
    out.structure.set_ca_coords(ca);
  }

  // Interface score head: contact count across the interface saturates
  // toward 1 for well-packed binders, ~0 for separated chains, plus head
  // noise (AF2Complex's iScore behaves the same way).
  std::size_t contacts = 0;
  const double cut2 = params_.interface_contact_A * params_.interface_contact_A;
  for (std::size_t i = 0; i < chain_a.size(); ++i) {
    for (std::size_t j = 0; j < chain_b.size(); ++j) {
      if (distance2(out.structure.residue(i).ca,
                    out.structure.residue(chain_a.size() + j).ca) < cut2) {
        ++contacts;
      }
    }
  }
  const double raw = static_cast<double>(contacts) /
                     (8.0 + static_cast<double>(contacts));
  // Interface quality degrades with poor monomer models.
  const double quality = 0.5 * (pa.true_tm + pb.true_tm);
  out.interface_score =
      std::clamp(raw * quality + rng.normal(0.0, params_.iscore_noise), 0.0, 1.0);
  out.ptms = std::clamp(0.5 * (pa.ptms + pb.ptms) * (out.truly_interacting ? 1.0 : 0.85) +
                            rng.normal(0.0, 0.02),
                        0.0, 1.0);
  return out;
}

MonomerTable::MonomerTable(const ComplexEngine& engine, const std::vector<ProteinRecord>& records,
                           const std::vector<InputFeatures>& features,
                           const PresetConfig& preset,
                           const std::vector<std::pair<std::size_t, std::size_t>>& pairs)
    : engine_(engine), records_(records), features_(features), preset_(preset),
      chains_(records.size()) {
  for (const auto& [a, b] : pairs) {
    if (engine.combined_out_of_memory(records[a], records[b], preset)) continue;
    chains_[a].used[0] = true;
    chains_[b].used[1] = true;
  }
}

const Prediction& MonomerTable::get(std::size_t chain, std::size_t side) {
  Chain& c = chains_[chain];
  if (!c.filled) {
    const auto models = ComplexEngine::chain_models();
    std::vector<ModelWeights> wanted;
    for (std::size_t s = 0; s < 2; ++s) {
      if (c.used[s]) wanted.push_back(models[s]);
    }
    auto preds = engine_.monomer_engine().predict_models(records_[chain], features_[chain],
                                                         wanted, preset_);
    for (std::size_t s = 0, k = 0; s < 2; ++s) {
      if (c.used[s]) c.slot[s] = std::move(preds[k++]);
    }
    c.filled = true;
  }
  return c.slot[side];
}

}  // namespace sf
