// Surrogate folding engine.
//
// Stands in for AlphaFold2's Evoformer + structure module. The engine is
// NOT a neural network; it is a generative model of AlphaFold's
// *observable behaviour*, built so that every quantity the paper measures
// emerges from real computation rather than being scripted:
//
//   * Each target has a hidden native structure (bio::FoldUniverse). A
//     prediction starts from a smooth, badly-displaced conformation and
//     each recycle contracts the displacement field toward a residual
//     floor; coordinates are real, so TM-score / lDDT / SPECS / clash
//     counts are computed, not sampled.
//   * The residual floor is set by the input features (MSA effective
//     depth -- "the MSAs dictate the final quality", §3.2.1), the target's
//     latent hardness, template availability, and the per-model skill of
//     the five released weight sets.
//   * Convergence is observed through the same signal AlphaFold exposes:
//     the inter-recycle distogram change (geom::Distogram), which drives
//     the ColabFold-style early-stop of the genome/super presets.
//   * Hard targets converge slowly and keep a recycling-noise level that
//     can exceed the `super` tolerance, reproducing the paper's finding
//     that improvement concentrates in few targets recycled ~19-20x.
//   * Model error is dominated by *rigid displacement of structural
//     domains* plus a small AR(1)-smooth local field -- which is what
//     makes local confidence (pLDDT) systematically higher than global
//     (pTMS), as in every real AlphaFold deployment. A soft declash +
//     chain-continuity pass mimics the structure module's implicit
//     steric resolution; sparse "spike" residues and rare collapsed
//     segments leave the residual clash/bump load relaxation later
//     removes (§4.4 statistics).
//
// Confidence heads (pLDDT, pTMS) return noisy estimates of the true
// metrics, as AlphaFold's heads do.
#pragma once

#include <cstdint>
#include <vector>

#include "bio/proteome.hpp"
#include "fold/presets.hpp"
#include "geom/structure.hpp"
#include "seqsearch/msa.hpp"
#include "util/rng.hpp"

namespace sf {

// One of the five released model weight sets. Models 1-2 consume
// structural templates; 3-5 are sequence-only (§3.2.1).
struct ModelWeights {
  int model_id = 1;  // 1..5
  bool uses_templates = false;
  double skill = 1.0;  // small systematic quality multiplier
};
std::vector<ModelWeights> five_models();

struct RecycleTrace {
  int recycles_run = 0;
  bool converged = false;               // stopped by tolerance (vs cap)
  std::vector<double> distogram_changes;  // one entry per recycle >= 1
};

struct Prediction {
  Structure structure;  // predicted (unrelaxed) model
  int model_id = 1;
  double plddt = 0.0;   // predicted local confidence, 0-100
  double ptms = 0.0;    // predicted TM-score, 0-1
  RecycleTrace trace;
  int ensembles = 1;
  // Ground-truth diagnostics (the synthetic world knows its natives;
  // real deployments do not have these):
  double true_tm = 0.0;
  double true_lddt = 0.0;
  bool out_of_memory = false;  // task aborted; structure empty
};

struct EngineParams {
  // Error-amplitude floor (A): floor = floor_base + floor_hardness *
  // h_eff, with h_eff in [0,1] blending record hardness and MSA
  // shallowness. Amplitude drives rigid domain displacement plus local
  // noise (below).
  double floor_base = 1.5;
  double floor_hardness = 13.5;
  // Initial amplitude above the floor (A).
  double init_excess = 5.0;
  // Per-recycle contraction rate eta = eta_base * (1 - eta_hardness * h_eff):
  // hard targets drift toward their floor slowly.
  double eta_base = 0.55;
  double eta_hardness = 0.85;
  // Fresh per-recycle exploration amplitude (A): a_j = jitter_base +
  // jitter_hardness * h_eff^jitter_exponent. Hard targets keep rearranging between
  // recycles, which holds their distogram change above the convergence
  // tolerance -- the mechanism that makes dynamic presets spend ~19-20
  // recycles exactly on the targets that profit from them.
  double jitter_base = 0.02;
  double jitter_hardness = 1.8;
  double jitter_exponent = 4.0;
  // Scale mapping our reduced-model distogram change to AlphaFold
  // distogram-change units, so the paper's 0.5/0.1 tolerances apply.
  double distogram_gain = 16.0;
  // --- error geometry -------------------------------------------------
  // Model error is dominated by rigid displacement of structural domains
  // (orientation/packing errors) with only a small fraction of the
  // amplitude appearing as intra-domain distortion. This is AlphaFold's
  // signature: high local confidence (pLDDT) with lower global accuracy
  // (pTMS) on multi-domain targets, while short single-domain chains
  // superpose almost perfectly.
  double mean_domain_length = 70.0;  // residues per rigid domain (min 25)
  double rot_rad_per_A = 0.05;       // domain rotation per A of amplitude
  double local_fraction = 0.12;      // share of amplitude as local noise
  double local_smoothness = 0.90;    // AR(1) alpha of the local field
  // --- violation statistics (§4.4 inputs) ------------------------------
  // AlphaFold's structure module resolves most steric overlap itself;
  // the engine mimics that with a soft declash pass on the final
  // coordinates, leaving only the sparse residual violations relaxation
  // exists to clean up.
  int declash_iterations = 30;
  double declash_target_A = 3.75;  // push nonlocal CA pairs out to here
  double declash_step = 0.4;
  // Mean spike residues per 100 residues (local distortions -> bumps).
  double spike_rate_per100 = 1.2;
  double spike_sigma = 1.6;
  // Rare pathological models (the paper's 148-bump outlier): probability
  // that a model keeps a collapsed segment.
  double bad_segment_probability = 0.03;
  int bad_segment_length = 7;
  // Independent sidechain pseudo-atom noise (A): the imperfection the
  // force field's ideality terms later regularize (Fig. 3's slight
  // SPECS gains).
  double sidechain_noise = 0.35;
  // Confidence head noise (1-ensemble); shrinks with sqrt(ensembles).
  double plddt_head_sd = 3.5;
  double ptms_head_sd = 0.025;
  // Neff at which MSA stops being the bottleneck.
  double neff_saturation = 24.0;
  // Weight of MSA shallowness vs latent hardness in h_eff.
  double msa_weight = 0.45;
  // Template bonus subtracted from h_eff when templates are available
  // and the model consumes them.
  double template_bonus = 0.06;
  // Per-model memory budget: a prediction that needs more is an OOM.
  double memory_budget_gb = 16.0;
};

class FoldingEngine {
 public:
  explicit FoldingEngine(const FoldUniverse& universe, EngineParams params = {});

  const EngineParams& params() const { return params_; }

  // Run one inference task: (target, features, model weights, preset).
  // Deterministic in all arguments (per-task RNG derived from the record
  // seed and model id).
  Prediction predict(const ProteinRecord& record, const InputFeatures& features,
                     const ModelWeights& model, const PresetConfig& preset) const;

  // Any subset of the five models for one target, in the order given,
  // from one native build (none when the target is over the memory
  // budget or `models` is empty). Each prediction is bit-identical to
  // predict() for that model.
  std::vector<Prediction> predict_models(const ProteinRecord& record,
                                         const InputFeatures& features,
                                         const std::vector<ModelWeights>& models,
                                         const PresetConfig& preset) const;

  // All five models for a target, in model order: predict_models over
  // five_models(). top_model_index picks the one the paper keeps (the
  // highest pTMS, §4).
  std::vector<Prediction> predict_all_models(const ProteinRecord& record,
                                             const InputFeatures& features,
                                             const PresetConfig& preset) const;

  // Effective hardness in [0,1] used for floors and rates (exposed for
  // tests and calibration).
  double effective_hardness(const ProteinRecord& record, const InputFeatures& features,
                            const ModelWeights& model) const;

 private:
  // One model against a rendered native; the caller has already checked
  // the memory budget.
  Prediction predict_with_native(const ProteinRecord& record, const InputFeatures& features,
                                 const ModelWeights& model, const PresetConfig& preset,
                                 const Structure& native) const;

  const FoldUniverse* universe_;
  EngineParams params_;
};

// Pick the best prediction by pTMS (the paper's ranking criterion);
// OOM-failed predictions are skipped. Returns index into `preds`, or -1
// if none succeeded.
int top_model_index(const std::vector<Prediction>& preds);

}  // namespace sf
