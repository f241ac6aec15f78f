// Pairwise-interaction (PPI) screening campaign (§5 at scale).
//
// The production scenario beyond single-chain folding: K chains, all
// K*(K-1)/2 unordered pairs pushed through complex prediction
// (fold/complex.hpp). The economics hinge on the feature/inference
// split: per-chain features are computed ONCE -- the feature stage hits
// the content-addressed store once per chain -- and then reused by
// every pair the chain participates in; the pair-inference stage maps
// over pairs, staging both chains' features back in from the store per
// cold pair. Each chain's monomer models are likewise predicted once
// per screen and docked per cold pair (ComplexEngine::assemble); the
// modeled cost still prices one GPU task per pair. A quadratic
// workload over a linear artifact set is exactly the access pattern
// that punishes FIFO eviction (the oldest features are also the most
// reused) and rewards LRU / cost-aware policies -- see
// store::EvictionPolicy and bench/bench_af2complex.
//
// Every invariant of the single-chain campaign carries over:
//   * store hits and misses never change modeled durations or stage
//     reports -- the report is byte-identical with any store, any
//     eviction policy, or none;
//   * the report is byte-identical across executor backends (simulated,
//     or distributed at any node count) and reruns;
//   * with a journal (opened as JournalKind::kPair), a killed campaign
//     resumes at any journal byte prefix to a bit-identical report, with
//     no pair task billed twice.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "core/stage_context.hpp"
#include "util/stats.hpp"

namespace sf {

struct PairCampaignConfig {
  // Synthetic ground-truth interactome (fold/complex.hpp).
  double interactome_rate = 0.12;
  std::uint64_t interactome_seed = 17;
  // iScore call threshold: pairs at or above are called interacting.
  double iscore_cutoff = 0.35;
  // Cap on the number of pairs screened, in canonical (i-major, i < j)
  // order; 0 = the full K*(K-1)/2 screen.
  std::size_t max_pairs = 0;
};

// One screened pair in canonical order.
struct PairOutcome {
  std::size_t a = 0;
  std::size_t b = 0;
  double interface_score = 0.0;
  double ptms = 0.0;
  int recycles = 0;
  bool oom = false;          // combined length over the memory budget
  bool truly_interacting = false;
  bool called_positive = false;  // iScore >= cutoff (never for OOM pairs)
};

struct PairCampaignReport {
  StageReport features;   // per-chain feature stage ("pair-features")
  StageReport inference;  // pair map ("pair-inference")
  std::vector<PairOutcome> pairs;  // canonical order

  // iScore distributions split by ground truth, over non-OOM pairs.
  SampleSet binder_iscore;
  SampleSet nonbinder_iscore;

  int screened = 0;  // pairs that produced a score (non-OOM)
  int oom_pairs = 0;
  int positives = 0;
  int true_positives = 0;
  int false_positives = 0;

  double iscore_cutoff = 0.0;  // echoed from the config for printing

  double total_summit_node_hours() const { return inference.node_hours; }
  double total_andes_node_hours() const { return features.node_hours; }
};

class PairCampaign {
 public:
  PairCampaign(const FoldUniverse& universe, PipelineConfig config,
               PairCampaignConfig pairs = {});

  const PipelineConfig& config() const { return config_; }
  const PairCampaignConfig& pair_config() const {  // sfcheck:allow(U1): test_pair_campaign replays the screen through predict_pair with it
    return pair_config_;
  }

  // Canonical pair enumeration: i-major with i < j, truncated to
  // max_pairs when nonzero. Pair index k is the position in this list.
  static std::vector<std::pair<std::size_t, std::size_t>> enumerate_pairs(std::size_t n,
                                                                          std::size_t max_pairs);

  // Run the two-stage screen. Journal/sink/store semantics mirror
  // Pipeline::run (see header comment); the feature stage is the
  // single-chain FeatureStage driver under the name "pair-features".
  // The executor overrides carry the distributed screen (and
  // backend-parity tests); by default each stage builds its simulated
  // executor from the config, like the single-chain stages.
  PairCampaignReport run(const std::vector<ProteinRecord>& records,
                         CampaignJournal* journal = nullptr, obs::TraceSink* sink = nullptr,
                         store::ArtifactStore* store = nullptr,
                         Executor* feature_executor = nullptr,
                         Executor* pair_executor = nullptr) const;

 private:
  const FoldUniverse* universe_;
  PipelineConfig config_;
  PairCampaignConfig pair_config_;
};

// Campaign identity for the pair journal: the single-chain campaign
// fingerprint (config knobs + record list) extended with every
// pair-specific knob that changes a reported number.
std::uint64_t pair_campaign_fingerprint(const PipelineConfig& cfg,
                                        const std::vector<ProteinRecord>& records,
                                        const PairCampaignConfig& pairs);

// Deterministic human-readable summary (fixed formatting over exactly
// journal-replayable values, so it is byte-identical across backends,
// reruns, and resumes).
void print_pair_campaign(std::ostream& out, const PairCampaignReport& report);

}  // namespace sf
