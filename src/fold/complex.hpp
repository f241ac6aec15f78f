// Protein-complex prediction (the AF2Complex extension, §5).
//
// The paper's conclusion: "Our optimizations ... were also included in
// AF2Complex, which is a generalization of AlphaFold that extends the
// model inference to prediction of protein-protein complexes ... The
// prediction of accurate protein complex structures at scale is an
// exciting new possibility especially relevant to HPC computing due to a
// quadratic (or higher) order dependence on the number of protein
// sequences."
//
// We extend the surrogate engine the same way AF2Complex extends
// AlphaFold: the two chains are concatenated into one inference problem
// (memory and compute scale with the *combined* length), a synthetic
// interactome decides which pairs genuinely bind (shared-universe ground
// truth), and an interface-score head (AF2Complex's iScore analog)
// separates interacting from non-interacting pairs.
//
// A pair prediction has two halves. Each chain is first predicted with
// the monomer machinery (chain a with model 1, chain b with model 2;
// AF2Complex reuses the monomer weights); assemble() then docks the two
// predictions and runs the interface heads. A chain's monomer
// prediction does not depend on its partner, so a screen over K chains
// predicts each chain's monomer models once and docks them per pair
// (MonomerTable, used by core/pair_campaign and examples/complex_screen).
// Modeled cost still prices one combined-length GPU task per pair, as
// the paper's AF2Complex runs do.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "bio/proteome.hpp"
#include "fold/engine.hpp"
#include "fold/presets.hpp"
#include "seqsearch/msa.hpp"

namespace sf {

// Ground-truth interactome over a proteome: sparse symmetric relation
// sampled per pair, enriched within fold families (paralog complexes).
class Interactome {
 public:
  Interactome(const std::vector<ProteinRecord>& records, double base_rate, std::uint64_t seed);

  std::size_t num_proteins() const { return n_; }
  bool interacts(std::size_t i, std::size_t j) const;

 private:
  std::size_t n_ = 0;
  std::uint64_t seed_ = 0;
  std::vector<std::uint64_t> record_seeds_;
  std::vector<std::size_t> fold_index_;
  double base_rate_ = 0.0;
};

struct ComplexPrediction {
  Structure structure;        // concatenated two-chain model
  std::size_t chain_a_length = 0;
  double interface_score = 0.0;  // iScore analog in [0,1]
  double ptms = 0.0;             // complex-level predicted TM
  bool out_of_memory = false;
  int recycles_run = 0;
  bool truly_interacting = false;  // ground truth (synthetic world only)
};

struct ComplexEngineParams {
  EngineParams engine;
  // Interface geometry for truly-binding pairs: chains docked at
  // touching distance; non-binders are predicted apart with low scores.
  double docked_gap_A = 1.5;
  // Interface contact threshold for the score head (CB-CB style, on CA).
  double interface_contact_A = 8.0;
  double iscore_noise = 0.06;
};

class ComplexEngine {
 public:
  ComplexEngine(const FoldUniverse& universe, ComplexEngineParams params = {});

  // Predict the complex of two records from their per-chain features.
  // Deterministic. Memory scales with the combined length (the reason
  // complex prediction OOMs so much earlier than monomers): the
  // combined-length memory check, then both chains' monomer predictions
  // (chain_models()), then assemble(). An over-budget pair reports
  // out_of_memory without predicting either chain.
  ComplexPrediction predict_pair(const ProteinRecord& a, const ProteinRecord& b,
                                 const InputFeatures& fa, const InputFeatures& fb,
                                 const Interactome& interactome, std::size_t index_a,
                                 std::size_t index_b, const PresetConfig& preset) const;

  // The second half of predict_pair: dock chain b's monomer prediction
  // `pb` against chain a's `pa`, resolve the interfacial overlap, and
  // run the iScore and pTMS heads. Given the monomer predictions
  // predict_pair makes itself, the result is bit-identical to
  // predict_pair's; an out-of-memory monomer makes an out-of-memory
  // pair.
  ComplexPrediction assemble(const ProteinRecord& a, const ProteinRecord& b,
                             const Prediction& pa, const Prediction& pb,
                             const Interactome& interactome, std::size_t index_a,
                             std::size_t index_b) const;

  // True when the pair's combined length is over the per-task memory
  // budget (predict_pair's first check).
  bool combined_out_of_memory(const ProteinRecord& a, const ProteinRecord& b,
                              const PresetConfig& preset) const;

  // The monomer weights of a pair's chains: model 1 for chain a, model 2
  // for chain b.
  static std::array<ModelWeights, 2> chain_models();

  // The engine both chains' monomer predictions come from.
  const FoldingEngine& monomer_engine() const { return monomer_engine_; }

  const ComplexEngineParams& params() const { return params_; }

 private:
  const FoldUniverse* universe_;
  ComplexEngineParams params_;
  FoldingEngine monomer_engine_;
};

// Each chain's monomer predictions for one screen over `pairs` (index
// pairs into `records`). A pair docks its chain a's model-1 prediction
// against its chain b's model-2 prediction (ComplexEngine::assemble), so
// a chain has two slots, one per side of a pair. A slot is used when
// some pair within the memory budget puts the chain on that side; a
// chain's used slots fill together, from one native render, on
// `compute`'s threads (FoldingEngine::predict_models), the first time
// either is asked for. The table refers to its constructor arguments,
// which must outlive it.
class MonomerTable {
 public:
  MonomerTable(const ComplexEngine& engine, const std::vector<ProteinRecord>& records,
               const std::vector<InputFeatures>& features, const PresetConfig& preset,
               const std::vector<std::pair<std::size_t, std::size_t>>& pairs,
               SlotComputer& compute);

  // The prediction of `chain` on `side` (0: chain a, 1: chain b) of a
  // pair within the memory budget.
  const Prediction& get(std::size_t chain, std::size_t side);

 private:
  struct Chain {
    std::array<bool, 2> used{};
    bool filled = false;
    std::array<Prediction, 2> slot;
  };
  const ComplexEngine& engine_;
  const std::vector<ProteinRecord>& records_;
  const std::vector<InputFeatures>& features_;
  const PresetConfig& preset_;
  SlotComputer& compute_;
  std::vector<Chain> chains_;
};

// Number of inference tasks for all-vs-all screening of n proteins --
// the quadratic scaling §5 calls out.
inline std::size_t complex_screen_tasks(std::size_t n) { return n * (n - 1) / 2; }

}  // namespace sf
