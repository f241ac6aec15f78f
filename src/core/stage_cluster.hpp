// Stage 4: all-vs-all novel-fold discovery (§4.6 promoted to a
// pipeline stage).
//
// After relaxation the campaign holds a predicted structure per target;
// the paper's §4.6 analysis asks which of them fold into shapes no
// experimental structure matches. This stage answers that at proteome
// scale: predict the top-ranked model per record (deterministically
// recomputed, never journaled), prune the O(K^2) pair set with the
// cheap structural prefilter (cluster/cluster.hpp -- the length gate is
// exact for the min-TM edge metric), run the surviving exact
// struct_align pairs as a "cluster-align" task map on the Andes CPU
// pool, cluster the accepted edges greedily in canonical order, and
// scan each cluster centroid against the PDB70-like fold library.
//
// Same determinism discipline as every other stage driver: the science
// phase resolves each alignment serially in canonical pair order
// (journal row > store artifact > struct_align) and the executor map
// only prices the modeled schedule -- so stdout, journal, and trace
// bytes are identical across backends, node counts, store on/off, and
// kill/resume. The real work (predictions, the alignments and library
// searches the journal and store lack, the library's renders) runs
// first on one thread per CPU in the affinity mask, into per-item
// slots, so those bytes are also the same at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "core/stage_context.hpp"

namespace sf {

// One novel-fold call: a cluster centroid whose best fold-library hit
// stayed below the TM threshold.
struct ClusterNovelFold {
  std::size_t record = 0;  // record index of the centroid
  double best_tm = 0.0;    // best library TM-score (0 when no hit)
  int best_fold = -1;      // fold index of the best hit; -1 = none
};

struct ClusterStageReport {
  bool enabled = false;
  StageReport align;  // the "cluster-align" executor map

  // Science counters.
  int structures = 0;    // records with a usable predicted structure
  int excluded_oom = 0;  // records dropped (prediction OOMed)
  std::uint64_t pairs_total = 0;
  std::uint64_t pruned_length = 0;
  std::uint64_t pruned_sketch = 0;
  std::uint64_t aligned_pairs = 0;   // survived the prefilter
  std::uint64_t accepted_edges = 0;  // cleared the TM threshold
  std::size_t clusters = 0;
  std::size_t largest_cluster = 0;
  std::size_t singletons = 0;
  double tm_threshold = 0.0;
  std::vector<ClusterNovelFold> novel;

  // Provenance of the exact alignments -- the warm-resume witness: a
  // journal-resumed or store-warmed campaign recomputes zero.
  std::uint64_t aligns_computed = 0;
  std::uint64_t aligns_from_journal = 0;
  std::uint64_t aligns_from_store = 0;
};

class ClusterStage {
 public:
  // Run the stage over every record, using the feature vector the
  // earlier stages filled in. Returns a disabled report (and touches
  // nothing) when cfg.cluster.enabled is false.
  ClusterStageReport run(const StageContext& ctx,
                         const std::vector<InputFeatures>& features) const;
};

}  // namespace sf
