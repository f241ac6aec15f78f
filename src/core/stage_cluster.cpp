#include "core/stage_cluster.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>

#include "analysis/fold_library.hpp"
#include "core/resolve.hpp"
#include "core/stage_map.hpp"
#include "obs/trace.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace sf {
namespace {

// Modeled on-disk size of one alignment artifact (the sfclal codec
// line: three hex doubles plus the header).
constexpr double kAlignArtifactBytes = 64.0;

store::ClusterAlignArtifact align_artifact(const Structure& a, const Structure& b) {
  const cluster::PairAlignment al = cluster::align_pair(a, b);
  return {al.tm_query, al.tm_target, al.rmsd};
}

std::vector<std::size_t> indices(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

// `items` costliest first (ties keep their order): the order fill_slots
// starts them in, so the longest items do not finish last.
template <typename Cost>
std::vector<std::size_t> costliest_first(std::vector<std::size_t> items, const Cost& cost) {
  std::stable_sort(items.begin(), items.end(),
                   [&](std::size_t a, std::size_t b) { return cost(a) > cost(b); });
  return items;
}

// A centroid's novelty row from its ranked library hits.
ClusterNovelFold novel_scan(std::size_t centroid, const std::vector<FoldSearchHit>& hits) {
  ClusterNovelFold f;
  f.record = centroid;
  if (!hits.empty()) {
    f.best_tm = hits[0].tm_query;
    f.best_fold = static_cast<int>(hits[0].fold_index);
  }
  return f;
}

}  // namespace

ClusterStageReport ClusterStage::run(const StageContext& ctx,
                                     const std::vector<InputFeatures>& features) const {
  const PipelineConfig& cfg = ctx.config;
  const cluster::ClusterStageConfig& ccfg = cfg.cluster;
  const std::vector<ProteinRecord>& records = ctx.records;

  ClusterStageReport out;
  out.enabled = ccfg.enabled;
  if (!ccfg.enabled) return out;
  out.tm_threshold = ccfg.tm_threshold;

  CampaignJournal* journal = ctx.journal;
  obs::TraceSink* sink = ctx.sink;
  store::ArtifactStore* store = ctx.store;
  const bool tracing = ctx.tracing();
  const bool caching = ctx.caching();

  // Every science loop below is split in three: a serial, side-effect-
  // free peek (resolve_would_compute) picks the items resolve() will
  // compute; `compute` fills their slots on one thread per CPU in the
  // affinity mask; and the serial resolve() loop then runs in canonical
  // order, taking a slot where it computes. Journal and store calls keep
  // their serial order, so every output byte is the same at any thread
  // count.
  SlotComputer compute;

  // ---- structures ----------------------------------------------------
  // Stage inputs too heavy to journal are *recomputed deterministically*
  // (the journal contract): predictions are keyed by per-record seeds,
  // so every backend and every resume rebuilds bit-identical structures
  // -- the journal stores only alignment summaries, never coordinates.
  const FoldingEngine engine(ctx.universe, cfg.engine);
  const ModelWeights top_model = five_models()[0];
  std::vector<Structure> structures(records.size());
  std::vector<char> oom(records.size(), 0);
  compute.fill_slots(
      costliest_first(indices(records.size()), [&](std::size_t i) { return records[i].length(); }),
      [&](std::size_t i) {
        Prediction pred = engine.predict(records[i], features[i], top_model, cfg.preset);
        oom[i] = pred.out_of_memory ? 1 : 0;
        if (!pred.out_of_memory) structures[i] = std::move(pred.structure);
      });
  std::vector<std::size_t> items;
  items.reserve(records.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (oom[i]) {
      ++out.excluded_oom;
      continue;
    }
    items.push_back(i);
  }
  out.structures = static_cast<int>(items.size());

  // ---- prefilter -----------------------------------------------------
  std::vector<cluster::ChainSketch> sketches(items.size());
  for (std::size_t k = 0; k < items.size(); ++k) {
    sketches[k] = cluster::make_sketch(structures[items[k]], ccfg.sketch);
  }
  cluster::PrefilterStats stats;
  const auto pairs = cluster::candidate_pairs(items, sketches, ccfg, &stats);
  out.pairs_total = stats.pairs_total;
  out.pruned_length = stats.pruned_length;
  out.pruned_sketch = stats.pruned_sketch;
  out.aligned_pairs = stats.kept;

  const std::uint64_t config_fp = store_config_fingerprint(cfg);
  const double cpu_speed = andes().cpu_node_speed;
  const auto align_key = [&](std::size_t a, std::size_t b) {
    return store::pair_artifact_key(store::record_fingerprint(records[a]),
                                    store::record_fingerprint(records[b]), "cluster-align",
                                    config_fp);
  };
  if (caching) {
    store->begin_stage("cluster-align", stage_store_pricer(cfg, StageKind::kCluster));
  }

  // ---- science phase -------------------------------------------------
  // Exact alignments resolve serially in canonical pair order, outside
  // the executor map (the pair campaign's discipline): journal row >
  // stored artifact > struct_align (core/resolve.hpp). The peek finds
  // the pairs with neither, and their alignments run first, in parallel.
  // A listed object that fails to read is the one miss the peek cannot
  // see: resolve() then aligns that pair inline.
  std::vector<std::size_t> misses;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [a, b] = pairs[k];
    if (resolve_would_compute<store::ClusterAlignArtifact>(
            journal, cluster::cluster_pair_key(a, b), store, align_key(a, b))) {
      misses.push_back(k);
    }
  }
  std::vector<std::optional<store::ClusterAlignArtifact>> computed(pairs.size());
  compute.fill_slots(costliest_first(misses,
                                     [&](std::size_t k) {
                                       return records[pairs[k].first].length() *
                                              records[pairs[k].second].length();
                                     }),
                     [&](std::size_t k) {
                       computed[k] = align_artifact(structures[pairs[k].first],
                                                    structures[pairs[k].second]);
                     });

  std::vector<cluster::PairAlignment> aligned(pairs.size());
  std::vector<std::uint64_t> accepted_keys;
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const std::size_t a = pairs[k].first;
    const std::size_t b = pairs[k].second;
    const store::ArtifactKey key = align_key(a, b);
    const auto slot = [&] {
      return computed[k] ? *computed[k] : align_artifact(structures[a], structures[b]);
    };
    const auto put = [&](const store::ClusterAlignArtifact& art) {
      store->put(key, records[a].sequence.id() + "+" + records[b].sequence.id() + "/calign",
                 store::encode_cluster_align(art), kAlignArtifactBytes,
                 cluster::cluster_align_seconds(records[a].length(), records[b].length(),
                                                cpu_speed));
    };
    const auto r = resolve(journal, cluster::cluster_pair_key(a, b), store, key,
                           store::decode_cluster_align, slot, put);
    switch (r.source) {
      case ResolveSource::kJournal: ++out.aligns_from_journal; break;
      case ResolveSource::kStore: ++out.aligns_from_store; break;
      case ResolveSource::kComputed: ++out.aligns_computed; break;
    }
    aligned[k] = {r.artifact.tm_query, r.artifact.tm_target, r.artifact.rmsd};
    if (cluster::edge_accepted(aligned[k], ccfg.tm_threshold)) {
      accepted_keys.push_back(cluster::cluster_pair_key(a, b));
    }
  }
  out.accepted_edges = static_cast<std::uint64_t>(accepted_keys.size());
  std::sort(accepted_keys.begin(), accepted_keys.end());

  // ---- "cluster-align" executor map ----------------------------------
  // One task per surviving pair on the Andes CPU pool. Pricing derives
  // only from record lengths, so a resumed map bills exactly what the
  // uninterrupted one did. A sealed stage skips the map (report replays
  // from the journal); under tracing it re-runs for its spans.
  const bool sealed = journal && journal->stage_complete(StageKind::kCluster);
  if (!sealed || tracing) {
    std::vector<TaskSpec> tasks(pairs.size());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const std::size_t a = pairs[k].first;
      const std::size_t b = pairs[k].second;
      tasks[k] = {static_cast<std::uint64_t>(k),
                  records[a].sequence.id() + "+" + records[b].sequence.id() + "/calign",
                  static_cast<double>(records[a].length()) * records[b].length(), k};
    }

    const TaskFn fn = [&](const TaskSpec& t, const TaskAttempt&) {
      const std::size_t k = t.payload;
      TaskOutcome o;
      o.sim_duration_s = cluster::cluster_align_seconds(records[pairs[k].first].length(),
                                                        records[pairs[k].second].length());
      return o;
    };

    const auto locality = [&](const TaskSpec& t) {
      const std::size_t a = pairs[t.payload].first;
      const std::size_t b = pairs[t.payload].second;
      dist::TaskLocality loc;
      loc.produces.push_back({align_key(a, b), kAlignArtifactBytes,
                              cluster::cluster_align_seconds(records[a].length(),
                                                             records[b].length(), cpu_speed)});
      return loc;
    };
    const StageReport report =
        map_stage(ctx, StageKind::kCluster, "cluster-align", std::move(tasks), fn, locality)
            .report;
    if (!sealed) {
      out.align = report;
      if (journal) journal->record_stage_complete(StageKind::kCluster, out.align);
    }
  }
  if (sealed) out.align = *journal->stage_report(StageKind::kCluster);

  // ---- greedy clustering ---------------------------------------------
  const cluster::ProteomeClusters pc = cluster::greedy_cluster(items, accepted_keys);
  out.clusters = pc.clusters.size();
  out.largest_cluster = pc.largest;
  out.singletons = pc.singletons;

  // ---- novel-fold scan -----------------------------------------------
  // PDB70-like library: every universe fold except those of the study
  // set's novel-fold records (no experimental structure by definition
  // -- the annotate_hypotheticals construction). Per-centroid best hits
  // are journaled, so a resumed campaign re-derives the novelty list
  // with zero library searches; the library itself is built only when a
  // centroid has no journal row, and never at all on a fully journaled
  // resume.
  std::vector<bool> excluded(ctx.universe.size(), false);
  for (const auto& r : records) {
    if (r.novel_fold) excluded[r.fold_index] = true;
  }
  std::vector<std::size_t> library_folds;
  for (std::size_t f = 0; f < ctx.universe.size(); ++f) {
    if (!excluded[f]) library_folds.push_back(f);
  }
  // The scans read no store, so this peek is exact: every centroid
  // resolve() computes below has its slot filled here.
  std::vector<std::size_t> scan_misses;
  for (std::size_t c = 0; c < pc.clusters.size(); ++c) {
    if (resolve_would_compute<ClusterNovelFold>(journal, pc.clusters[c].centroid)) {
      scan_misses.push_back(c);
    }
  }
  std::vector<std::optional<ClusterNovelFold>> scanned(pc.clusters.size());
  if (!scan_misses.empty()) {
    // The library's renders, then one library search per centroid, each
    // in parallel.
    std::vector<FoldLibraryEntry> entries(library_folds.size());
    compute.fill_slots(costliest_first(indices(entries.size()),
                                       [&](std::size_t e) {
                                         return ctx.universe.fold(library_folds[e]).base_length();
                                       }),
                       [&](std::size_t e) {
                         entries[e] = FoldLibrary::make_entry(ctx.universe, library_folds[e]);
                       });
    const FoldLibrary library(std::move(entries));
    compute.fill_slots(costliest_first(scan_misses,
                                       [&](std::size_t c) {
                                         return structures[pc.clusters[c].centroid].size();
                                       }),
                       [&](std::size_t c) {
                         const std::size_t centroid = pc.clusters[c].centroid;
                         scanned[c] = novel_scan(
                             centroid, library.search(structures[centroid], ccfg.fold_shortlist));
                       });
  }
  for (std::size_t c = 0; c < pc.clusters.size(); ++c) {
    const ClusterNovelFold scan =
        resolve<ClusterNovelFold>(journal, pc.clusters[c].centroid, [&] {
          return scanned[c].value();
        }).artifact;
    if (scan.best_tm < ccfg.tm_threshold) out.novel.push_back(scan);
  }

  if (tracing) {
    obs::ClusterTrace ct;
    ct.structures = out.structures;
    ct.excluded_oom = out.excluded_oom;
    ct.pairs_total = out.pairs_total;
    ct.pruned_length = out.pruned_length;
    ct.pruned_sketch = out.pruned_sketch;
    ct.aligned_pairs = out.aligned_pairs;
    ct.accepted_edges = out.accepted_edges;
    ct.clusters = static_cast<std::uint64_t>(out.clusters);
    ct.novel_folds = static_cast<std::uint64_t>(out.novel.size());
    ct.tm_threshold = out.tm_threshold;
    sink->record_cluster(ct);
  }
  return out;
}

}  // namespace sf
