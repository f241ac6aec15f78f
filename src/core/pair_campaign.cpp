#include "core/pair_campaign.hpp"

#include <algorithm>
#include <numeric>
#include <ostream>

#include "core/resolve.hpp"
#include "core/report.hpp"
#include "core/stage_features.hpp"
#include "core/stage_map.hpp"
#include "fold/complex.hpp"
#include "obs/trace.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "util/sealed_line.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace sf {
namespace {

// Fault-plan decorrelation stream for the pair map: distinct from every
// single-chain stage stream (stage_fault_stream), so "pair 3 crashes"
// is independent of any monomer campaign sharing the plan.
constexpr std::uint64_t kPairFaultStream = 0x9A170004ULL;

}  // namespace

PairCampaign::PairCampaign(const FoldUniverse& universe, PipelineConfig config,
                           PairCampaignConfig pairs)
    : universe_(&universe), config_(std::move(config)), pair_config_(pairs) {}

std::vector<std::pair<std::size_t, std::size_t>> PairCampaign::enumerate_pairs(
    std::size_t n, std::size_t max_pairs) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  out.reserve(n < 2 ? 0 : n * (n - 1) / 2);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (max_pairs != 0 && out.size() >= max_pairs) return out;
      out.emplace_back(i, j);
    }
  }
  return out;
}

PairCampaignReport PairCampaign::run(const std::vector<ProteinRecord>& records,
                                     CampaignJournal* journal, obs::TraceSink* sink,
                                     store::ArtifactStore* store, Executor* feature_executor,
                                     Executor* pair_executor) const {
  const PipelineConfig& cfg = config_;
  const std::size_t n = records.size();
  const auto pairs = enumerate_pairs(n, pair_config_.max_pairs);
  const std::size_t p = pairs.size();

  const bool tracing = sink != nullptr && sink->active();
  const bool caching = store != nullptr;
  const std::uint64_t config_fp = store_config_fingerprint(cfg);

  // Bind the journal to this campaign's identity (same contract as the
  // single-chain service): a journal written under a different config
  // or record list is discarded on open, never spliced in.
  if (journal) {
    journal->open(pair_campaign_fingerprint(cfg, records, pair_config_), JournalKind::kPair);
  }
  // A replayed stage report carries the journal's stage token as its
  // name; the pair campaign prints its own stage names.
  const auto replayed = [&](StageKind stage, const char* name) {
    StageReport report = *journal->stage_report(stage);
    report.name = name;
    return report;
  };

  PairCampaignReport out;
  out.iscore_cutoff = pair_config_.iscore_cutoff;

  // ---- per-chain feature stage ("pair-features") ---------------------
  //
  // The single-chain feature driver (stage_features.cpp) over every
  // chain, as its own store window and trace stage. Feature keys are
  // shared with the single-chain campaigns (stage_artifact_key), so a
  // monomer run warms the pair screen.
  std::vector<InputFeatures> features(n);
  {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    SimulatedExecutor sim = make_stage_executor(cfg, StageKind::kFeatures);
    const StageContext ctx{*universe_, cfg, records, feature_executor ? *feature_executor : sim,
                           journal, sink, store};
    const StageWaveOutcome wave = FeatureStage().run_subset(ctx, "pair-features", all, features);
    if (journal && journal->stage_complete(StageKind::kFeatures)) {
      out.features = replayed(StageKind::kFeatures, "pair-features");
    } else {
      out.features = wave.report;
      if (journal) journal->record_stage_complete(StageKind::kFeatures, out.features);
    }
  }

  // ---- pair science phase --------------------------------------------
  //
  // Deterministic per-pair outcomes in canonical pair order, serial and
  // outside any executor map, resolved in the order journal row (exact
  // %.17g round-trip, no engine, no store traffic) > stored pair artifact
  // (bit-exact hex round-trip) > the complex engine (core/resolve.hpp).
  // A cold pair additionally *stages both chains' features back in*
  // through the store -- the quadratic reuse stream that separates the
  // eviction policies: under capacity pressure FIFO keeps evicting the
  // features every pair needs again, LRU keeps the recently-touched
  // ones, and cost-aware keeps the expensive-per-byte ones. It then
  // docks its chains' monomer predictions, each made once per screen
  // (MonomerTable): the same result as predict_pair, which would
  // re-predict both chains for every pair. A chain's two models run on
  // one thread per CPU in the affinity mask. Pairs resolved from the
  // journal or the store never ask the table, so their chains are not
  // predicted.
  ComplexEngineParams engine_params;
  engine_params.engine = cfg.engine;
  const ComplexEngine engine(*universe_, engine_params);
  const Interactome interactome(records, pair_config_.interactome_rate,
                                pair_config_.interactome_seed);
  SlotComputer compute;
  MonomerTable monomers(engine, records, features, cfg.preset, pairs, compute);

  const double slowdown = cfg.filesystem.io_slowdown(cfg.jobs_per_replica);
  const bool full = cfg.library == LibraryKind::kFull;
  if (caching) {
    store->begin_stage("pair-inference", stage_store_pricer(cfg, StageKind::kInference));
  }

  out.pairs.resize(p);
  for (std::size_t k = 0; k < p; ++k) {
    const std::size_t a = pairs[k].first;
    const std::size_t b = pairs[k].second;
    const int combined = records[a].length() + records[b].length();
    const auto pair_key =
        store::pair_artifact_key(store::record_fingerprint(records[a]),
                                 store::record_fingerprint(records[b]), "pair", config_fp);
    const auto compute = [&] {
      if (caching) {
        // Stage both chains' features to the pair task's node; a chain
        // evicted since the feature stage is recomputed and re-cached
        // at its modeled recompute cost (what kCostAware weighs).
        for (const std::size_t i : {a, b}) {
          const auto fkey = stage_artifact_key(cfg, StageKind::kFeatures, records[i]);
          if (!store->get(fkey)) {
            store->put(fkey, records[i].sequence.id() + "/features",
                       store::encode_features(features[i]), features[i].feature_bytes(),
                       cfg.feature_cost.task_seconds(records[i].length(), full, slowdown,
                                                     andes().cpu_node_speed));
          }
        }
      }
      // An over-budget pair stops at predict_pair's combined-length
      // check, before any monomer prediction.
      const ComplexPrediction pred =
          engine.combined_out_of_memory(records[a], records[b], cfg.preset)
              ? engine.predict_pair(records[a], records[b], features[a], features[b],
                                    interactome, a, b, cfg.preset)
              : engine.assemble(records[a], records[b], monomers.get(a, 0), monomers.get(b, 1),
                                interactome, a, b);
      return store::PairArtifact{pred.interface_score, pred.ptms, pred.recycles_run,
                                 pred.out_of_memory, pred.truly_interacting};
    };
    const auto put = [&](const store::PairArtifact& art) {
      store->put(pair_key, records[a].sequence.id() + "+" + records[b].sequence.id() + "/pair",
                 store::encode_pair(art), modeled_structure_bytes(combined),
                 cfg.inference_cost.task_seconds(
                     combined, art.out_of_memory ? 1 : art.recycles + 1, cfg.preset.ensembles));
    };
    const store::PairArtifact r =
        resolve(journal, k, store, pair_key, store::decode_pair, compute, put).artifact;

    PairOutcome& po = out.pairs[k];
    po.a = a;
    po.b = b;
    po.interface_score = r.interface_score;
    po.ptms = r.ptms;
    po.recycles = r.recycles;
    po.oom = r.out_of_memory;
    po.truly_interacting = r.truly_interacting;
    po.called_positive = !po.oom && po.interface_score >= pair_config_.iscore_cutoff;
    if (po.oom) {
      ++out.oom_pairs;
      continue;
    }
    ++out.screened;
    if (po.truly_interacting) out.binder_iscore.add(po.interface_score);
    else out.nonbinder_iscore.add(po.interface_score);
    if (po.called_positive) {
      ++out.positives;
      if (po.truly_interacting) ++out.true_positives;
      else ++out.false_positives;
    }
  }

  // ---- pair map ("pair-inference") -----------------------------------
  //
  // One task per pair through the inference executor (Summit GPU pool,
  // high-memory alternate for OOM reroutes). Task pricing derives only
  // from journal-replayable row fields, so a resumed map bills exactly
  // what the uninterrupted one did. A sealed stage skips the map
  // (report replays from the journal); under tracing it re-runs for its
  // spans, like every single-chain stage.
  const bool sealed = journal && journal->stage_complete(StageKind::kInference);
  if (!sealed || tracing) {
    std::vector<TaskSpec> tasks(p);
    for (std::size_t k = 0; k < p; ++k) {
      const std::size_t a = pairs[k].first;
      const std::size_t b = pairs[k].second;
      tasks[k] = {static_cast<std::uint64_t>(k),
                  records[a].sequence.id() + "+" + records[b].sequence.id() + "/pair",
                  static_cast<double>(records[a].length() + records[b].length()), k};
    }

    const TaskFn fn = [&](const TaskSpec& t, const TaskAttempt& at) {
      const std::size_t k = t.payload;
      const PairOutcome& po = out.pairs[k];
      const int combined = records[po.a].length() + records[po.b].length();
      TaskOutcome o;
      if (!po.oom) {
        o.sim_duration_s =
            cfg.inference_cost.task_seconds(combined, po.recycles + 1, cfg.preset.ensembles);
        return o;
      }
      if (at.alt_pool) {
        // High-memory rerun of the combined-length problem, at the
        // memory-model default of 4 passes (the pair never converged).
        o.sim_duration_s = cfg.inference_cost.task_seconds(combined, 4, cfg.preset.ensembles);
        return o;
      }
      // Occupies a GPU until the memory wall kills it (one pass), then
      // the RetryPolicy reroutes or counts it failed.
      o.ok = false;
      o.sim_duration_s = cfg.inference_cost.task_seconds(combined, 1, cfg.preset.ensembles);
      return o;
    };

    // Distributed locality: a pair task needs BOTH chains' feature
    // artifacts -- the router sends it to the node holding the larger
    // resident share, and the missing chain migrates over the wire
    // instead of recomputing. This is the pair screen's version of the
    // paper's data-gravity economics.
    const auto locality = [&](const TaskSpec& t) {
      const PairOutcome& po = out.pairs[t.payload];
      dist::TaskLocality loc;
      for (const std::size_t i : {po.a, po.b}) {
        loc.needs.push_back({stage_artifact_key(cfg, StageKind::kFeatures, records[i]),
                             static_cast<double>(features[i].feature_bytes()),
                             cfg.feature_cost.task_seconds(records[i].length(), full, slowdown,
                                                           andes().cpu_node_speed)});
      }
      const int combined = records[po.a].length() + records[po.b].length();
      loc.produces.push_back(
          {store::pair_artifact_key(store::record_fingerprint(records[po.a]),
                                    store::record_fingerprint(records[po.b]), "pair", config_fp),
           modeled_structure_bytes(combined),
           cfg.inference_cost.task_seconds(combined, po.oom ? 1 : po.recycles + 1,
                                           cfg.preset.ensembles)});
      return loc;
    };

    SimulatedExecutor sim = make_stage_executor(cfg, StageKind::kInference);
    const StageContext ctx{*universe_, cfg, records, pair_executor ? *pair_executor : sim,
                           journal, sink, store};
    const StageReport report = map_stage(ctx, StageKind::kInference, "pair-inference",
                                         std::move(tasks), fn, locality, kPairFaultStream)
                                   .report;
    if (!sealed) {
      out.inference = report;
      if (journal) journal->record_stage_complete(StageKind::kInference, out.inference);
    }
  }
  if (sealed) out.inference = replayed(StageKind::kInference, "pair-inference");

  return out;
}

std::uint64_t pair_campaign_fingerprint(const PipelineConfig& cfg,
                                        const std::vector<ProteinRecord>& records,
                                        const PairCampaignConfig& pairs) {
  std::uint64_t h = campaign_fingerprint(cfg, records);
  h = mix64(h, stable_hash64("sf-pair-campaign-v1"));
  h = mix64(h, ieee_bits(pairs.interactome_rate));
  h = mix64(h, pairs.interactome_seed);
  h = mix64(h, ieee_bits(pairs.iscore_cutoff));
  h = mix64(h, static_cast<std::uint64_t>(pairs.max_pairs));
  return h;
}

void print_pair_campaign(std::ostream& out, const PairCampaignReport& report) {
  out << format("pair campaign: %zu pairs\n", report.pairs.size());
  print_stage(out, report.features);
  print_stage(out, report.inference);
  out << format("  screening: scored %d | oom %d | called positive %d (tp %d, fp %d) at iScore>=%.2f\n",
                report.screened, report.oom_pairs, report.positives, report.true_positives,
                report.false_positives, report.iscore_cutoff);
  out << format("  iScore: binders %.3f (n=%zu) | non-binders %.3f (n=%zu)\n",
                report.binder_iscore.mean(), report.binder_iscore.count(),
                report.nonbinder_iscore.mean(), report.nonbinder_iscore.count());
  out << format("  totals: %.0f Summit node-hours, %.0f Andes node-hours\n",
                report.total_summit_node_hours(), report.total_andes_node_hours());
}

}  // namespace sf
