#include "core/stage_inference.hpp"

#include <algorithm>
#include <numeric>

#include "core/resolve.hpp"
#include "core/stage_map.hpp"
#include "fold/memory_model.hpp"
#include "store/artifact_store.hpp"
#include "store/codec.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace sf {
namespace {

// Runs all five models on one measured target, on `compute`'s threads,
// and summarizes them as the target's result record: per-model passes
// and OOM/convergence masks, the top model's scores, and its structure.
// A target whose every model OOMed is dropped, with top_model 0 as in
// its TargetResult.
store::PredictionArtifact predict_measured(const FoldingEngine& engine, const ProteinRecord& rec,
                                           const InputFeatures& features,
                                           const PresetConfig& preset, SlotComputer& compute) {
  std::vector<Prediction> preds = engine.predict_all_models(rec, features, preset, &compute);
  store::PredictionArtifact a;
  for (std::size_t m = 0; m < preds.size(); ++m) {
    if (preds[m].out_of_memory) {
      a.passes[m] = 1;  // loaded, attempted, died
      a.oom_mask |= 1u << m;
      continue;
    }
    a.passes[m] = preds[m].trace.recycles_run + 1;
    if (preds[m].trace.converged) a.conv_mask |= 1u << m;
  }
  const int top = top_model_index(preds);
  if (top < 0) {
    a.top_model = 0;
    a.dropped = true;
    return a;
  }
  Prediction& best = preds[static_cast<std::size_t>(top)];
  a.top_model = best.model_id;
  a.plddt = best.plddt;
  a.ptms = best.ptms;
  a.true_tm = best.true_tm;
  a.true_lddt = best.true_lddt;
  a.recycles = best.trace.recycles_run;
  a.converged = best.trace.converged;
  a.has_structure = true;
  a.structure = std::move(best.structure);
  return a;
}

}  // namespace

StageWaveOutcome InferenceStage::run_subset(const StageContext& ctx,
                                            const std::vector<InputFeatures>& features,
                                            const std::vector<std::size_t>& subset,
                                            InferenceCarry& carry,
                                            InferenceStageResult& out) const {
  const PipelineConfig& cfg = ctx.config;
  const std::vector<ProteinRecord>& records = ctx.records;
  const std::size_t n = records.size();
  CampaignJournal* journal = ctx.journal;
  // Batch-only seal skip (see stage_features.cpp): streaming waves
  // re-price their tasks on resume so the service clocks reproduce.
  const bool sealed =
      ctx.wave < 0 && journal && journal->stage_complete(StageKind::kInference);
  const bool tracing = ctx.tracing();

  FoldingEngine engine(ctx.universe, cfg.engine);
  // A computed target's five models run on one thread per CPU in the
  // affinity mask; the resolve loop below stays serial.
  SlotComputer compute;

  // Campaign-global decisions, fixed once regardless of how the record
  // stream is sliced into waves: the quality-measured subset (a
  // deterministic shuffle of ALL records), its visit order, and the
  // relax-kept quota.
  if (!carry.initialized) {
    carry.initialized = true;
    carry.measured_order.resize(n);
    std::iota(carry.measured_order.begin(), carry.measured_order.end(), std::size_t{0});
    {
      Rng shuffle_rng = ctx.stage_rng(0x5A3F);
      shuffle_rng.shuffle(carry.measured_order);
    }
    carry.measured_count =
        cfg.quality_sample <= 0
            ? n
            : std::min<std::size_t>(n, static_cast<std::size_t>(cfg.quality_sample));
    carry.measured.assign(n, false);
    for (std::size_t k = 0; k < carry.measured_count; ++k)
      carry.measured[carry.measured_order[k]] = true;
    carry.relax_measured_target = std::min<std::size_t>(
        carry.measured_count, static_cast<std::size_t>(std::max(0, cfg.relax_sample)));
    carry.passes.resize(n);
    carry.oom.resize(n);
    carry.processed.assign(n, 0);
    out.kept_for_relax.reserve(carry.relax_measured_target);
  }

  std::vector<char> in_wave(n, 0);
  for (const std::size_t i : subset) in_wave[i] = 1;

  const bool caching = ctx.caching();
  if (caching) {
    ctx.store->begin_stage("inference", stage_store_pricer(cfg, StageKind::kInference));
  }

  // Measured targets of this wave, visited in the campaign-global
  // shuffle order so the recycle model observes (and the quality sample
  // sets accumulate) identically however the waves are cut.
  for (std::size_t k = 0; k < carry.measured_count; ++k) {
    const std::size_t i = carry.measured_order[k];
    if (!in_wave[i] || carry.processed[i]) continue;
    carry.processed[i] = 1;
    const ProteinRecord& rec = records[i];
    TargetResult& tr = out.targets[i];
    tr.id = rec.sequence.id();
    tr.length = rec.length();
    tr.hardness = rec.hardness;
    tr.measured = true;

    const store::ArtifactKey key = stage_artifact_key(cfg, StageKind::kInference, rec);
    const auto predict = [&] {
      return predict_measured(engine, rec, features[i], cfg.preset, compute);
    };
    const auto put = [&](const store::PredictionArtifact& art) {
      ctx.store->put(key, rec.sequence.id() + "/prediction", store::encode_prediction(art),
                     modeled_structure_bytes(rec.length()));
    };
    // A journal row never carries a structure, so it (like a stored
    // artifact without one) cannot restore a kept target the relaxation
    // stage still has to minimize. A kept target whose relaxed row is
    // journaled needs no structure: the relax loop resolves it from
    // that row.
    const bool needs_structure = !(journal && journal->find<store::RelaxArtifact>(i));
    const auto usable = [&](const store::PredictionArtifact& art) {
      return art.dropped || carry.kept_count >= carry.relax_measured_target ||
             !needs_structure || art.has_structure;
    };
    store::PredictionArtifact a =
        resolve(journal, i, ctx.store, key, store::decode_prediction, predict, put, usable)
            .artifact;

    // Journal row, stored artifact, or fresh prediction, the record
    // replays the way the engine produced it: per-model passes and
    // recycle-model observations in model order, then the quality
    // samples and the relax-kept structure.
    for (std::size_t m = 0; m < 5; ++m) {
      const bool model_oom = (a.oom_mask >> m) & 1u;
      carry.oom[i][m] = model_oom;
      carry.passes[i][m] = a.passes[m];
      if (model_oom) continue;
      carry.recycle_model.observe(rec.hardness, rec.length(), a.passes[m] - 1,
                                  ((a.conv_mask >> m) & 1u) != 0);
    }
    if (a.dropped) {
      tr.oom = true;
      continue;
    }
    tr.top_model = a.top_model;
    tr.plddt = a.plddt;
    tr.ptms = a.ptms;
    tr.true_tm = a.true_tm;
    tr.true_lddt = a.true_lddt;
    tr.recycles = a.recycles;
    tr.converged = a.converged;
    out.plddt.add(a.plddt);
    out.ptms.add(a.ptms);
    out.recycles.add(a.recycles);
    // Every kept target is pushed, with or without its structure, so
    // the relax loop appends its fit samples in the same order.
    if (carry.kept_count < carry.relax_measured_target) {
      ++carry.kept_count;
      out.kept_for_relax.push_back({i, std::move(a.structure)});
    }
  }

  // Unmeasured targets of this wave: recycle counts from the measured
  // empirical distribution as observed so far; OOM from the
  // deterministic memory model.
  for (std::size_t i = 0; i < n; ++i) {
    if (carry.measured[i] || !in_wave[i] || carry.processed[i]) continue;
    carry.processed[i] = 1;
    const ProteinRecord& rec = records[i];
    TargetResult& tr = out.targets[i];
    tr.id = rec.sequence.id();
    tr.length = rec.length();
    tr.hardness = rec.hardness;
    Rng rng(rec.record_seed, 0xEC0);
    const bool task_oom =
        inference_memory_gb(rec.length(), cfg.preset.ensembles) > cfg.engine.memory_budget_gb;
    bool any_ok = false;
    for (std::size_t m = 0; m < 5; ++m) {
      carry.oom[i][m] = task_oom;
      if (task_oom) {
        carry.passes[i][m] = 1;
        continue;
      }
      const auto draw = carry.recycle_model.sample(rec.hardness, rec.length(), rng);
      carry.passes[i][m] = draw.recycles_run + 1;
      any_ok = true;
      if (m == 0) {
        tr.recycles = draw.recycles_run;
        tr.converged = draw.converged;
      }
    }
    tr.oom = !any_ok;
  }

  // A sealed inference stage restores its dataflow artifacts verbatim;
  // the map() below never re-runs, so node-hours are billed once.
  // Under tracing the map re-runs for its spans, but the report and
  // task records still replay from the journal.
  StageWaveOutcome wave;
  if (sealed && !tracing) return wave;

  // One task per (target, model) of this wave, ids global so spans from
  // incremental and batch runs name the same work identically.
  std::vector<TaskSpec> tasks;
  tasks.reserve(subset.size() * 5);
  for (const std::size_t i : subset) {
    for (std::size_t m = 0; m < 5; ++m) {
      TaskSpec t;
      t.id = static_cast<std::uint64_t>(i * 5 + m);
      t.name = format("%s/model%zu", records[i].sequence.id().c_str(), m + 1);
      t.cost_hint = static_cast<double>(records[i].length());
      t.payload = pack_task(i, m);
      tasks.push_back(t);
    }
  }

  const TaskFn fn = [&](const TaskSpec& t, const TaskAttempt& at) {
    const PackedTask p = unpack_task(t.payload);
    const int len = records[p.record].length();
    const int task_passes = carry.passes[p.record][p.model];
    TaskOutcome o;
    if (!carry.oom[p.record][p.model]) {
      o.sim_duration_s = cfg.inference_cost.task_seconds(len, task_passes, cfg.preset.ensembles);
      return o;
    }
    if (at.alt_pool) {
      // High-memory rerun: the full prediction, priced at the recycles it
      // actually needs (at least the memory-model default of 4 passes).
      o.sim_duration_s = cfg.inference_cost.task_seconds(
          len, task_passes > 1 ? task_passes : 4, cfg.preset.ensembles);
      return o;
    }
    // The task still occupies a GPU until it dies (overhead + one pass),
    // then the RetryPolicy reroutes it or counts it as failed.
    o.ok = false;
    o.sim_duration_s = cfg.inference_cost.task_seconds(len, 1, cfg.preset.ensembles);
    return o;
  };

  // Distributed locality: all five model tasks of a record need that
  // record's feature artifact (so they co-locate on its holder), and
  // each publishes the record's structure artifact that the relaxation
  // stage will in turn need.
  const double slowdown = cfg.filesystem.io_slowdown(cfg.jobs_per_replica);
  const bool full = cfg.library == LibraryKind::kFull;
  const auto locality = [&, slowdown, full](const TaskSpec& t) {
    const PackedTask p = unpack_task(t.payload);
    const ProteinRecord& rec = records[p.record];
    dist::TaskLocality loc;
    loc.needs.push_back({stage_artifact_key(cfg, StageKind::kFeatures, rec),
                         static_cast<double>(features[p.record].feature_bytes()),
                         cfg.feature_cost.task_seconds(rec.length(), full, slowdown,
                                                       andes().cpu_node_speed)});
    loc.produces.push_back(
        {stage_artifact_key(cfg, StageKind::kInference, rec), modeled_structure_bytes(rec.length()),
         cfg.inference_cost.task_seconds(rec.length(), 4, cfg.preset.ensembles)});
    return loc;
  };

  StageMapResult map =
      map_stage(ctx, StageKind::kInference, "inference", std::move(tasks), fn, locality);
  wave.mapped = true;
  wave.report = map.report;
  if (!sealed) {
    for (auto& rec : map.run.primary.records) out.task_records.push_back(std::move(rec));
  }
  return wave;
}

}  // namespace sf
