#include "core/pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>

#include "core/journal.hpp"
#include "core/report.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "store/artifact_store.hpp"
#include "util/file_io.hpp"
#include "pinned_cpus.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

struct PipelineWorld {
  FoldUniverse universe{40, 31};
  SpeciesProfile profile = species_d_vulgaris();
  std::vector<ProteinRecord> records;

  PipelineWorld() {
    records = ProteomeGenerator(universe, profile, 12).generate(80);
  }

  PipelineConfig small_config() const {
    PipelineConfig cfg;
    cfg.summit_nodes = 4;
    cfg.andes_nodes = 8;
    cfg.relax_nodes = 1;
    cfg.db_replicas = 4;
    cfg.jobs_per_replica = 2;
    cfg.quality_sample = 30;
    cfg.relax_sample = 10;
    return cfg;
  }
};

TEST(Pipeline, ProducesAllStageReports) {
  PipelineWorld w;
  Pipeline pipeline(w.universe, w.small_config());
  const CampaignReport rep = pipeline.run(w.records);

  EXPECT_EQ(rep.features.tasks, 80);
  EXPECT_EQ(rep.inference.tasks, 80 * 5);
  EXPECT_GT(rep.relaxation.tasks, 0);

  EXPECT_GT(rep.features.wall_s, 0.0);
  EXPECT_GT(rep.inference.wall_s, 0.0);
  EXPECT_GT(rep.relaxation.wall_s, 0.0);
  EXPECT_GT(rep.features.node_hours, 0.0);
  EXPECT_GT(rep.total_summit_node_hours(), 0.0);
  EXPECT_GT(rep.total_andes_node_hours(), 0.0);

  EXPECT_EQ(rep.targets.size(), 80u);
  EXPECT_EQ(rep.plddt.count(), 30u);  // quality sample size
  EXPECT_EQ(rep.inference_records.size(), 400u);
}

TEST(Pipeline, QualityValuesAreInRange) {
  PipelineWorld w;
  Pipeline pipeline(w.universe, w.small_config());
  const CampaignReport rep = pipeline.run(w.records);
  for (const auto& t : rep.targets) {
    EXPECT_FALSE(t.id.empty());
    if (!t.measured) continue;
    EXPECT_GE(t.plddt, 0.0);
    EXPECT_LE(t.plddt, 100.0);
    EXPECT_GE(t.ptms, 0.0);
    EXPECT_LE(t.ptms, 1.0);
    EXPECT_GE(t.top_model, 1);
    EXPECT_LE(t.top_model, 5);
  }
}

TEST(Pipeline, RelaxationRemovesClashesOnMeasuredSubset) {
  PipelineWorld w;
  Pipeline pipeline(w.universe, w.small_config());
  const CampaignReport rep = pipeline.run(w.records);
  int relaxed = 0;
  for (const auto& t : rep.targets) {
    if (!t.relaxed) continue;
    ++relaxed;
    EXPECT_EQ(t.clashes_after, 0u);
    EXPECT_LE(t.bumps_after, t.bumps_before);
  }
  EXPECT_EQ(relaxed, 10);  // relax_sample
}

TEST(Pipeline, DeterministicAcrossRuns) {
  PipelineWorld w;
  Pipeline p1(w.universe, w.small_config());
  Pipeline p2(w.universe, w.small_config());
  const CampaignReport a = p1.run(w.records);
  const CampaignReport b = p2.run(w.records);
  EXPECT_DOUBLE_EQ(a.inference.wall_s, b.inference.wall_s);
  EXPECT_DOUBLE_EQ(a.plddt.mean(), b.plddt.mean());
  EXPECT_DOUBLE_EQ(a.features.node_hours, b.features.node_hours);
}

TEST(Pipeline, MoreNodesShortenInferenceWall) {
  PipelineWorld w;
  PipelineConfig small = w.small_config();
  PipelineConfig big = small;
  big.summit_nodes = 16;
  const CampaignReport rep_small = Pipeline(w.universe, small).run(w.records);
  const CampaignReport rep_big = Pipeline(w.universe, big).run(w.records);
  EXPECT_LT(rep_big.inference.wall_s, rep_small.inference.wall_s);
  // Same work, so node-hours are similar (within startup overheads).
  EXPECT_NEAR(rep_big.inference.node_hours, rep_small.inference.node_hours,
              0.6 * rep_small.inference.node_hours);
}

TEST(Pipeline, FullLibraryCostsMoreFeatureTime) {
  PipelineWorld w;
  PipelineConfig reduced = w.small_config();
  PipelineConfig full = reduced;
  full.library = LibraryKind::kFull;
  const CampaignReport rep_red = Pipeline(w.universe, reduced).run(w.records);
  const CampaignReport rep_full = Pipeline(w.universe, full).run(w.records);
  EXPECT_GT(rep_full.features.node_hours, 2.0 * rep_red.features.node_hours);
}

TEST(Pipeline, ReportPrinterProducesOutput) {
  PipelineWorld w;
  const CampaignReport rep = Pipeline(w.universe, w.small_config()).run(w.records);
  std::ostringstream out;
  print_campaign(out, rep, w.profile);
  const std::string text = out.str();
  EXPECT_NE(text.find("campaign"), std::string::npos);
  EXPECT_NE(text.find("pLDDT"), std::string::npos);
  EXPECT_NE(text.find("node-hours"), std::string::npos);
}

TEST(Pipeline, MeasuredSubsetFeedsUnmeasuredDurations) {
  // With quality_sample < n, unmeasured targets still get recycle counts.
  PipelineWorld w;
  PipelineConfig cfg = w.small_config();
  cfg.quality_sample = 10;
  const CampaignReport rep = Pipeline(w.universe, cfg).run(w.records);
  int measured = 0, unmeasured_with_recycles = 0;
  for (const auto& t : rep.targets) {
    if (t.measured) ++measured;
    else if (t.recycles > 0) ++unmeasured_with_recycles;
  }
  EXPECT_EQ(measured, 10);
  EXPECT_GT(unmeasured_with_recycles, 0);
}

// What one journaled, traced, store-backed campaign leaves behind.
struct CampaignBytes {
  std::string out;
  std::string journal;
  std::string trace;
  std::map<std::string, std::string> store;
};

CampaignBytes run_recorded(const PipelineWorld& w, const PipelineConfig& cfg) {
  const std::string dir = test_scratch_dir() + "recorded/";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  CampaignBytes b;
  obs::TraceRecorder recorder;
  {
    CampaignJournal journal(dir + "campaign.sfj");
    store::ArtifactStore store(dir + "store");
    store.open();
    const CampaignReport rep = Pipeline(w.universe, cfg).run(w.records, &journal, &recorder, &store);
    std::ostringstream out;
    print_campaign(out, rep, w.profile);
    b.out = out.str();
  }
  b.journal = read_file(dir + "campaign.sfj");
  b.trace = obs::render_chrome_trace(recorder.doc());
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir + "store")) {
    if (e.is_regular_file()) b.store[e.path().filename().string()] = read_file(e.path().string());
  }
  return b;
}

// A campaign in which every target is over the engine's memory budget
// (each model task dies and reruns on the high-memory pool; no target
// is kept for relaxation) completes, and leaves the same bytes on one
// CPU as on every CPU, as does the ordinary campaign.
TEST(Pipeline, AllOomCampaignCompletesWithTheSameBytesOnOneCpuAndEveryCpu) {
  PipelineWorld w;
  w.records.resize(24);
  PipelineConfig all_oom = w.small_config();
  all_oom.quality_sample = 12;
  all_oom.engine.memory_budget_gb = 0.0;
  PipelineConfig ordinary = all_oom;
  ordinary.engine = EngineParams{};
  for (const PipelineConfig* cfg : {&all_oom, &ordinary}) {
    const bool oom = cfg == &all_oom;
    SCOPED_TRACE(oom ? "all OOM" : "ordinary");
    std::vector<CampaignBytes> runs;
    for (const std::size_t threads : thread_counts({1})) {
      const PinnedCpus pinned(threads);
      runs.push_back(run_recorded(w, *cfg));
      SCOPED_TRACE(std::to_string(threads) + " threads");
      EXPECT_EQ(runs.front().out, runs.back().out);
      EXPECT_EQ(runs.front().journal, runs.back().journal);
      EXPECT_EQ(runs.front().trace, runs.back().trace);
      EXPECT_EQ(runs.front().store, runs.back().store);
    }
    EXPECT_FALSE(runs.front().store.empty());
    const CampaignReport rep = Pipeline(w.universe, *cfg).run(w.records);
    EXPECT_EQ(rep.inference.tasks, 24 * 5);
    int oom_targets = 0;
    for (const auto& t : rep.targets) oom_targets += t.oom ? 1 : 0;
    EXPECT_EQ(oom_targets, oom ? 24 : 0);
    EXPECT_EQ(rep.plddt.count(), oom ? 0u : 12u);
    if (oom) {
      EXPECT_EQ(rep.relaxation.tasks, 0);
    } else {
      EXPECT_GT(rep.relaxation.tasks, 0);
    }
  }
}

}  // namespace
}  // namespace sf
