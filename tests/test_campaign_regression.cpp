// Refactor invariant: a seed-fixed campaign reproduces the exact
// CampaignReport (stage walls, node-hours, per-target results) that the
// pre-refactor monolithic Pipeline::run() produced. The golden values
// below were captured from the seed implementation; the stage-driver +
// Executor decomposition was verified byte-identical against them. The
// in-tree assertions use a tight relative tolerance so the test stays
// portable across toolchains (FP contraction), while still catching any
// semantic drift -- reordered task queues, changed RNG streams, or
// altered cost pricing all move these values by many orders of
// magnitude more.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>

#include "core/pipeline.hpp"
#include "fold/memory_model.hpp"
#include "store/artifact_store.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

void expect_close(double actual, double golden, const char* what) {
  EXPECT_NEAR(actual, golden, std::abs(golden) * 1e-6 + 1e-9) << what;
}

double record_checksum(const std::vector<TaskRecord>& records) {
  double sum = 0.0;
  for (const auto& r : records) {
    sum += r.start_s + 2.0 * r.end_s + static_cast<double>(r.worker + 1);
  }
  return sum;
}

TEST(CampaignRegression, SeedFixedCampaignMatchesPreRefactorReport) {
  FoldUniverse universe(40, 31);
  SpeciesProfile profile = species_d_vulgaris();
  const auto records = ProteomeGenerator(universe, profile, 12).generate(80);
  PipelineConfig cfg;
  cfg.summit_nodes = 4;
  cfg.andes_nodes = 8;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 4;
  cfg.jobs_per_replica = 2;
  cfg.quality_sample = 30;
  cfg.relax_sample = 10;
  const CampaignReport rep = Pipeline(universe, cfg).run(records);

  expect_close(rep.features.wall_s, 3011.6797948717949, "features.wall_s");
  expect_close(rep.features.node_hours, 6.6926217663817669, "features.node_hours");
  expect_close(rep.features.mean_utilization, 0.99499557606110034, "features.util");
  expect_close(rep.features.finish_spread_s, 20.919589743590222, "features.spread");
  expect_close(rep.inference.wall_s, 5671.0117400000026, "inference.wall_s");
  expect_close(rep.inference.node_hours, 6.3011241555555584, "inference.node_hours");
  expect_close(rep.inference.mean_utilization, 0.99235026513760283, "inference.util");
  expect_close(rep.inference.finish_spread_s, 71.219720000000052, "inference.spread");
  expect_close(rep.relaxation.wall_s, 311.15559999999999, "relax.wall_s");
  expect_close(rep.relaxation.node_hours, 0.086432111111111112, "relax.node_hours");
  EXPECT_EQ(rep.relaxation.tasks, 80);
  EXPECT_EQ(rep.features.failed_tasks, 0);
  EXPECT_EQ(rep.relaxation.failed_tasks, 0);

  expect_close(rep.plddt.mean(), 82.580293685541449, "plddt.mean");
  expect_close(rep.ptms.mean(), 0.85000878918260547, "ptms.mean");
  expect_close(rep.recycles.mean(), 3.1333333333333333, "recycles.mean");

  // Per-task timeline of the inference stage, folded into a checksum.
  ASSERT_EQ(rep.inference_records.size(), 400u);
  expect_close(record_checksum(rep.inference_records), 4952653.9888200006, "records.checksum");

  // Per-target spot checks.
  EXPECT_EQ(rep.targets[0].id, "d_vulgaris_00000");
  EXPECT_EQ(rep.targets[0].length, 173);
  EXPECT_EQ(rep.targets[0].recycles, 3);
  EXPECT_EQ(rep.targets[7].id, "d_vulgaris_00007");
  EXPECT_EQ(rep.targets[7].length, 199);
  EXPECT_EQ(rep.targets[7].recycles, 4);
  EXPECT_FALSE(rep.targets[7].relaxed);
}

TEST(CampaignRegression, FifoStoreUnderPressureLeavesGoldensUntouched) {
  // Eviction pluggability must not perturb existing outputs: the same
  // seed-fixed campaign, now with a capacity-squeezed kFifo store
  // attached (evicting throughout), still lands on the PR 6 goldens.
  FoldUniverse universe(40, 31);
  SpeciesProfile profile = species_d_vulgaris();
  const auto records = ProteomeGenerator(universe, profile, 12).generate(80);
  PipelineConfig cfg;
  cfg.summit_nodes = 4;
  cfg.andes_nodes = 8;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 4;
  cfg.jobs_per_replica = 2;
  cfg.quality_sample = 30;
  cfg.relax_sample = 10;

  const std::string dir = test_scratch_dir() + "regression_fifo_store";
  std::filesystem::remove_all(dir);
  store::StorePolicy policy;
  policy.eviction = store::EvictionPolicy::kFifo;
  policy.capacity_bytes = 2000000;
  store::ArtifactStore artifacts(dir, policy);
  EXPECT_FALSE(artifacts.open());
  const CampaignReport rep = Pipeline(universe, cfg).run(records, nullptr, nullptr, &artifacts);
  EXPECT_GT(artifacts.total_stats().evictions, 0u);

  expect_close(rep.features.wall_s, 3011.6797948717949, "features.wall_s");
  expect_close(rep.features.node_hours, 6.6926217663817669, "features.node_hours");
  expect_close(rep.features.mean_utilization, 0.99499557606110034, "features.util");
  expect_close(rep.features.finish_spread_s, 20.919589743590222, "features.spread");
  expect_close(rep.inference.wall_s, 5671.0117400000026, "inference.wall_s");
  expect_close(rep.inference.node_hours, 6.3011241555555584, "inference.node_hours");
  expect_close(rep.inference.mean_utilization, 0.99235026513760283, "inference.util");
  expect_close(rep.inference.finish_spread_s, 71.219720000000052, "inference.spread");
  expect_close(rep.relaxation.wall_s, 311.15559999999999, "relax.wall_s");
  expect_close(rep.relaxation.node_hours, 0.086432111111111112, "relax.node_hours");
  expect_close(rep.plddt.mean(), 82.580293685541449, "plddt.mean");
  expect_close(rep.ptms.mean(), 0.85000878918260547, "ptms.mean");
  ASSERT_EQ(rep.inference_records.size(), 400u);
  expect_close(record_checksum(rep.inference_records), 4952653.9888200006, "records.checksum");
}

TEST(CampaignRegression, HighmemReroutePathMatchesPreRefactorReport) {
  // Long casp14 targets: every model OOMs on the standard pool and
  // reruns on the high-memory pool via the generic RetryPolicy; the
  // report must match the old hand-coded high-memory rerun exactly.
  FoldUniverse universe(10, 5);
  SpeciesProfile profile = benchmark_559_profile();
  profile.length_min = 1100;
  profile.length_log_mu = 7.1;
  const auto records = ProteomeGenerator(universe, profile, 3).generate(6);
  for (const auto& r : records) ASSERT_FALSE(fits_standard_node(r.length(), 8));

  PipelineConfig cfg;
  cfg.preset = preset_casp14();
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.quality_sample = 6;
  cfg.relax_sample = 0;
  cfg.use_highmem_for_oom = true;
  cfg.highmem_nodes = 1;
  const CampaignReport rep = Pipeline(universe, cfg).run(records);

  expect_close(rep.inference.wall_s, 94171.435840000006, "inference.wall_s");
  expect_close(rep.inference.node_hours, 33.534252355555559, "inference.node_hours");
  EXPECT_EQ(rep.inference.failed_tasks, 0);
  ASSERT_EQ(rep.inference_records.size(), 30u);
  expect_close(record_checksum(rep.inference_records), 632715.65087999997, "records.checksum");
}

TEST(CampaignRegression, ClusterStageDisabledByDefaultFreezesCampaignBytes) {
  // PR 10 invariant: the novel-fold stage is strictly opt-in. A default
  // config must neither run it nor move the campaign fingerprint (old
  // journals stay valid), and enabling it must fork the fingerprint so
  // a cluster journal can never replay into a three-stage campaign.
  FoldUniverse universe(40, 31);
  SpeciesProfile profile = species_d_vulgaris();
  const auto records = ProteomeGenerator(universe, profile, 12).generate(40);
  PipelineConfig cfg;
  EXPECT_FALSE(cfg.cluster.enabled);
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.quality_sample = 10;
  cfg.relax_sample = 5;

  const std::uint64_t base_fp = campaign_fingerprint(cfg, records);
  PipelineConfig tweaked = cfg;
  tweaked.cluster.tm_threshold = 0.7;
  tweaked.cluster.prefilter = false;
  // Disabled cluster knobs are inert: no fingerprint motion, so PR 9
  // journals replay unchanged.
  EXPECT_EQ(campaign_fingerprint(tweaked, records), base_fp);
  tweaked.cluster.enabled = true;
  EXPECT_NE(campaign_fingerprint(tweaked, records), base_fp);

  const CampaignReport rep = Pipeline(universe, cfg).run(records);
  EXPECT_FALSE(rep.cluster.enabled);
  EXPECT_EQ(rep.cluster.align.tasks, 0);
  EXPECT_EQ(rep.cluster.novel.size(), 0u);
  // The three-stage goldens and totals are untouched by the new field.
  const CampaignReport again = Pipeline(universe, cfg).run(records);
  EXPECT_DOUBLE_EQ(rep.total_andes_node_hours(), rep.features.node_hours);
  EXPECT_DOUBLE_EQ(rep.features.wall_s, again.features.wall_s);
}

TEST(CampaignRegression, DeterministicAcrossRuns) {
  FoldUniverse universe(40, 31);
  SpeciesProfile profile = species_d_vulgaris();
  const auto records = ProteomeGenerator(universe, profile, 12).generate(40);
  PipelineConfig cfg;
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.quality_sample = 10;
  cfg.relax_sample = 5;
  const CampaignReport a = Pipeline(universe, cfg).run(records);
  const CampaignReport b = Pipeline(universe, cfg).run(records);
  EXPECT_DOUBLE_EQ(a.features.wall_s, b.features.wall_s);
  EXPECT_DOUBLE_EQ(a.inference.wall_s, b.inference.wall_s);
  EXPECT_DOUBLE_EQ(a.relaxation.wall_s, b.relaxation.wall_s);
  EXPECT_DOUBLE_EQ(a.plddt.mean(), b.plddt.mean());
  EXPECT_DOUBLE_EQ(record_checksum(a.inference_records), record_checksum(b.inference_records));
}

}  // namespace
}  // namespace sf
