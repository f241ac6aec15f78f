// core/pair_campaign: PPI screening with pair-keyed caching and a
// kill-safe pair journal.
//
// Locks the campaign's contract end to end:
//  * pair keys are order-normalized (key(A,B) == key(B,A)) and
//    sensitive to every other input;
//  * a K-chain cold screen computes each chain's features exactly once
//    (K feature misses, K puts), and a warm store turns the whole
//    feature stage into hits;
//  * a journal-sealed feature stage plus a warm store resumes with ZERO
//    feature-stage task attempts;
//  * stdout/report is byte-identical across executor backends, node
//    counts, store configurations, and reruns;
//  * every pair outcome is ComplexEngine::predict_pair's, although the
//    screen predicts each chain's monomer models only once (full,
//    truncated and over-budget screens), and screens of zero or one
//    chain report no pairs;
//  * under an active fault plan, a journal truncated at any byte prefix
//    resumes to a bit-identical report -- no pair task billed twice.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/journal.hpp"
#include "core/pair_campaign.hpp"
#include "core/pipeline.hpp"
#include "dataflow/executor.hpp"
#include "dist/executor.hpp"
#include "fold/complex.hpp"
#include "fold/memory_model.hpp"
#include "obs/trace.hpp"
#include "seqsearch/feature_model.hpp"
#include "store/artifact_store.hpp"
#include "store/key.hpp"
#include "util/string_util.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir = test_scratch_dir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

PipelineConfig pair_cfg() {
  PipelineConfig cfg;
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 2;
  cfg.jobs_per_replica = 2;
  cfg.use_highmem_for_oom = true;
  cfg.highmem_nodes = 1;
  return cfg;
}

// The chaos variant: same fault plan shape as the single-chain chaos
// suite, so retries, reroutes, and backoff all fire inside the sweep.
PipelineConfig chaos_pair_cfg() {
  PipelineConfig cfg = pair_cfg();
  cfg.faults.seed = 77;
  cfg.faults.crash_rate = 0.06;
  cfg.faults.transient_rate = 0.08;
  cfg.faults.transient_attempts = 1;
  cfg.faults.oom_rate = 0.05;
  cfg.faults.straggler_rate = 0.1;
  cfg.faults.straggler_factor = 3.0;
  cfg.faults.fs_stall_rate = 0.05;
  cfg.faults.fs_stall_base_s = 20.0;
  return cfg;
}

std::vector<ProteinRecord> sample_records(int n) {
  FoldUniverse universe(40, 31);
  return ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(n);
}

std::string render(const PairCampaignReport& r) {
  std::ostringstream ss;
  print_pair_campaign(ss, r);
  return ss.str();
}

void expect_stage_eq(const StageReport& a, const StageReport& b) {
  EXPECT_EQ(a.name, b.name);
  EXPECT_EQ(a.wall_s, b.wall_s);
  EXPECT_EQ(a.node_hours, b.node_hours);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.tasks, b.tasks);
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.rerouted_tasks, b.rerouted_tasks);
  EXPECT_EQ(a.mean_utilization, b.mean_utilization);
  EXPECT_EQ(a.finish_spread_s, b.finish_spread_s);
  EXPECT_EQ(a.faults.crash_attempts, b.faults.crash_attempts);
  EXPECT_EQ(a.faults.transient_attempts, b.faults.transient_attempts);
  EXPECT_EQ(a.faults.oom_attempts, b.faults.oom_attempts);
  EXPECT_EQ(a.faults.straggler_attempts, b.faults.straggler_attempts);
  EXPECT_EQ(a.faults.stalled_attempts, b.faults.stalled_attempts);
  EXPECT_EQ(a.faults.lost_work_s, b.faults.lost_work_s);
  EXPECT_EQ(a.faults.backoff_delay_s, b.faults.backoff_delay_s);
}

void expect_pair_report_eq(const PairCampaignReport& a, const PairCampaignReport& b) {
  // The printed summary is the byte-level contract ...
  EXPECT_EQ(render(a), render(b));
  // ... and the fields behind it must agree exactly, not just in print.
  expect_stage_eq(a.features, b.features);
  expect_stage_eq(a.inference, b.inference);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  for (std::size_t k = 0; k < a.pairs.size(); ++k) {
    SCOPED_TRACE("pair " + std::to_string(k));
    EXPECT_EQ(a.pairs[k].a, b.pairs[k].a);
    EXPECT_EQ(a.pairs[k].b, b.pairs[k].b);
    EXPECT_EQ(a.pairs[k].interface_score, b.pairs[k].interface_score);
    EXPECT_EQ(a.pairs[k].ptms, b.pairs[k].ptms);
    EXPECT_EQ(a.pairs[k].recycles, b.pairs[k].recycles);
    EXPECT_EQ(a.pairs[k].oom, b.pairs[k].oom);
    EXPECT_EQ(a.pairs[k].truly_interacting, b.pairs[k].truly_interacting);
    EXPECT_EQ(a.pairs[k].called_positive, b.pairs[k].called_positive);
  }
  EXPECT_EQ(a.screened, b.screened);
  EXPECT_EQ(a.oom_pairs, b.oom_pairs);
  EXPECT_EQ(a.positives, b.positives);
  EXPECT_EQ(a.true_positives, b.true_positives);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.binder_iscore.count(), b.binder_iscore.count());
  EXPECT_EQ(a.binder_iscore.mean(), b.binder_iscore.mean());
  EXPECT_EQ(a.nonbinder_iscore.count(), b.nonbinder_iscore.count());
  EXPECT_EQ(a.nonbinder_iscore.mean(), b.nonbinder_iscore.mean());
}

// ------------------------------------------------------------------ //
// Pair keys.
// ------------------------------------------------------------------ //

TEST(PairKey, OrderNormalizedAndSensitiveToEverythingElse) {
  const std::uint64_t fa = 0x1111aaaaULL;
  const std::uint64_t fb = 0x2222bbbbULL;
  const store::ArtifactKey ab = store::pair_artifact_key(fa, fb, "pair", 7);
  // The whole point: a complex prediction is addressed by the unordered
  // pair, so task ordering can never split the cache.
  EXPECT_EQ(ab, store::pair_artifact_key(fb, fa, "pair", 7));
  EXPECT_NE(ab, store::pair_artifact_key(fa, fb, "pair", 8));
  EXPECT_NE(ab, store::pair_artifact_key(fa, fb, "features", 7));
  EXPECT_NE(ab, store::pair_artifact_key(fa, fa, "pair", 7));
  EXPECT_NE(ab, store::pair_artifact_key(fa, fb + 1, "pair", 7));
  // And a pair key never collides with a single-record key built from
  // either fingerprint.
  EXPECT_NE(ab, store::artifact_key(fa, "pair", 7));
  EXPECT_NE(ab, store::artifact_key(fb, "pair", 7));
}

TEST(PairCampaign, EnumeratePairsIsCanonicalAndTruncates) {
  const auto all = PairCampaign::enumerate_pairs(5, 0);
  ASSERT_EQ(all.size(), 10u);
  // i-major with i < j: (0,1) (0,2) ... (3,4).
  EXPECT_EQ(all.front(), (std::pair<std::size_t, std::size_t>{0, 1}));
  EXPECT_EQ(all[4], (std::pair<std::size_t, std::size_t>{1, 2}));
  EXPECT_EQ(all.back(), (std::pair<std::size_t, std::size_t>{3, 4}));
  for (const auto& [i, j] : all) EXPECT_LT(i, j);

  const auto capped = PairCampaign::enumerate_pairs(5, 3);
  ASSERT_EQ(capped.size(), 3u);
  EXPECT_EQ(capped, decltype(capped)(all.begin(), all.begin() + 3));
  EXPECT_TRUE(PairCampaign::enumerate_pairs(1, 0).empty());
  EXPECT_TRUE(PairCampaign::enumerate_pairs(0, 0).empty());
}

// ------------------------------------------------------------------ //
// Determinism: backends, node counts, reruns, stores.
// ------------------------------------------------------------------ //

TEST(PairCampaign, ReportByteIdenticalAcrossBackendsThreadCountsAndReruns) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(10);
  const PipelineConfig cfg = chaos_pair_cfg();  // faults on: retries in play
  const PairCampaign campaign(universe, cfg);

  const PairCampaignReport baseline = campaign.run(records);
  EXPECT_EQ(static_cast<std::size_t>(baseline.pairs.size()), 45u);
  EXPECT_GT(baseline.screened, 0);
  EXPECT_GT(baseline.total_summit_node_hours(), 0.0);

  // Rerun: bit-identical.
  expect_pair_report_eq(baseline, campaign.run(records));

  // Explicit simulated overrides (the same canonical pools the default
  // path builds): bit-identical.
  {
    SimulatedExecutor feat = make_stage_executor(cfg, StageKind::kFeatures);
    SimulatedExecutor pair = make_stage_executor(cfg, StageKind::kInference);
    expect_pair_report_eq(baseline,
                          campaign.run(records, nullptr, nullptr, nullptr, &feat, &pair));
  }

  // Distributed overrides at two node counts: both pools sliced over
  // the nodes, the report still prices the canonical modeled schedule.
  for (const int nodes : {3, 7}) {
    dist::DistConfig dc;
    dc.nodes = nodes;
    dist::DistCluster cluster(dc);
    const auto feat = make_stage_executor_dist(cluster, cfg, StageKind::kFeatures);
    const auto pair = make_stage_executor_dist(cluster, cfg, StageKind::kInference);
    expect_pair_report_eq(baseline, campaign.run(records, nullptr, nullptr, nullptr, feat.get(),
                                                 pair.get()));
  }
}

TEST(PairCampaign, StoreUnderAnyEvictionPolicyNeverChangesStdout) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(8);
  const PairCampaign campaign(universe, pair_cfg());
  const std::string golden = render(campaign.run(records));

  using store::EvictionPolicy;
  for (const EvictionPolicy ep :
       {EvictionPolicy::kFifo, EvictionPolicy::kLru, EvictionPolicy::kCostAware}) {
    SCOPED_TRACE(store::eviction_policy_name(ep));
    const std::string dir =
        fresh_dir(std::string("pair_policy_") + store::eviction_policy_name(ep));
    store::StorePolicy policy;
    policy.eviction = ep;
    // Tight enough that a cold screen must evict continuously.
    policy.capacity_bytes = 400000;
    {
      store::ArtifactStore cold(dir, policy);
      EXPECT_FALSE(cold.open());
      EXPECT_EQ(golden, render(campaign.run(records, nullptr, nullptr, &cold)));
      EXPECT_GT(cold.total_stats().evictions, 0u);
    }
    // Warm (and partially evicted) rerun: still the same bytes.
    store::ArtifactStore warm(dir, policy);
    EXPECT_TRUE(warm.open());
    EXPECT_EQ(golden, render(campaign.run(records, nullptr, nullptr, &warm)));
    EXPECT_GT(warm.total_stats().hits, 0u);
  }
}

TEST(PairCampaign, ColdRunComputesEachChainsFeaturesExactlyOnce) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(10);
  const std::size_t K = records.size();
  const std::size_t P = K * (K - 1) / 2;
  const PairCampaign campaign(universe, pair_cfg());

  const std::string dir = fresh_dir("pair_cold_once");
  {
    store::ArtifactStore cold(dir);
    EXPECT_FALSE(cold.open());
    campaign.run(records, nullptr, nullptr, &cold);
    ASSERT_EQ(cold.stage_history().size(), 2u);
    const auto& feat = cold.stage_history()[0];
    EXPECT_EQ(feat.first, "pair-features");
    // One get + one miss + one put per chain: features are computed
    // exactly once each, however many pairs reuse them.
    EXPECT_EQ(feat.second.gets, K);
    EXPECT_EQ(feat.second.misses, K);
    EXPECT_EQ(feat.second.hits, 0u);
    EXPECT_EQ(feat.second.puts, K);
    const auto& pairs = cold.stage_history()[1];
    EXPECT_EQ(pairs.first, "pair-inference");
    // Every cold pair misses its pair artifact, stages both chains'
    // features back in (hits, unbounded store), and puts its result.
    EXPECT_EQ(pairs.second.gets, 3 * P);
    EXPECT_EQ(pairs.second.misses, P);
    EXPECT_EQ(pairs.second.hits, 2 * P);
    EXPECT_EQ(pairs.second.puts, P);
  }
  // Warm rerun: all hits, nothing recomputed anywhere.
  store::ArtifactStore warm(dir);
  EXPECT_TRUE(warm.open());
  campaign.run(records, nullptr, nullptr, &warm);
  ASSERT_EQ(warm.stage_history().size(), 2u);
  EXPECT_EQ(warm.stage_history()[0].second.hits, K);
  EXPECT_EQ(warm.stage_history()[0].second.misses, 0u);
  EXPECT_EQ(warm.stage_history()[0].second.puts, 0u);
  EXPECT_EQ(warm.stage_history()[1].second.gets, P);
  EXPECT_EQ(warm.stage_history()[1].second.hits, P);
  EXPECT_EQ(warm.stage_history()[1].second.puts, 0u);
}

TEST(PairCampaign, SealedJournalWithWarmStoreRunsZeroFeatureAttempts) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(8);
  const PairCampaign campaign(universe, pair_cfg());
  const PairCampaignReport baseline = campaign.run(records);

  const std::string dir = fresh_dir("pair_warm_resume");
  const std::string journal_path = test_scratch_dir() + "pair_warm_resume.sfpj";
  write_file(journal_path, "");
  {
    store::ArtifactStore cold(dir);
    cold.open();
    CampaignJournal journal(journal_path);
    const PairCampaignReport first = campaign.run(records, &journal, nullptr, &cold);
    expect_pair_report_eq(baseline, first);
  }
  ASSERT_NE(read_file(journal_path).find("stage features"), std::string::npos);

  // Resume against the sealed journal + warm store, with a recorder
  // watching: the feature stage appears in the trace but ran NOTHING.
  store::ArtifactStore warm(dir);
  ASSERT_TRUE(warm.open());
  CampaignJournal journal(journal_path);
  obs::TraceRecorder recorder;
  const PairCampaignReport resumed = campaign.run(records, &journal, &recorder, &warm);
  expect_pair_report_eq(baseline, resumed);

  ASSERT_EQ(recorder.stages().size(), 2u);
  const obs::StageTrace& features = recorder.stages()[0];
  EXPECT_EQ(features.info.stage, "pair-features");
  EXPECT_TRUE(features.spans.empty());
  EXPECT_TRUE(features.rounds.empty());
  ASSERT_TRUE(features.store);
  EXPECT_EQ(features.store->misses, 0u);
  EXPECT_EQ(features.store->hits, static_cast<std::uint64_t>(records.size()));
  EXPECT_EQ(features.store->puts, 0u);
  // The pair map re-ran for its spans (sealed + tracing), like every
  // single-chain stage.
  EXPECT_EQ(recorder.stages()[1].info.stage, "pair-inference");
  EXPECT_FALSE(recorder.stages()[1].spans.empty());

  // The store agrees: zero feature recomputes on resume.
  ASSERT_FALSE(warm.stage_history().empty());
  EXPECT_EQ(warm.stage_history()[0].first, "pair-features");
  EXPECT_EQ(warm.stage_history()[0].second.misses, 0u);
}

// ------------------------------------------------------------------ //
// Per-screen monomer reuse.
// ------------------------------------------------------------------ //

// Every outcome of `report` is ComplexEngine::predict_pair's for its
// pair, which predicts both chains afresh: the screen's once-per-chain
// monomer predictions change no result.
void expect_outcomes_match_predict_pair(const FoldUniverse& universe, const PipelineConfig& cfg,
                                        const PairCampaignConfig& pc,
                                        const std::vector<ProteinRecord>& records,
                                        const PairCampaignReport& report) {
  ComplexEngineParams params;
  params.engine = cfg.engine;
  const ComplexEngine engine(universe, params);
  const Interactome net(records, pc.interactome_rate, pc.interactome_seed);
  const auto pairs = PairCampaign::enumerate_pairs(records.size(), pc.max_pairs);
  ASSERT_EQ(report.pairs.size(), pairs.size());
  for (std::size_t k = 0; k < pairs.size(); ++k) {
    const auto [a, b] = pairs[k];
    SCOPED_TRACE(format("pair %zu+%zu", a, b));
    const ComplexPrediction want = engine.predict_pair(
        records[a], records[b], sample_features(records[a], cfg.library),
        sample_features(records[b], cfg.library), net, a, b, cfg.preset);
    const PairOutcome& got = report.pairs[k];
    EXPECT_EQ(got.a, a);
    EXPECT_EQ(got.b, b);
    EXPECT_EQ(got.interface_score, want.interface_score);
    EXPECT_EQ(got.ptms, want.ptms);
    EXPECT_EQ(got.recycles, want.recycles_run);
    EXPECT_EQ(got.oom, want.out_of_memory);
    EXPECT_EQ(got.truly_interacting, want.truly_interacting);
    EXPECT_EQ(got.called_positive,
              !want.out_of_memory && want.interface_score >= pc.iscore_cutoff);
  }
}

TEST(PairCampaign, EveryOutcomeMatchesPredictPair) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(7);
  const PipelineConfig cfg = pair_cfg();

  // The full screen.
  {
    const PairCampaign campaign(universe, cfg);
    const PairCampaignReport report = campaign.run(records);
    EXPECT_EQ(report.pairs.size(), 21u);
    EXPECT_EQ(report.oom_pairs, 0);
    expect_outcomes_match_predict_pair(universe, cfg, campaign.pair_config(), records, report);
  }
  // A truncated screen, (0,1)..(0,6) then (1,2) and (1,3): chain 0 sits
  // only on side a, chains 2-6 only on side b.
  {
    PairCampaignConfig pc;
    pc.max_pairs = 8;
    const PairCampaign campaign(universe, cfg, pc);
    const PairCampaignReport report = campaign.run(records);
    EXPECT_EQ(report.pairs.size(), 8u);
    expect_outcomes_match_predict_pair(universe, cfg, pc, records, report);
  }
  // A budget at the median combined length: the longer pairs fail the
  // combined-length check, so a chain may need one slot or none.
  {
    std::vector<int> combined;
    for (const auto& [a, b] : PairCampaign::enumerate_pairs(records.size(), 0)) {
      combined.push_back(records[a].length() + records[b].length());
    }
    std::sort(combined.begin(), combined.end());
    PipelineConfig low = cfg;
    low.engine.memory_budget_gb =
        inference_memory_gb(combined[combined.size() / 2], cfg.preset.ensembles);
    const PairCampaign campaign(universe, low);
    const PairCampaignReport report = campaign.run(records);
    EXPECT_GT(report.oom_pairs, 0);
    EXPECT_GT(report.screened, 0);
    expect_outcomes_match_predict_pair(universe, low, campaign.pair_config(), records, report);
  }
}

TEST(PairCampaign, ScreensOfZeroAndOneChainReportNoPairs) {
  FoldUniverse universe(40, 31);
  const PairCampaign campaign(universe, pair_cfg());
  for (const int k : {0, 1}) {
    SCOPED_TRACE(format("%d chains", k));
    // generate(0) means the whole proteome, so K=0 is spelled out.
    const auto records = k == 0 ? std::vector<ProteinRecord>{} : sample_records(k);
    const std::string dir = fresh_dir(format("pair_degenerate_%d", k));
    store::ArtifactStore store(dir);
    store.open();
    for (store::ArtifactStore* s : {static_cast<store::ArtifactStore*>(nullptr), &store}) {
      const PairCampaignReport report = campaign.run(records, nullptr, nullptr, s);
      EXPECT_TRUE(report.pairs.empty());
      EXPECT_EQ(report.screened, 0);
      EXPECT_EQ(report.oom_pairs, 0);
      EXPECT_EQ(report.positives, 0);
      EXPECT_EQ(report.inference.tasks, 0);
      EXPECT_EQ(report.features.tasks, k);
      EXPECT_EQ(render(report).rfind("pair campaign: 0 pairs\n", 0), 0u);
    }
  }
}

// ------------------------------------------------------------------ //
// Kill/resume under chaos.
// ------------------------------------------------------------------ //

TEST(PairCampaign, JournalResumeReproducesUninterruptedRunAtEveryCut) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(8);
  const PipelineConfig cfg = chaos_pair_cfg();
  const PairCampaign campaign(universe, cfg);

  const PairCampaignReport baseline = campaign.run(records);
  const std::string dir = test_scratch_dir();
  const std::string full_path = dir + "pair_journal_full.sfpj";
  write_file(full_path, "");
  {
    CampaignJournal journal(full_path);
    const PairCampaignReport journaled = campaign.run(records, &journal);
    expect_pair_report_eq(baseline, journaled);
  }
  const std::string full = read_file(full_path);
  ASSERT_NE(full.find("sfpairj v1"), std::string::npos);
  ASSERT_NE(full.find("pair "), std::string::npos);
  ASSERT_NE(full.find("stage features"), std::string::npos);
  ASSERT_NE(full.find("stage inference"), std::string::npos);

  // Kill points: every line boundary, plus torn mid-line tails.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') cuts.push_back(pos + 1);
  }
  const std::size_t line_cuts = cuts.size();
  for (std::size_t i = 0; i + 1 < line_cuts; i += 3) {
    const std::size_t mid = (cuts[i] + cuts[i + 1]) / 2;
    if (mid > cuts[i]) cuts.push_back(mid);
  }
  std::vector<std::size_t> selected;
  const std::size_t max_clean = 24;
  const std::size_t stride = std::max<std::size_t>(1, line_cuts / max_clean);
  for (std::size_t i = 0; i < line_cuts; i += stride) selected.push_back(cuts[i]);
  for (std::size_t i = line_cuts; i < cuts.size(); i += 2) selected.push_back(cuts[i]);

  int resumed_runs = 0;
  for (const std::size_t cut : selected) {
    const std::string path = dir + "pair_journal_cut_" + std::to_string(cut) + ".sfpj";
    write_file(path, full.substr(0, cut));
    CampaignJournal journal(path);
    const PairCampaignReport resumed = campaign.run(records, &journal);
    SCOPED_TRACE("cut at byte " + std::to_string(cut));
    // Bit-identical report -- node-hours included, so no pair task was
    // billed twice (or dropped) at any truncation point.
    expect_pair_report_eq(baseline, resumed);
    ++resumed_runs;
  }
  EXPECT_GE(resumed_runs, 20);

  // Fully sealed journal: both stage reports replay without any map.
  {
    CampaignJournal journal(full_path);
    expect_pair_report_eq(baseline, campaign.run(records, &journal));
  }
}

TEST(PairCampaign, JournalRejectsForeignFingerprint) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(8);
  const PipelineConfig cfg = pair_cfg();
  const PairCampaign campaign(universe, cfg);
  const PairCampaignReport baseline = campaign.run(records);

  const std::string path = test_scratch_dir() + "pair_journal_foreign.sfpj";
  write_file(path, "");
  {
    CampaignJournal journal(path);
    campaign.run(records, &journal);
  }
  // A different screening config (cutoff moved) is a different campaign:
  // its fingerprint must disown the journal.
  PairCampaignConfig other;
  other.iscore_cutoff = 0.5;
  {
    CampaignJournal journal(path);
    EXPECT_FALSE(journal.open(pair_campaign_fingerprint(cfg, records, other), JournalKind::kPair));
  }
  // The original campaign, rerun against the now-reset journal, still
  // reproduces its baseline from scratch.
  {
    CampaignJournal journal(path);
    expect_pair_report_eq(baseline, campaign.run(records, &journal));
  }
}

}  // namespace
}  // namespace sf
