// The novel-fold discovery stage (src/cluster + core/stage_cluster).
//
// Five locked properties:
//  * kernel bit-equality: the flat-grid CA-lDDT returns results
//    bit-identical to the reference sf::lddt() while testing far fewer
//    candidate pairs;
//  * prefilter soundness: pruning never changes the accepted edge set
//    or the clustering -- only how many exact alignments run;
//  * schedule independence: the cluster report, campaign stdout, and
//    journal bytes are byte-identical across the SimulatedExecutor and
//    distributed node counts on every stage;
//  * store transparency: stdout is byte-identical with the store off,
//    cold, and warm, and a warm store recomputes zero alignments;
//  * kill-at-any-byte resume: a truncated journal resumes to the exact
//    uninterrupted cluster report, and a sealed journal replays it
//    without a single fresh alignment;
//  * thread-count independence: stdout, journal, store files and trace
//    are byte-identical at any thread count (the CPUs the test pins its
//    thread to), resumes included, and a stored alignment the peek
//    counts on but cannot read is recomputed inline.
#include <gtest/gtest.h>
#include <sched.h>

#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bio/fold_grammar.hpp"
#include "cluster/cluster.hpp"
#include "cluster/grid_lddt.hpp"
#include "core/campaign_service.hpp"
#include "core/journal.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dist/executor.hpp"
#include "native/render.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "store/artifact_store.hpp"
#include "store/key.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/thread_pool.hpp"

namespace sf {
namespace {

// ------------------------------------------------------------------ //
// Grid lDDT kernel.
// ------------------------------------------------------------------ //

std::vector<Structure> kernel_corpus() {
  std::vector<Structure> out;
  Rng rng(91);
  for (const int len : {1, 2, 3, 4, 7, 40, 120, 260}) {
    const FoldSpec fold = sample_fold(rng, len);
    const std::string seq = sample_sequence_for_ss(render_ss(fold, len), rng);
    out.push_back(build_fold_structure("ref", fold, seq));
    out.push_back(build_fold_structure("model", fold, seq, /*noise_A=*/0.8,
                                       /*noise_seed=*/1000 + static_cast<std::uint64_t>(len)));
  }
  return out;
}

TEST(GridLddt, BitIdenticalToReferenceKernel) {
  const std::vector<Structure> corpus = kernel_corpus();
  cluster::GridLddt grid;
  for (std::size_t i = 0; i + 1 < corpus.size(); i += 2) {
    const std::vector<Vec3> ref = corpus[i].ca_coords();
    const std::vector<Vec3> model = corpus[i + 1].ca_coords();
    const LddtResult naive = lddt(model, ref);
    const LddtResult fast = grid.score(model, ref);
    SCOPED_TRACE("length " + std::to_string(ref.size()));
    // Bit equality, not tolerance: identical accumulation order.
    EXPECT_EQ(fast.global, naive.global);
    ASSERT_EQ(fast.per_residue.size(), naive.per_residue.size());
    for (std::size_t r = 0; r < naive.per_residue.size(); ++r) {
      EXPECT_EQ(fast.per_residue[r], naive.per_residue[r]) << "residue " << r;
    }
  }
}

TEST(GridLddt, SelfScoreIsPerfectAndGridPrunesPairTests) {
  Rng rng(17);
  const FoldSpec fold = sample_fold(rng, 220);
  const std::string seq = sample_sequence_for_ss(render_ss(fold, 220), rng);
  const Structure s = build_fold_structure("s", fold, seq);
  const std::vector<Vec3> ca = s.ca_coords();
  cluster::GridLddt grid;
  const LddtResult r = grid.score(ca, ca);
  EXPECT_EQ(r.global, 100.0);
  // The naive kernel distance-tests every j >= i+2 pair; the grid only
  // gathers the 27-cell neighborhoods. An extended chain is sparse, so
  // the candidate count must drop well below the quadratic scan.
  const std::uint64_t n = ca.size();
  const std::uint64_t naive_tests = n * (n - 1) / 2 - (n - 1);
  EXPECT_GT(grid.last_pair_tests(), 0u);
  EXPECT_LT(grid.last_pair_tests(), naive_tests / 2);
}

TEST(GridLddt, ReusedAcrossCallsMatchesFreshInstance) {
  const std::vector<Structure> corpus = kernel_corpus();
  cluster::GridLddt reused;
  for (std::size_t i = 0; i + 1 < corpus.size(); i += 2) {
    cluster::GridLddt fresh;
    const std::vector<Vec3> ref = corpus[i].ca_coords();
    const std::vector<Vec3> model = corpus[i + 1].ca_coords();
    const LddtResult a = reused.score(model, ref);
    const LddtResult b = fresh.score(model, ref);
    EXPECT_EQ(a.global, b.global);
    EXPECT_EQ(reused.last_pair_tests(), fresh.last_pair_tests());
  }
}

// ------------------------------------------------------------------ //
// Prefilter and greedy clustering.
// ------------------------------------------------------------------ //

// A small proteome with genuine same-fold pairs: three folds, several
// homologs each, rendered at assorted lengths. The length spread is
// wide enough (70..190) that short-vs-long cross-fold pairs fall under
// the 0.5 length-ratio bound and the exact gate actually prunes.
std::vector<Structure> prefilter_corpus() {
  std::vector<Structure> out;
  Rng rng(23);
  for (int f = 0; f < 3; ++f) {
    const int base_len = 70 + 50 * f;
    const FoldSpec fold = sample_fold(rng, base_len);
    const std::string seq = sample_sequence_for_ss(render_ss(fold, base_len), rng);
    out.push_back(build_fold_structure(format("f%d", f), fold, seq));
    for (int h = 0; h < 2; ++h) {
      const int len = base_len + 10 * (h + 1);
      Rng hrng(100 + 10 * f + h);
      const std::string hseq = homolog_sequence(fold, seq, base_len, len, 0.25, hrng);
      out.push_back(build_fold_structure(format("f%dh%d", f, h), fold, hseq));
    }
  }
  return out;
}

TEST(ClusterPrefilter, LengthGateIsExactForMinTmMetric) {
  // TM normalized by the longer chain is bounded by Lshort/Llong, so
  // the length gate can never prune a pair that would clear the
  // threshold. Verify the bound against exact alignments.
  const std::vector<Structure> corpus = prefilter_corpus();
  cluster::ClusterStageConfig cfg;
  cfg.tm_threshold = 0.5;
  for (std::size_t a = 0; a < corpus.size(); ++a) {
    for (std::size_t b = a + 1; b < corpus.size(); ++b) {
      const double la = static_cast<double>(corpus[a].size());
      const double lb = static_cast<double>(corpus[b].size());
      const double bound = std::min(la, lb) / std::max(la, lb);
      const cluster::PairAlignment al = cluster::align_pair(corpus[a], corpus[b]);
      EXPECT_LE(std::min(al.tm_query, al.tm_target), bound + 1e-12)
          << corpus[a].name() << " vs " << corpus[b].name();
    }
  }
}

TEST(ClusterPrefilter, PruningNeverChangesAcceptedEdgesOrClusters) {
  const std::vector<Structure> corpus = prefilter_corpus();
  std::vector<std::size_t> items(corpus.size());
  for (std::size_t i = 0; i < items.size(); ++i) items[i] = i;

  cluster::ClusterStageConfig on;
  cluster::ClusterStageConfig off;
  off.prefilter = false;
  std::vector<cluster::ChainSketch> sketches(corpus.size());
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    sketches[i] = cluster::make_sketch(corpus[i], on.sketch);
  }
  cluster::PrefilterStats stats_on, stats_off;
  const auto kept = cluster::candidate_pairs(items, sketches, on, &stats_on);
  const auto all = cluster::candidate_pairs(items, sketches, off, &stats_off);
  EXPECT_EQ(stats_off.kept, stats_off.pairs_total);
  EXPECT_LT(stats_on.kept, stats_off.kept);  // the filter actually bites
  EXPECT_EQ(stats_on.pruned_length + stats_on.pruned_sketch + stats_on.kept,
            stats_on.pairs_total);

  const auto edges_of = [&](const std::vector<std::pair<std::size_t, std::size_t>>& pairs) {
    std::vector<std::uint64_t> keys;
    for (const auto& [a, b] : pairs) {
      const cluster::PairAlignment al = cluster::align_pair(corpus[a], corpus[b]);
      if (cluster::edge_accepted(al, on.tm_threshold)) {
        keys.push_back(cluster::cluster_pair_key(a, b));
      }
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  };
  const std::vector<std::uint64_t> edges_pruned = edges_of(kept);
  const std::vector<std::uint64_t> edges_full = edges_of(all);
  EXPECT_EQ(edges_pruned, edges_full);
  EXPECT_FALSE(edges_full.empty());  // the homolog pairs do connect

  const cluster::ProteomeClusters ca = cluster::greedy_cluster(items, edges_pruned);
  const cluster::ProteomeClusters cb = cluster::greedy_cluster(items, edges_full);
  ASSERT_EQ(ca.clusters.size(), cb.clusters.size());
  for (std::size_t c = 0; c < ca.clusters.size(); ++c) {
    EXPECT_EQ(ca.clusters[c].centroid, cb.clusters[c].centroid);
    EXPECT_EQ(ca.clusters[c].members, cb.clusters[c].members);
  }
}

TEST(ClusterGreedy, CanonicalOrderIsDeterministic) {
  // items {0..5}; centroid 0 adopts 2 and 4 via its direct edges,
  // centroid 1 adopts 5, and 3 stays a singleton.
  const std::vector<std::size_t> items = {0, 1, 2, 3, 4, 5};
  std::vector<std::uint64_t> edges = {
      cluster::cluster_pair_key(2, 0),  // order-normalized on insert
      cluster::cluster_pair_key(0, 4),
      cluster::cluster_pair_key(1, 5),
  };
  std::sort(edges.begin(), edges.end());
  const cluster::ProteomeClusters pc = cluster::greedy_cluster(items, edges);
  ASSERT_EQ(pc.clusters.size(), 3u);
  EXPECT_EQ(pc.clusters[0].centroid, 0u);
  EXPECT_EQ(pc.clusters[0].members, (std::vector<std::size_t>{0, 2, 4}));
  EXPECT_EQ(pc.clusters[1].centroid, 1u);
  EXPECT_EQ(pc.clusters[1].members, (std::vector<std::size_t>{1, 5}));
  EXPECT_EQ(pc.clusters[2].centroid, 3u);
  EXPECT_EQ(pc.largest, 3u);
  EXPECT_EQ(pc.singletons, 1u);
}

// ------------------------------------------------------------------ //
// Campaign-level determinism.
// ------------------------------------------------------------------ //

PipelineConfig cluster_campaign_config() {
  PipelineConfig cfg;
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 2;
  cfg.jobs_per_replica = 2;
  cfg.quality_sample = 6;
  cfg.relax_sample = 3;
  cfg.cluster.enabled = true;
  return cfg;
}

std::vector<ProteinRecord> cluster_records(const FoldUniverse& universe, int n) {
  return ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(n);
}

void expect_cluster_eq(const ClusterStageReport& a, const ClusterStageReport& b) {
  EXPECT_EQ(a.enabled, b.enabled);
  EXPECT_EQ(a.align.name, b.align.name);
  EXPECT_EQ(a.align.wall_s, b.align.wall_s);
  EXPECT_EQ(a.align.node_hours, b.align.node_hours);
  EXPECT_EQ(a.align.nodes, b.align.nodes);
  EXPECT_EQ(a.align.tasks, b.align.tasks);
  EXPECT_EQ(a.structures, b.structures);
  EXPECT_EQ(a.excluded_oom, b.excluded_oom);
  EXPECT_EQ(a.pairs_total, b.pairs_total);
  EXPECT_EQ(a.pruned_length, b.pruned_length);
  EXPECT_EQ(a.pruned_sketch, b.pruned_sketch);
  EXPECT_EQ(a.aligned_pairs, b.aligned_pairs);
  EXPECT_EQ(a.accepted_edges, b.accepted_edges);
  EXPECT_EQ(a.clusters, b.clusters);
  EXPECT_EQ(a.largest_cluster, b.largest_cluster);
  EXPECT_EQ(a.singletons, b.singletons);
  ASSERT_EQ(a.novel.size(), b.novel.size());
  for (std::size_t i = 0; i < a.novel.size(); ++i) {
    EXPECT_EQ(a.novel[i].record, b.novel[i].record);
    EXPECT_EQ(a.novel[i].best_tm, b.novel[i].best_tm);
    EXPECT_EQ(a.novel[i].best_fold, b.novel[i].best_fold);
  }
}

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

std::string campaign_stdout(const CampaignReport& rep) {
  std::ostringstream ss;
  print_campaign(ss, rep, species_d_vulgaris());
  return ss.str();
}

TEST(ClusterCampaign, ByteIdenticalAcrossBackendsWidthsAndNodeCounts) {
  FoldUniverse universe(40, 31);
  const auto records = cluster_records(universe, 14);
  const PipelineConfig cfg = cluster_campaign_config();
  const auto arrivals = degenerate_arrivals(records.size());

  // One journaled campaign per backend; returns its report and journal
  // bytes (an empty factory keeps the default simulated executors).
  const auto run = [&](const std::string& tag, const StageExecutorFactory& factory,
                       std::string& journal_bytes) {
    const std::string path = ::testing::TempDir() + "cluster_backend_" + tag + ".sfj";
    write_file(path, "");
    ServiceReport rep;
    {
      CampaignJournal journal(path);
      CampaignService svc(universe, cfg, ServiceConfig{});
      svc.set_executor_factory(factory);
      rep = svc.run(records, arrivals, &journal);
    }
    journal_bytes = read_file(path);
    return rep;
  };

  std::string base_journal;
  const ServiceReport base = run("simulated", nullptr, base_journal);
  ASSERT_TRUE(base.campaign.cluster.enabled);
  EXPECT_GT(base.campaign.cluster.aligned_pairs, 0u);
  const std::string base_out = campaign_stdout(base.campaign);
  EXPECT_NE(base_out.find("cluster-align"), std::string::npos);
  EXPECT_NE(base_out.find("novel folds"), std::string::npos);
  ASSERT_NE(base_journal.find("stage cluster "), std::string::npos);

  // Distributed executor at several node counts.
  for (const int nodes : {1, 4, 16}) {
    dist::DistConfig dc;
    dc.nodes = nodes;
    dc.seed = cfg.seed;
    dc.network.seed = cfg.seed;
    dist::DistCluster cluster(dc);
    std::string journal;
    const ServiceReport rep = run(
        "nodes" + std::to_string(nodes),
        [&cluster](const PipelineConfig& c, StageKind s) {
          return make_stage_executor_dist(cluster, c, s);
        },
        journal);
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    expect_cluster_eq(base.campaign.cluster, rep.campaign.cluster);
    EXPECT_EQ(base_out, campaign_stdout(rep.campaign));
    EXPECT_EQ(base_journal, journal);
  }
}

TEST(ClusterCampaign, StoreOffColdAndWarmAreByteIdenticalAndWarmComputesZero) {
  FoldUniverse universe(40, 31);
  const auto records = cluster_records(universe, 14);
  const PipelineConfig cfg = cluster_campaign_config();
  const Pipeline pipeline(universe, cfg);

  const CampaignReport plain = pipeline.run(records);
  EXPECT_GT(plain.cluster.aligns_computed, 0u);
  EXPECT_EQ(plain.cluster.aligns_from_store, 0u);

  const std::string dir = ::testing::TempDir() + "cluster_store";
  std::filesystem::remove_all(dir);
  store::ArtifactStore cold(dir);
  EXPECT_FALSE(cold.open());
  const CampaignReport with_cold = pipeline.run(records, nullptr, nullptr, &cold);
  expect_cluster_eq(plain.cluster, with_cold.cluster);
  EXPECT_EQ(campaign_stdout(plain), campaign_stdout(with_cold));

  store::ArtifactStore warm(dir);
  EXPECT_TRUE(warm.open());
  const CampaignReport with_warm = pipeline.run(records, nullptr, nullptr, &warm);
  EXPECT_EQ(campaign_stdout(plain), campaign_stdout(with_warm));
  // Every exact alignment replays from the content-addressed store,
  // and the reported science is bit-identical anyway.
  EXPECT_EQ(with_warm.cluster.aligns_computed, 0u);
  EXPECT_EQ(with_warm.cluster.aligns_from_store, with_warm.cluster.aligned_pairs);
  expect_cluster_eq(plain.cluster, with_warm.cluster);
}

// ------------------------------------------------------------------ //
// Thread counts.
// ------------------------------------------------------------------ //

// Pins the calling thread to the first `n` CPUs of its affinity mask
// while in scope; the cluster stage sizes its SlotComputer from that
// mask, so a campaign run here computes on n threads.
class PinnedCpus {
 public:
  explicit PinnedCpus(std::size_t n) {
    CPU_ZERO(&saved_);
    EXPECT_EQ(sched_getaffinity(0, sizeof(saved_), &saved_), 0);
    cpu_set_t set;
    CPU_ZERO(&set);
    std::size_t taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < n; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &set);
        ++taken;
      }
    }
    EXPECT_EQ(taken, n);
    EXPECT_EQ(sched_setaffinity(0, sizeof(set), &set), 0);
    EXPECT_EQ(affinity_cpus(), n);
  }
  ~PinnedCpus() { sched_setaffinity(0, sizeof(saved_), &saved_); }

  PinnedCpus(const PinnedCpus&) = delete;
  PinnedCpus& operator=(const PinnedCpus&) = delete;

 private:
  cpu_set_t saved_;
};

// The counts in `fewer` below the CPUs in the affinity mask, then all
// of those CPUs (the stage's default).
std::vector<std::size_t> thread_counts(std::initializer_list<std::size_t> fewer) {
  const std::size_t all = affinity_cpus();
  std::vector<std::size_t> out;
  for (const std::size_t n : fewer) {
    if (n < all) out.push_back(n);
  }
  out.push_back(all);
  return out;
}

// ------------------------------------------------------------------ //
// Journal kill/resume.
// ------------------------------------------------------------------ //

TEST(ClusterCampaign, JournalResumeReproducesClusterReportAtEveryCut) {
  FoldUniverse universe(40, 31);
  const auto records = cluster_records(universe, 12);
  const PipelineConfig cfg = cluster_campaign_config();
  const Pipeline pipeline(universe, cfg);
  const CampaignReport baseline = pipeline.run(records);

  const std::string dir = ::testing::TempDir();
  const std::string full_path = dir + "cluster_journal_full.sfj";
  write_file(full_path, "");
  {
    CampaignJournal journal(full_path);
    const CampaignReport journaled = pipeline.run(records, &journal);
    expect_cluster_eq(baseline.cluster, journaled.cluster);
  }
  const std::string full = read_file(full_path);
  ASSERT_NE(full.find("clusteralign "), std::string::npos);
  ASSERT_NE(full.find("clusternovel "), std::string::npos);
  ASSERT_NE(full.find("stage cluster "), std::string::npos);

  // Cut at every sampled line boundary plus torn mid-line tails.
  std::vector<std::size_t> cuts;
  for (std::size_t pos = 0; pos < full.size(); ++pos) {
    if (full[pos] == '\n') cuts.push_back(pos + 1);
  }
  const std::size_t line_cuts = cuts.size();
  std::vector<std::size_t> selected;
  const std::size_t stride = std::max<std::size_t>(1, line_cuts / 14);
  for (std::size_t i = 0; i < line_cuts; i += stride) {
    selected.push_back(cuts[i]);
    if (i + 1 < line_cuts && cuts[i] + 5 < cuts[i + 1]) selected.push_back(cuts[i] + 5);
  }

  // Every cut resumes serially and on every CPU.
  for (const std::size_t threads : thread_counts({1})) {
    const PinnedCpus pinned(threads);
    int resumed_runs = 0;
    for (const std::size_t cut : selected) {
      const std::string path = dir + "cluster_journal_cut_" + std::to_string(cut) + ".sfj";
      write_file(path, full.substr(0, cut));
      CampaignJournal journal(path);
      const CampaignReport resumed = pipeline.run(records, &journal);
      SCOPED_TRACE(std::to_string(threads) + " threads, cut at byte " + std::to_string(cut));
      expect_cluster_eq(baseline.cluster, resumed.cluster);
      EXPECT_EQ(campaign_stdout(baseline), campaign_stdout(resumed));
      ++resumed_runs;
    }
    EXPECT_GE(resumed_runs, 10);

    // A sealed journal replays every alignment and every novelty row:
    // zero fresh struct_align calls, zero library searches needed.
    const std::string sealed_path = dir + "cluster_journal_sealed.sfj";
    write_file(sealed_path, full);
    CampaignJournal journal(sealed_path);
    const CampaignReport resumed = pipeline.run(records, &journal);
    SCOPED_TRACE(std::to_string(threads) + " threads, sealed journal");
    expect_cluster_eq(baseline.cluster, resumed.cluster);
    EXPECT_EQ(resumed.cluster.aligns_computed, 0u);
    EXPECT_EQ(resumed.cluster.aligns_from_journal, resumed.cluster.aligned_pairs);
  }
}

// Every file under `dir`, keyed by its path relative to `dir`.
std::map<std::string, std::string> dir_files(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) {
      out[std::filesystem::relative(e.path(), dir).string()] = read_file(e.path().string());
    }
  }
  return out;
}

// What one journaled, traced, store-backed campaign leaves behind.
struct CampaignBytes {
  ClusterStageReport cluster;
  std::string out;
  std::string journal;
  std::string trace;
  std::map<std::string, std::string> store;
};

void expect_same_bytes(const CampaignBytes& a, const CampaignBytes& b) {
  expect_cluster_eq(a.cluster, b.cluster);
  EXPECT_EQ(a.cluster.aligns_computed, b.cluster.aligns_computed);
  EXPECT_EQ(a.cluster.aligns_from_store, b.cluster.aligns_from_store);
  EXPECT_EQ(a.out, b.out);
  EXPECT_EQ(a.journal, b.journal);
  EXPECT_EQ(a.trace, b.trace);
  EXPECT_EQ(a.store, b.store);
}

TEST(ClusterCampaign, ByteIdenticalAcrossJobCounts) {
  FoldUniverse universe(40, 31);
  const auto records = cluster_records(universe, 14);

  // One campaign against the store in `store_dir`, with a fresh journal
  // and trace.
  const PipelineConfig cfg = cluster_campaign_config();
  const auto run = [&](const std::string& store_dir) {
    const std::string path = ::testing::TempDir() + "cluster_jobs.sfj";
    write_file(path, "");
    CampaignBytes b;
    obs::TraceRecorder recorder;
    {
      CampaignJournal journal(path);
      store::ArtifactStore store(store_dir);
      store.open();
      const CampaignReport rep = Pipeline(universe, cfg).run(records, &journal, &recorder, &store);
      b.cluster = rep.cluster;
      b.out = campaign_stdout(rep);
    }
    b.journal = read_file(path);
    b.trace = obs::render_chrome_trace(recorder.doc());
    b.store = dir_files(store_dir);
    return b;
  };

  std::vector<CampaignBytes> cold;
  std::vector<CampaignBytes> warm;
  for (const std::size_t threads : thread_counts({1, 2, 3})) {
    const PinnedCpus pinned(threads);
    const std::string store_dir = ::testing::TempDir() + "cluster_jobs_store";
    std::filesystem::remove_all(store_dir);
    cold.push_back(run(store_dir));
    warm.push_back(run(store_dir));
    SCOPED_TRACE(std::to_string(threads) + " threads");
    EXPECT_GT(cold.back().cluster.aligns_computed, 0u);
    EXPECT_EQ(warm.back().cluster.aligns_computed, 0u);
    EXPECT_EQ(cold.back().out, warm.back().out);
    expect_same_bytes(cold.front(), cold.back());
    expect_same_bytes(warm.front(), warm.back());
  }
  EXPECT_NE(cold.front().trace.find("cluster-align"), std::string::npos);
  EXPECT_FALSE(cold.front().store.empty());
}

TEST(ClusterCampaign, UnreadableStoredAlignmentIsRecomputedOnThreads) {
  FoldUniverse universe(40, 31);
  const auto records = cluster_records(universe, 14);
  const PipelineConfig cfg = cluster_campaign_config();
  const Pipeline pipeline(universe, cfg);
  const CampaignReport plain = pipeline.run(records);

  const std::string dir = ::testing::TempDir() + "cluster_torn_store";
  std::filesystem::remove_all(dir);
  store::ArtifactStore cold(dir);
  cold.open();
  pipeline.run(records, nullptr, nullptr, &cold);

  // Truncate the object of the first stored alignment in canonical pair
  // order: the manifest still lists it, so the peek counts on a store
  // hit, but its get() fails the checksum.
  const std::uint64_t config_fp = store_config_fingerprint(cfg);
  std::string torn;
  for (std::size_t a = 0; a < records.size() && torn.empty(); ++a) {
    for (std::size_t b = a + 1; b < records.size() && torn.empty(); ++b) {
      const store::ArtifactKey key =
          store::pair_artifact_key(store::record_fingerprint(records[a]),
                                   store::record_fingerprint(records[b]), "cluster-align",
                                   config_fp);
      if (cold.contains(key)) torn = cold.object_path(key);
    }
  }
  ASSERT_FALSE(torn.empty());
  const std::string bytes = read_file(torn);
  write_file(torn, bytes.substr(0, bytes.size() / 2));

  store::ArtifactStore warm(dir);
  EXPECT_TRUE(warm.open());
  const CampaignReport rep = pipeline.run(records, nullptr, nullptr, &warm);
  EXPECT_EQ(campaign_stdout(plain), campaign_stdout(rep));
  expect_cluster_eq(plain.cluster, rep.cluster);
  EXPECT_EQ(rep.cluster.aligns_computed, 1u);
  EXPECT_EQ(rep.cluster.aligns_from_store + 1, rep.cluster.aligned_pairs);
}

}  // namespace
}  // namespace sf
