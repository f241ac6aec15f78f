// Proteome campaign: run the full three-stage pipeline on a bacterial
// proteome, the way §4 deploys it on Andes + Summit.
//
// Demonstrates the Pipeline API: feature generation on a CPU-cluster
// allocation with replicated libraries, five-model inference dispatched
// by the Dask-style dataflow over Summit GPU workers with
// descending-length sorting, and the GPU relaxation workflow -- with
// stage wall-times, node-hour accounting, and quality distributions.
//
// Usage: see kUsage below (`proteome_campaign --help`).
//
// --trace records every task attempt into a Chrome trace-event JSON
// (obs/trace.hpp); inspect it with tools/sftrace or chrome://tracing.
// The report itself is byte-identical with and without tracing.
//
// --store keeps heavy stage artifacts (features, predictions, relaxed
// structures) in a content-addressed store under `dir`; a second run
// against the same directory replays them instead of recomputing.
// Cache statistics go to stderr so stdout stays byte-identical with
// and without the store.
//
// --arrivals switches from the batch campaign to a streaming one: N
// requests with exponential inter-arrivals (mean MEAN seconds, default
// 30; seed SEED, default 7) generated by sim/arrivals.hpp, admitted
// wave by wave under --policy (default sorted) with --tenants tenants
// (default 1) each owning a proteome slice plus a hot repeat set.
// Without --arrivals the run is the degenerate stream (all records at
// t=0) and, under the default policy, prints bytes identical to the
// monolithic batch pipeline.
//
// --pairs switches to the PPI screening campaign (core/pair_campaign):
// all K*(K-1)/2 chain pairs pushed through complex inference, features
// computed once per chain. --evict picks the store's eviction policy
// and --capacity caps its modeled bytes (0 = unbounded); both need
// --store. Stdout stays byte-identical across store configurations --
// cache effectiveness shows up on stderr.
//
// --nodes N runs every stage map on the distributed executor
// (dist/executor.hpp): the stage's worker pool is sliced across N
// nodes, each with its own artifact-store replica, a coordinator with a
// coherence directory routes tasks (--route locality|random, default
// locality-aware), and message latencies are priced by the --topology
// network model.
// Campaign stdout and journals are byte-identical to the single-process
// simulated executor at ANY node count; transfer/coherence counters go
// to stderr and into the trace's sfDist section.
//
// --cluster appends the fourth stage (core/stage_cluster): all-vs-all
// novel-fold discovery over the predicted proteome, with --cluster-tm
// setting the TM edge/novelty threshold (default 0.5) and
// --no-prefilter disabling the structural prefilter (same clusters,
// more exact alignments). Alignment provenance goes to stderr; stdout
// gains the cluster block but every pre-cluster byte is unchanged.
// The stage's predictions, alignments and library renders run on one
// thread per CPU the process may use (`taskset -c 0` makes it serial);
// every output byte is the same at any thread count.
//
// A flag the chosen mode would ignore is refused (exit 2), like any
// other malformed command line.
#include <climits>
#include <cstdio>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/campaign_service.hpp"
#include "core/pair_campaign.hpp"
#include "core/pipeline.hpp"
#include "core/report.hpp"
#include "dist/executor.hpp"
#include "obs/trace.hpp"
#include "obs/trace_io.hpp"
#include "sim/arrivals.hpp"
#include "store/artifact_store.hpp"
#include "util/string_util.hpp"

using namespace sf;

namespace {

constexpr const char* kUsage =
    "usage: proteome_campaign [num_proteins] [summit_nodes]\n"
    "                         [--trace out.json] [--store dir]\n"
    "                         [--arrivals N[:MEAN[:SEED]]]\n"
    "                         [--policy fifo|sorted|shortest|fair] [--tenants N]\n"
    "                         [--pairs] [--evict fifo|lru|cost] [--capacity BYTES]\n"
    "                         [--nodes N] [--topology fat-tree|ring]\n"
    "                         [--route locality|random]\n"
    "                         [--cluster] [--cluster-tm T] [--no-prefilter]\n"
    "\n"
    "  num_proteins   0..100000, 0 = the species' whole proteome\n"
    "                 (default 400, 16 with --pairs)\n"
    "  summit_nodes   1..4608 (default 16)\n"
    "  --arrivals     N 1..1000000 requests, MEAN > 0 seconds (default 30),\n"
    "                 SEED (default 7)\n"
    "  --tenants      1..1000      --nodes  1..4608      --cluster-tm  0..1\n"
    "\n"
    "  --evict/--capacity need --pairs --store, --topology/--route need\n"
    "  --nodes, --cluster-tm/--no-prefilter need --cluster, --tenants needs\n"
    "  --arrivals; --arrivals/--policy/--tenants/--cluster do not apply to\n"
    "  --pairs.\n";

// --arrivals N[:MEAN[:SEED]].
bool parse_arrivals(const std::string& spec, int& n, double& mean, unsigned long long& seed) {
  const std::size_t c1 = spec.find(':');
  const std::size_t c2 = c1 == std::string::npos ? c1 : spec.find(':', c1 + 1);
  if (!parse_number(spec.substr(0, c1), 1, 1000000, n)) return false;
  if (c1 == std::string::npos) return true;
  if (!parse_number(spec.substr(c1 + 1, c2 - c1 - 1), 0.0, 1e12, mean) || mean <= 0.0) {
    return false;
  }
  if (c2 == std::string::npos) return true;
  return parse_number(spec.substr(c2 + 1), 0ULL, ULLONG_MAX, seed);
}

int usage_error(const std::string& message) {
  std::fprintf(stderr, "proteome_campaign: %s (see --help)\n", message.c_str());
  return 2;
}

// Transfer/coherence counters on stderr (stdout stays byte-identical to
// the single-process run; CI greps the migrations figure here).
void print_dist_stats(const dist::DistCluster& cluster) {
  const dist::WindowStats t = cluster.totals();
  std::fprintf(stderr,
               "dist: %d node(s) topology %s routing %s | %d round(s), %d task(s) (+%d alt), "
               "rerouted %d, crashes %d\n",
               cluster.nodes(), topology_name(cluster.config().network.topology),
               dist::routing_policy_name(cluster.config().routing), t.rounds, t.tasks, t.alt_tasks,
               t.tasks_rerouted, t.node_crashes);
  std::fprintf(stderr,
               "dist: %llu message(s) (%.0f B, %.3fs wire) | local hits %llu, migrations %llu "
               "(%.0f B), recomputes %llu, invalidations %llu\n",
               (unsigned long long)t.messages, t.message_bytes, t.network_s,
               (unsigned long long)t.local_hits, (unsigned long long)t.migrations,
               t.bytes_migrated, (unsigned long long)t.recomputes,
               (unsigned long long)t.invalidations);
  for (const dist::NodeStats& ns : cluster.node_stats()) {
    std::fprintf(stderr,
                 "dist: node %2d: %d worker(s), %d task(s), busy %.1fs, hits %llu, in %.0f B, "
                 "out %.0f B%s\n",
                 ns.node, ns.workers, ns.tasks, ns.busy_s, (unsigned long long)ns.local_hits,
                 ns.bytes_in, ns.bytes_out, ns.crashes > 0 ? " [crashed]" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string trace_path;
  std::string store_dir;
  std::string policy_name;
  std::string evict_name;
  bool pairs_mode = false;
  unsigned long long capacity_bytes = 0;
  int dist_nodes = 0;
  std::string topo_name;
  std::string route_name;
  int arrivals_n = 0;
  double arrivals_mean = 30.0;
  unsigned long long arrivals_seed = 7;
  int tenants = 1;
  bool cluster_mode = false;
  bool cluster_prefilter = true;
  double cluster_tm = 0.5;
  // Flags that take a value, each with the parser that stores it.
  const auto text = [](std::string& out) {
    return [&out](const std::string& v) {
      out = v;
      return true;
    };
  };
  const std::map<std::string, std::function<bool(const std::string&)>> valued = {
      {"--trace", text(trace_path)},
      {"--store", text(store_dir)},
      {"--policy", text(policy_name)},
      {"--evict", text(evict_name)},
      {"--topology", text(topo_name)},
      {"--route", text(route_name)},
      {"--capacity",
       [&](const std::string& v) { return parse_number(v, 0ULL, ULLONG_MAX, capacity_bytes); }},
      {"--nodes", [&](const std::string& v) { return parse_number(v, 1, 4608, dist_nodes); }},
      {"--tenants", [&](const std::string& v) { return parse_number(v, 1, 1000, tenants); }},
      {"--cluster-tm", [&](const std::string& v) { return parse_number(v, 0.0, 1.0, cluster_tm); }},
      {"--arrivals",
       [&](const std::string& v) {
         return parse_arrivals(v, arrivals_n, arrivals_mean, arrivals_seed);
       }},
  };
  std::vector<std::string> positional;
  std::set<std::string> given;  // every flag on the command line
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (!arg.empty() && arg[0] == '-') given.insert(arg);
    if (arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    } else if (arg == "--pairs") {
      pairs_mode = true;
    } else if (arg == "--cluster") {
      cluster_mode = true;
    } else if (arg == "--no-prefilter") {
      cluster_prefilter = false;
    } else if (arg.empty() || arg[0] != '-') {
      if (positional.size() == 2) return usage_error("unexpected argument '" + arg + "'");
      positional.push_back(arg);
    } else {
      const auto flag = valued.find(arg);
      if (flag == valued.end()) return usage_error("unknown flag '" + arg + "'");
      if (i + 1 == argc) return usage_error("missing value for " + arg);
      const std::string value = argv[++i];
      if (!flag->second(value)) return usage_error("bad value '" + value + "' for " + arg);
    }
  }
  // Refuse the flags the chosen mode would silently ignore.
  const bool pair_store = pairs_mode && !store_dir.empty();
  const struct {
    const char* flag;
    bool ignored;
    const char* why;
  } mode_rules[] = {
      {"--evict", !pair_store, "needs --pairs --store"},
      {"--capacity", !pair_store, "needs --pairs --store"},
      {"--topology", dist_nodes == 0, "needs --nodes"},
      {"--route", dist_nodes == 0, "needs --nodes"},
      {"--cluster-tm", !cluster_mode, "needs --cluster"},
      {"--no-prefilter", !cluster_mode, "needs --cluster"},
      {"--tenants", arrivals_n == 0, "needs --arrivals"},
      {"--arrivals", pairs_mode, "does not apply to --pairs"},
      {"--policy", pairs_mode, "does not apply to --pairs"},
      {"--tenants", pairs_mode, "does not apply to --pairs"},
      {"--cluster", pairs_mode, "does not apply to --pairs"},
  };
  for (const auto& rule : mode_rules) {
    if (rule.ignored && given.count(rule.flag) != 0) {
      return usage_error(std::string(rule.flag) + " " + rule.why);
    }
  }

  int num_proteins = pairs_mode ? 16 : 400;
  int summit_nodes = 16;
  if (!positional.empty() && !parse_number(positional[0], 0, 100000, num_proteins)) {
    return usage_error("bad num_proteins '" + positional[0] + "'");
  }
  if (positional.size() > 1 && !parse_number(positional[1], 1, 4608, summit_nodes)) {
    return usage_error("bad summit_nodes '" + positional[1] + "'");
  }

  ServiceConfig svc;
  if (!policy_name.empty() && !ordering_policy_from_name(policy_name, svc.policy)) {
    std::fprintf(stderr, "proteome_campaign: unknown --policy '%s' (want fifo|sorted|shortest|fair)\n",
                 policy_name.c_str());
    return 2;
  }

  FoldUniverse universe(300, 42);
  const SpeciesProfile species = species_d_vulgaris();
  ProteomeGenerator generator(universe, species, 7);
  const auto records = num_proteins == 0 ? generator.generate() : generator.generate(num_proteins);
  const auto stats = summarize_proteome(records);
  std::printf("proteome sample: %d proteins of %s (mean length %.0f, %d hypothetical)\n\n",
              stats.count, species.name.c_str(), stats.mean_length, stats.hypothetical);

  std::vector<ArrivalEvent> arrivals;
  if (arrivals_n > 0) {
    ArrivalProcessParams ap;
    ap.requests = arrivals_n;
    ap.mean_interarrival_s = arrivals_mean;
    ap.seed = arrivals_seed;
    for (int t = 0; t < std::max(1, tenants); ++t) {
      TenantSpec ts;
      ts.name = format("tenant%d", t);
      ts.hot_fraction = 0.25;
      ap.tenants.push_back(ts);
      svc.tenant_names.push_back(ts.name);
    }
    arrivals = generate_arrivals(ap, records.size());
  } else {
    arrivals = degenerate_arrivals(records.size());
  }
  const bool streaming =
      !(degenerate_stream(arrivals, records.size()) && svc.policy == OrderingPolicy::kLengthSorted);

  PipelineConfig cfg;
  cfg.preset = preset_genome();
  cfg.summit_nodes = summit_nodes;
  cfg.andes_nodes = 24;
  cfg.relax_nodes = 2;
  cfg.db_replicas = 6;
  cfg.jobs_per_replica = 4;
  cfg.quality_sample = std::min(num_proteins, 120);
  cfg.relax_sample = 30;
  cfg.cluster.enabled = cluster_mode;
  cfg.cluster.tm_threshold = cluster_tm;
  cfg.cluster.prefilter = cluster_prefilter;

  std::unique_ptr<dist::DistCluster> cluster;
  if (dist_nodes > 0) {
    dist::DistConfig dc;
    dc.nodes = dist_nodes;
    dc.seed = cfg.seed;
    dc.network.seed = cfg.seed;
    if (!topo_name.empty() && !topology_from_name(topo_name, dc.network.topology)) {
      std::fprintf(stderr, "proteome_campaign: unknown --topology '%s' (want fat-tree|ring)\n",
                   topo_name.c_str());
      return 2;
    }
    if (!route_name.empty() && !dist::routing_policy_from_name(route_name, dc.routing)) {
      std::fprintf(stderr, "proteome_campaign: unknown --route '%s' (want locality|random)\n",
                   route_name.c_str());
      return 2;
    }
    cluster = std::make_unique<dist::DistCluster>(dc);
  }

  if (pairs_mode) {
    store::StorePolicy spolicy;
    spolicy.capacity_bytes = capacity_bytes;
    if (!evict_name.empty() && !store::eviction_policy_from_name(evict_name, spolicy.eviction)) {
      std::fprintf(stderr, "proteome_campaign: unknown --evict '%s' (want fifo|lru|cost)\n",
                   evict_name.c_str());
      return 2;
    }
    const PairCampaign campaign(universe, cfg);
    obs::TraceRecorder recorder;
    obs::TraceSink* sink = trace_path.empty() ? nullptr : &recorder;
    store::ArtifactStore artifacts(store_dir, spolicy);
    store::ArtifactStore* store = nullptr;
    if (!store_dir.empty()) {
      const bool warm = artifacts.open();
      std::fprintf(stderr, "store: %s opened %s with %zu artifacts (evict %s)\n", store_dir.c_str(),
                   warm ? "warm" : "cold", artifacts.size(),
                   store::eviction_policy_name(spolicy.eviction));
      store = &artifacts;
    }
    std::printf("running PPI screen: preset %s, %zu pairs over %zu chains, %d Summit nodes\n\n",
                cfg.preset.name.c_str(),
                PairCampaign::enumerate_pairs(records.size(), 0).size(), records.size(),
                cfg.summit_nodes);
    std::unique_ptr<Executor> feat_exec;
    std::unique_ptr<Executor> pair_exec;
    if (cluster) {
      feat_exec = make_stage_executor_dist(*cluster, cfg, StageKind::kFeatures);
      pair_exec = make_stage_executor_dist(*cluster, cfg, StageKind::kInference);
    }
    const PairCampaignReport report =
        campaign.run(records, nullptr, sink, store, feat_exec.get(), pair_exec.get());
    print_pair_campaign(std::cout, report);
    if (sink != nullptr) {
      obs::TraceDoc doc = recorder.doc();
      if (cluster) doc.dist = cluster->trace();
      obs::write_chrome_trace_file(trace_path, doc);
      std::printf("\ntrace written to %s (%zu stages; inspect with tools/sftrace)\n",
                  trace_path.c_str(), recorder.stages().size());
    }
    if (cluster) print_dist_stats(*cluster);
    if (store != nullptr) {
      // Same stderr-only contract as the batch campaign: stdout is
      // byte-identical with and without the store, whatever the policy.
      for (const auto& [stage, s] : artifacts.stage_history()) {
        std::fprintf(stderr,
                     "store: %-14s gets %llu hits %llu misses %llu puts %llu evictions %llu "
                     "staged-in %.0f B staged-out %.0f B (%.2fs read, %.2fs write)\n",
                     stage.c_str(), (unsigned long long)s.gets, (unsigned long long)s.hits,
                     (unsigned long long)s.misses, (unsigned long long)s.puts,
                     (unsigned long long)s.evictions, s.bytes_read, s.bytes_written, s.read_s,
                     s.write_s);
      }
      const auto& t = artifacts.total_stats();
      std::fprintf(stderr, "store: total %zu artifacts live, %llu hits / %llu gets\n",
                   artifacts.size(), (unsigned long long)t.hits, (unsigned long long)t.gets);
    }
    return 0;
  }

  std::printf("running pipeline: preset %s, %d Summit nodes (%d GPU workers), %d Andes jobs\n\n",
              cfg.preset.name.c_str(), cfg.summit_nodes, cfg.summit_nodes * 6,
              cfg.db_replicas * cfg.jobs_per_replica);
  CampaignService pipeline(universe, cfg, svc);
  if (cluster) {
    dist::DistCluster* cl = cluster.get();
    pipeline.set_executor_factory([cl](const PipelineConfig& c, StageKind s) {
      return make_stage_executor_dist(*cl, c, s);
    });
  }
  obs::TraceRecorder recorder;
  obs::TraceSink* sink = trace_path.empty() ? nullptr : &recorder;
  store::ArtifactStore artifacts(store_dir);
  store::ArtifactStore* store = nullptr;
  if (!store_dir.empty()) {
    const bool warm = artifacts.open();
    std::fprintf(stderr, "store: %s opened %s with %zu artifacts\n", store_dir.c_str(),
                 warm ? "warm" : "cold", artifacts.size());
    store = &artifacts;
  }
  const ServiceReport service_report = pipeline.run(records, arrivals, nullptr, sink, store);
  const CampaignReport& report = service_report.campaign;
  print_campaign(std::cout, report, species);

  if (cluster_mode) {
    // Alignment provenance on stderr (stdout stays byte-identical
    // across cold/warm stores and journal resumes; CI greps
    // "computed 0" here on the warm run).
    const ClusterStageReport& c = report.cluster;
    std::fprintf(stderr,
                 "cluster: %llu alignment(s): computed %llu, journal %llu, store %llu | "
                 "%zu cluster(s), %zu novel fold(s)\n",
                 (unsigned long long)c.aligned_pairs, (unsigned long long)c.aligns_computed,
                 (unsigned long long)c.aligns_from_journal, (unsigned long long)c.aligns_from_store,
                 c.clusters, c.novel.size());
  }

  if (streaming) {
    std::printf("\nstreaming service: policy %s, %d wave(s), %zu request(s), %zu memo hit(s), "
                "makespan %.1f s\n",
                ordering_policy_name(svc.policy), service_report.waves,
                service_report.requests.size(), service_report.service_cache_hits,
                service_report.makespan_s);
  }

  // Show what the per-target results look like.
  std::printf("\nfirst few measured targets:\n");
  int shown = 0;
  for (const auto& t : report.targets) {
    if (!t.measured || shown >= 5) continue;
    std::printf("  %-16s len %4d  top model %d  pLDDT %5.1f  pTMS %.3f  recycles %2d%s\n",
                t.id.c_str(), t.length, t.top_model, t.plddt, t.ptms, t.recycles,
                t.relaxed ? "  [relaxed, clashes -> 0]" : "");
    ++shown;
  }

  if (sink != nullptr) {
    obs::TraceDoc doc = recorder.doc();
    if (cluster) doc.dist = cluster->trace();
    obs::write_chrome_trace_file(trace_path, doc);
    std::printf("\ntrace written to %s (%zu stages; inspect with tools/sftrace)\n",
                trace_path.c_str(), recorder.stages().size());
  }

  if (cluster) print_dist_stats(*cluster);

  if (store != nullptr) {
    // Stats go to stderr so stdout is byte-identical with and without
    // the store (CI greps the per-stage misses count here).
    for (const auto& [stage, s] : artifacts.stage_history()) {
      std::fprintf(stderr,
                   "store: %-10s gets %llu hits %llu misses %llu puts %llu evictions %llu "
                   "staged-in %.0f B staged-out %.0f B (%.2fs read, %.2fs write)\n",
                   stage.c_str(), (unsigned long long)s.gets, (unsigned long long)s.hits,
                   (unsigned long long)s.misses, (unsigned long long)s.puts,
                   (unsigned long long)s.evictions, s.bytes_read, s.bytes_written, s.read_s,
                   s.write_s);
    }
    const auto& t = artifacts.total_stats();
    std::fprintf(stderr, "store: total %zu artifacts live, %llu hits / %llu gets\n",
                 artifacts.size(), (unsigned long long)t.hits, (unsigned long long)t.gets);
  }
  return 0;
}
