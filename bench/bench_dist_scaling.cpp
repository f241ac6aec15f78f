// §4.3 at the cluster level: the distributed executor's scaling story.
//
// Paper: the workflows were deployed across 1,000+ Summit nodes, where
// data movement between nodes -- not FLOPs -- decides how well the
// allocation is spent. This bench drives the SAME PPI screen through
// src/dist at 1, 4, and 16 nodes under both routing policies and
// reports what moves: replica hit rate, bytes migrated across the
// interconnect, recompute fallbacks, and the summed round makespans.
// The screening report itself is byte-identical in every cell of the
// sweep (the tentpole invariant: distribution is observability, never
// science), which this bench re-checks on every run.
//
// Locality routing must dominate random routing on migrated bytes at
// every multi-node point -- that is the acceptance bar for the router,
// and the bench exits nonzero if it regresses. Besides the human table
// it emits BENCH_dist.json (path = argv[1], default "BENCH_dist.json");
// every number is a deterministic modeled counter, so the file is
// byte-stable across reruns and machines and is committed as the
// subsystem's perf trajectory anchor.
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/pair_campaign.hpp"
#include "core/stage_context.hpp"
#include "dist/executor.hpp"
#include "util/file_io.hpp"
#include "util/string_util.hpp"

using namespace sf;

namespace {

struct DistRun {
  int nodes = 0;
  std::string routing;
  dist::WindowStats totals;
  double hit_rate = 0.0;
  std::string report_text;  // print_pair_campaign bytes for the parity check
};

double replica_hit_rate(const dist::WindowStats& t) {
  const double resolved = static_cast<double>(t.local_hits + t.migrations + t.recomputes);
  return resolved == 0.0 ? 0.0 : static_cast<double>(t.local_hits) / resolved;
}

void emit_json(const std::string& path, std::size_t chains, std::size_t pairs,
               const std::vector<DistRun>& runs, bool identical) {
  write_file_atomic(path, [&](std::ostream& os) {
    os << "{\n";
    os << "  \"bench\": \"bench_dist_scaling\",\n";
    os << "  \"version\": 1,\n";
    os << format("  \"chains\": %zu,\n", chains);
    os << format("  \"pairs\": %zu,\n", pairs);
    os << format("  \"report_identical\": %s,\n", identical ? "true" : "false");
    os << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
      const DistRun& r = runs[i];
      const dist::WindowStats& t = r.totals;
      os << "    {\n";
      os << format("      \"nodes\": %d,\n", r.nodes);
      os << format("      \"routing\": \"%s\",\n", r.routing.c_str());
      os << format("      \"tasks\": %d,\n", t.tasks);
      os << format("      \"messages\": %llu,\n", static_cast<unsigned long long>(t.messages));
      os << format("      \"message_bytes\": %.0f,\n", t.message_bytes);
      os << format("      \"local_hits\": %llu,\n", static_cast<unsigned long long>(t.local_hits));
      os << format("      \"migrations\": %llu,\n", static_cast<unsigned long long>(t.migrations));
      os << format("      \"bytes_migrated\": %.0f,\n", t.bytes_migrated);
      os << format("      \"recomputes\": %llu,\n", static_cast<unsigned long long>(t.recomputes));
      os << format("      \"invalidations\": %llu,\n",
                   static_cast<unsigned long long>(t.invalidations));
      os << format("      \"hit_rate\": %.4f,\n", r.hit_rate);
      os << format("      \"makespan_s\": %.6f\n", t.makespan_s);
      os << "    }" << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    os << "  ]\n";
    os << "}\n";
  });
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_dist.json";
  sfbench::print_header(
      "§4.3 at cluster scale -- distributed executor node sweep",
      "1,000+ Summit nodes make data movement the budget: locality routing "
      "keeps artifacts resident; the science is node-count-invariant");

  // The bench_af2complex screening study, shrunk to keep the sweep fast:
  // 16 chains -> 120 pair tasks, each needing BOTH chains' features.
  SpeciesProfile profile = species_d_vulgaris();
  profile.length_max = 300;
  const auto records = ProteomeGenerator(sfbench::world_universe(), profile, 31).generate(16);

  PipelineConfig cfg;
  cfg.preset = preset_genome();
  cfg.library = LibraryKind::kFull;
  cfg.feature_cost.full_library_factor = 12.0;
  cfg.summit_nodes = 4;
  cfg.andes_nodes = 24;
  cfg.relax_nodes = 2;
  cfg.db_replicas = 6;
  cfg.jobs_per_replica = 4;
  const std::size_t pairs = PairCampaign::enumerate_pairs(records.size(), 0).size();
  std::printf("workload: %zu chains -> %zu pair tasks (features computed once per chain, "
              "re-fetched per pair)\n\n",
              records.size(), pairs);

  std::vector<DistRun> runs;
  for (const int nodes : {1, 4, 16}) {
    for (const dist::RoutingPolicy routing :
         {dist::RoutingPolicy::kLocality, dist::RoutingPolicy::kRandom}) {
      dist::DistConfig dc;
      dc.nodes = nodes;
      dc.routing = routing;
      dc.seed = cfg.seed;
      dc.network.seed = cfg.seed;
      dist::DistCluster cluster(dc);
      const PairCampaign campaign(sfbench::world_universe(), cfg);
      const std::unique_ptr<Executor> feat_exec =
          make_stage_executor_dist(cluster, cfg, StageKind::kFeatures);
      const std::unique_ptr<Executor> pair_exec =
          make_stage_executor_dist(cluster, cfg, StageKind::kInference);
      const PairCampaignReport report =
          campaign.run(records, nullptr, nullptr, nullptr, feat_exec.get(), pair_exec.get());
      DistRun r;
      r.nodes = nodes;
      r.routing = dist::routing_policy_name(routing);
      r.totals = cluster.totals();
      r.hit_rate = replica_hit_rate(r.totals);
      std::ostringstream text;
      print_pair_campaign(text, report);
      r.report_text = text.str();
      runs.push_back(std::move(r));
    }
  }

  // Tentpole re-check: every cell of the sweep printed the same bytes.
  bool identical = true;
  for (const DistRun& r : runs) identical = identical && r.report_text == runs.front().report_text;
  std::printf("screening report byte-identical across all %zu runs: %s\n\n", runs.size(),
              identical ? "yes" : "NO -- DISTRIBUTION LEAKED INTO THE SCIENCE");

  std::printf("node sweep, locality vs random routing:\n");
  std::printf("%5s | %-8s | %5s | %8s | %10s | %13s | %9s | %8s | %s\n", "nodes", "routing",
              "tasks", "hit rate", "migrations", "bytes moved", "recompute", "invalid.",
              "makespan");
  for (const DistRun& r : runs) {
    const dist::WindowStats& t = r.totals;
    std::printf("%5d | %-8s | %5d | %7.1f%% | %10llu | %11.2f MB | %9llu | %8llu | %s\n", r.nodes,
                r.routing.c_str(), t.tasks, 100.0 * r.hit_rate,
                static_cast<unsigned long long>(t.migrations), t.bytes_migrated / 1e6,
                static_cast<unsigned long long>(t.recomputes),
                static_cast<unsigned long long>(t.invalidations),
                human_duration(t.makespan_s).c_str());
  }

  // Acceptance bar: at every multi-node point the locality router moves
  // no more bytes than random placement (it should move far fewer).
  bool locality_ok = true;
  for (std::size_t i = 0; i + 1 < runs.size(); i += 2) {
    const DistRun& loc = runs[i];
    const DistRun& rnd = runs[i + 1];
    if (loc.nodes > 1 && loc.totals.bytes_migrated > rnd.totals.bytes_migrated) {
      std::printf("WARNING: locality moved MORE bytes than random at %d nodes (%.0f > %.0f)\n",
                  loc.nodes, loc.totals.bytes_migrated, rnd.totals.bytes_migrated);
      locality_ok = false;
    }
  }
  if (locality_ok) {
    std::printf("\nlocality routing moved fewer bytes than random at every multi-node point\n");
  }

  emit_json(json_path, records.size(), pairs, runs, identical);
  std::printf("\nbaseline written to %s\n", json_path.c_str());
  return identical && locality_ok ? 0 : 1;
}
