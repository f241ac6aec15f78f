// src/dist: the distributed executor's contract, held from three sides.
//
//  * The interconnect model is a pure function: latencies depend only on
//    (seed, topology, endpoints, payload), never on delivery order.
//  * The coherence protocol counts exactly: a fetch from another node is
//    one migration of the artifact's bytes, a re-produce elsewhere
//    invalidates the old holder, and a need no live replica holds is
//    recomputed with its surcharge (replicas are unbounded placement
//    sets; the store's own eviction is covered by test_eviction).
//  * DistributedExecutor is observability, never science: MapResult is
//    field-for-field equal to SimulatedExecutor under retries, faults,
//    and alt-pool reroutes; campaign stdout is byte-identical at any
//    node count, under node crashes, and under every routing policy --
//    while the cluster's own counters show the distribution actually
//    happened (migrations, invalidations, reroutes, crashes).
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/pair_campaign.hpp"
#include "core/stage_context.hpp"
#include "dataflow/executor.hpp"
#include "dist/executor.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "store/key.hpp"
#include "util/rng.hpp"

namespace sf {
namespace {

// ------------------------------------------------------------------ //
// sim/network: deterministic interconnect pricing.
// ------------------------------------------------------------------ //

TEST(DistNetwork, FatTreeHopsFollowPodStructure) {
  NetworkModel net;
  net.pod_size = 4;
  // Self-sends never touch the fabric.
  EXPECT_EQ(net.hops(3, 3, 16), 0);
  // Same pod: leaf switch round trip.
  EXPECT_EQ(net.hops(0, 3, 16), 2);
  EXPECT_EQ(net.hops(5, 6, 16), 2);
  // Cross pod: up through the spine and back down.
  EXPECT_EQ(net.hops(0, 4, 16), 4);
  EXPECT_EQ(net.hops(1, 15, 16), 4);
}

TEST(DistNetwork, RingHopsAreWrapDistance) {
  NetworkModel net;
  net.topology = Topology::kRing;
  EXPECT_EQ(net.hops(2, 2, 8), 0);
  EXPECT_EQ(net.hops(0, 1, 8), 1);
  EXPECT_EQ(net.hops(0, 7, 8), 1);  // wraps the short way
  EXPECT_EQ(net.hops(0, 4, 8), 4);  // antipode
  EXPECT_EQ(net.hops(6, 1, 8), 3);
}

TEST(DistNetwork, MessageSecondsIsPureMonotonicAndSeeded) {
  NetworkModel net;
  net.seed = 42;
  const double a = net.message_seconds(0, 3, 16, 1e6);
  // Pure: same arguments, same bits, however often it is asked.
  EXPECT_EQ(a, net.message_seconds(0, 3, 16, 1e6));
  // More payload costs strictly more wire time.
  EXPECT_LT(a, net.message_seconds(0, 3, 16, 2e6));
  // More hops cost more latency (same payload, same jitter bounds).
  EXPECT_LT(net.message_seconds(0, 0, 16, 0.0), net.message_seconds(0, 1, 16, 0.0));
  // The seed reshuffles the adaptive-routing jitter.
  NetworkModel other = net;
  other.seed = 43;
  EXPECT_NE(a, other.message_seconds(0, 3, 16, 1e6));
}

// ------------------------------------------------------------------ //
// DistributedExecutor vs SimulatedExecutor: MapResult equality.
// ------------------------------------------------------------------ //

void expect_run_eq(const DataflowRunResult& a, const DataflowRunResult& b) {
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.first_task_start_s, b.first_task_start_s);
  ASSERT_EQ(a.records.size(), b.records.size());
  for (std::size_t i = 0; i < a.records.size(); ++i) {
    EXPECT_EQ(a.records[i].task_id, b.records[i].task_id);
    EXPECT_EQ(a.records[i].name, b.records[i].name);
    EXPECT_EQ(a.records[i].worker, b.records[i].worker);
    EXPECT_EQ(a.records[i].start_s, b.records[i].start_s);
    EXPECT_EQ(a.records[i].end_s, b.records[i].end_s);
  }
  EXPECT_EQ(a.worker_busy_s, b.worker_busy_s);
  EXPECT_EQ(a.worker_finish_s, b.worker_finish_s);
  EXPECT_EQ(a.worker_task_count, b.worker_task_count);
}

void expect_map_eq(const MapResult& a, const MapResult& b) {
  expect_run_eq(a.primary, b.primary);
  ASSERT_EQ(a.retries.size(), b.retries.size());
  for (std::size_t r = 0; r < a.retries.size(); ++r) {
    SCOPED_TRACE("retry round " + std::to_string(r));
    EXPECT_EQ(a.retries[r].attempt, b.retries[r].attempt);
    EXPECT_EQ(a.retries[r].alt_pool, b.retries[r].alt_pool);
    EXPECT_EQ(a.retries[r].tasks, b.retries[r].tasks);
    EXPECT_EQ(a.retries[r].backoff_s, b.retries[r].backoff_s);
    expect_run_eq(a.retries[r].run, b.retries[r].run);
  }
  EXPECT_EQ(a.failed_tasks, b.failed_tasks);
  EXPECT_EQ(a.rerouted_tasks, b.rerouted_tasks);
  EXPECT_EQ(a.retry_attempts, b.retry_attempts);
  EXPECT_EQ(a.faults.crash_attempts, b.faults.crash_attempts);
  EXPECT_EQ(a.faults.transient_attempts, b.faults.transient_attempts);
  EXPECT_EQ(a.faults.oom_attempts, b.faults.oom_attempts);
  EXPECT_EQ(a.faults.intrinsic_failures, b.faults.intrinsic_failures);
  EXPECT_EQ(a.faults.straggler_attempts, b.faults.straggler_attempts);
  EXPECT_EQ(a.faults.stalled_attempts, b.faults.stalled_attempts);
  EXPECT_EQ(a.faults.workers_lost, b.faults.workers_lost);
  EXPECT_EQ(a.faults.lost_work_s, b.faults.lost_work_s);
  EXPECT_EQ(a.faults.backoff_delay_s, b.faults.backoff_delay_s);
  EXPECT_EQ(a.wall_s(), b.wall_s());
}

std::vector<TaskSpec> synthetic_tasks(int n) {
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < n; ++i) {
    TaskSpec t;
    t.id = static_cast<std::uint64_t>(i);
    t.name = "task-" + std::to_string(i);
    t.cost_hint = 50.0 + static_cast<double>(mix64(7, static_cast<std::uint64_t>(i)) % 400);
    t.payload = static_cast<std::size_t>(i);
    tasks.push_back(t);
  }
  return tasks;
}

TaskFn synthetic_fn() {
  return [](const TaskSpec& t, const TaskAttempt& attempt) {
    TaskOutcome out;
    // A few tasks fail intrinsically on their first try, so retry rounds
    // exist even without an injector.
    out.ok = !(t.id % 11 == 4 && attempt.attempt == 0);
    out.sim_duration_s =
        10.0 + static_cast<double>(mix64(99, t.id + 1) % 1000) / 10.0;
    if (attempt.alt_pool) out.sim_duration_s *= 1.5;
    return out;
  };
}

TEST(DistExecutor, MapResultMatchesSimulatedAcrossTheGrid) {
  SimulatedDataflowParams base;
  base.dispatch_overhead_s = 0.1;
  base.startup_s = 30.0;
  const WorkerPool primary{"summit-gpu", 3, 6, 1.0};
  const WorkerPool alt{"summit-highmem", 1, 2, 0.9};
  const auto tasks = synthetic_tasks(60);
  const TaskFn fn = synthetic_fn();

  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.reroute_to_alt_pool = true;
  retry.retry_cost_scale = 1.25;
  retry.backoff_base_s = 5.0;

  FaultPlan plan;
  plan.seed = 71;
  plan.crash_rate = 0.05;
  plan.transient_rate = 0.08;
  plan.oom_rate = 0.04;
  plan.straggler_rate = 0.1;
  plan.fs_stall_rate = 0.05;
  const FaultInjector injector(plan);

  for (const int nodes : {1, 4, 16}) {
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    // Plain map, no faults.
    {
      SimulatedExecutor sim = SimulatedExecutor::from_pools(base, primary);
      dist::DistConfig dc;
      dc.nodes = nodes;
      dist::DistCluster cluster(dc);
      dist::DistributedExecutor dx(sim, cluster);
      expect_map_eq(sim.map(tasks, fn), dx.map(tasks, fn));
      EXPECT_EQ(cluster.totals().tasks, static_cast<int>(tasks.size()));
    }
    // Retries + alt-pool reroute + injected faults, with a locality
    // provider installed: the full grid, still bit-equal.
    {
      SimulatedExecutor sim = SimulatedExecutor::from_pools(base, primary, alt);
      dist::DistConfig dc;
      dc.nodes = nodes;
      dc.seed = 5;
      dc.network.seed = 5;
      dist::DistCluster cluster(dc);
      dist::DistributedExecutor dx(sim, cluster);
      dx.set_locality([](const TaskSpec& t) {
        dist::TaskLocality loc;
        // Tasks cluster around a handful of shared inputs.
        loc.needs.push_back({store::artifact_key(t.id % 5, "features", 1), 5e5, 100.0});
        loc.produces.push_back({store::artifact_key(t.id, "structure", 1), 2e5, 50.0});
        return loc;
      });
      const MapResult want = sim.map(tasks, fn, retry, &injector);
      const MapResult got = dx.map(tasks, fn, retry, &injector);
      expect_map_eq(want, got);
      EXPECT_GT(got.retry_attempts, 0);
      EXPECT_GT(got.rerouted_tasks, 0);
      // The distributed pass really ran: every first-attempt task was
      // routed, and multi-node runs moved or reused artifacts.
      EXPECT_GE(cluster.totals().tasks, static_cast<int>(tasks.size()));
      if (nodes > 1) {
        EXPECT_GT(cluster.totals().local_hits + cluster.totals().migrations, 0u);
      }
    }
  }
}

// ------------------------------------------------------------------ //
// Coherence: what a replica does, counted one round at a time.
// ------------------------------------------------------------------ //

// Two nodes, one worker each, three rounds, each in its own window:
//   produce    t0 makes A on node 0; t1 makes B on node 1 (equal
//              resident bytes, so the lighter queue wins the tie).
//   fetch      t2 needs A and B and runs where more of them lives
//              (node 1): B is a local hit, A migrates from node 0.
//   reproduce  t3 needs A (now on both nodes; the tie goes to node 0)
//              and D, which nobody ever made, and produces B again:
//              D is recomputed, and node 1's copy of B is invalidated.
TEST(DistCoherence, FetchReproduceAndRecomputeCountExactly) {
  dist::DistConfig dc;
  dc.nodes = 2;
  dist::DistCluster cluster(dc);
  SimulatedDataflowParams params;
  params.workers = 2;
  params.dispatch_overhead_s = 0.1;
  params.startup_s = 1.0;

  const dist::ArtifactRef a{store::artifact_key(1, "features", 1), 1000.0, 2.0};
  const dist::ArtifactRef b{store::artifact_key(2, "features", 1), 2000.0, 3.0};
  const dist::ArtifactRef d{store::artifact_key(4, "features", 1), 3000.0, 7.5};
  const auto round = [&](const std::string& label,
                         const std::vector<dist::TaskLocality>& locality) {
    const std::size_t n = locality.size();
    cluster.begin_window(label);
    cluster.run_round(synthetic_tasks(static_cast<int>(n)), std::vector<double>(n, 10.0),
                      std::vector<char>(n, 1), locality, params);
  };
  round("produce", {{.needs = {}, .produces = {a}}, {.needs = {}, .produces = {b}}});
  round("fetch", {{.needs = {a, b}, .produces = {}}});
  round("reproduce", {{.needs = {a, d}, .produces = {b}}});

  const obs::DistTrace t = cluster.trace();
  ASSERT_EQ(t.windows.size(), 3u);
  constexpr double kControl = 256.0;  // every message but a fetch reply

  // produce: two assigns, two put notices, two dones.
  const obs::DistWindowTrace& produce = t.windows[0];
  EXPECT_EQ(produce.label, "produce");
  EXPECT_EQ(produce.rounds, 1);
  EXPECT_EQ(produce.tasks, 2);
  EXPECT_EQ(produce.messages, 6u);
  EXPECT_EQ(produce.message_bytes, 6 * kControl);
  EXPECT_EQ(produce.local_hits, 0u);
  EXPECT_EQ(produce.migrations, 0u);
  EXPECT_EQ(produce.recomputes, 0u);
  EXPECT_EQ(produce.invalidations, 0u);

  // fetch: assign, request, forward, reply (A's bytes), share notice,
  // done.
  const obs::DistWindowTrace& fetch = t.windows[1];
  EXPECT_EQ(fetch.tasks, 1);
  EXPECT_EQ(fetch.messages, 6u);
  EXPECT_EQ(fetch.message_bytes, 5 * kControl + 1000.0);
  EXPECT_EQ(fetch.local_hits, 1u);
  EXPECT_EQ(fetch.migrations, 1u);
  EXPECT_EQ(fetch.bytes_migrated, 1000.0);
  EXPECT_EQ(fetch.recomputes, 0u);
  EXPECT_EQ(fetch.recompute_s, 0.0);
  EXPECT_EQ(fetch.invalidations, 0u);

  // reproduce: assign, request, miss, put notices for D and B, the
  // invalidation of node 1's B, done.
  const obs::DistWindowTrace& reproduce = t.windows[2];
  EXPECT_EQ(reproduce.tasks, 1);
  EXPECT_EQ(reproduce.messages, 7u);
  EXPECT_EQ(reproduce.message_bytes, 7 * kControl);
  EXPECT_EQ(reproduce.local_hits, 1u);
  EXPECT_EQ(reproduce.migrations, 0u);
  EXPECT_EQ(reproduce.bytes_migrated, 0.0);
  EXPECT_EQ(reproduce.recomputes, 1u);
  EXPECT_EQ(reproduce.recompute_s, 7.5);
  EXPECT_EQ(reproduce.invalidations, 1u);

  // Where everything ended up: node 0 holds A, B and the recomputed D;
  // node 1 kept only its fetched copy of A.
  ASSERT_EQ(t.node_spans.size(), 2u);
  const obs::DistNodeTrace& n0 = t.node_spans[0];
  const obs::DistNodeTrace& n1 = t.node_spans[1];
  EXPECT_EQ(n0.tasks, 2);
  EXPECT_EQ(n1.tasks, 2);
  EXPECT_EQ(n0.migrations_out, 1u);
  EXPECT_EQ(n0.bytes_out, 1000.0);
  EXPECT_EQ(n1.migrations_in, 1u);
  EXPECT_EQ(n1.bytes_in, 1000.0);
  EXPECT_EQ(n0.recomputes, 1u);
  EXPECT_EQ(n1.invalidations, 1u);
  EXPECT_EQ(n0.replica_entries, 3u);
  EXPECT_EQ(n0.replica_bytes, 6000.0);
  EXPECT_EQ(n1.replica_entries, 1u);
  EXPECT_EQ(n1.replica_bytes, 1000.0);
  EXPECT_EQ(t.totals.invalidations, 1u);
  EXPECT_EQ(t.totals.migrations, 1u);
  EXPECT_EQ(t.totals.recomputes, 1u);
}

// ------------------------------------------------------------------ //
// Campaign-level byte-identity, crashes, and routing economics.
// ------------------------------------------------------------------ //

std::vector<ProteinRecord> sample_records(int n) {
  FoldUniverse universe(40, 31);
  return ProteomeGenerator(universe, species_d_vulgaris(), 12).generate(n);
}

PipelineConfig chaos_cfg() {
  PipelineConfig cfg;
  cfg.summit_nodes = 2;
  cfg.andes_nodes = 4;
  cfg.relax_nodes = 1;
  cfg.db_replicas = 2;
  cfg.jobs_per_replica = 2;
  cfg.use_highmem_for_oom = true;
  cfg.highmem_nodes = 1;
  cfg.faults.seed = 77;
  cfg.faults.crash_rate = 0.06;
  cfg.faults.transient_rate = 0.08;
  cfg.faults.oom_rate = 0.05;
  cfg.faults.straggler_rate = 0.1;
  return cfg;
}

std::string render(const PairCampaignReport& r) {
  std::ostringstream ss;
  print_pair_campaign(ss, r);
  return ss.str();
}

std::string run_dist(const PairCampaign& campaign, const std::vector<ProteinRecord>& records,
                     dist::DistCluster& cluster) {
  const std::unique_ptr<Executor> feat =
      make_stage_executor_dist(cluster, campaign.config(), StageKind::kFeatures);
  const std::unique_ptr<Executor> pair =
      make_stage_executor_dist(cluster, campaign.config(), StageKind::kInference);
  return render(campaign.run(records, nullptr, nullptr, nullptr, feat.get(), pair.get()));
}

TEST(DistCampaign, StdoutByteIdenticalAcrossNodeCountsUnderChaos) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(8);
  const PairCampaign campaign(universe, chaos_cfg());
  const std::string golden = render(campaign.run(records));

  for (const int nodes : {1, 4, 16}) {
    SCOPED_TRACE("nodes " + std::to_string(nodes));
    dist::DistConfig dc;
    dc.nodes = nodes;
    dist::DistCluster cluster(dc);
    EXPECT_EQ(golden, run_dist(campaign, records, cluster));
    // Stage drivers opened one stats window per stage.
    ASSERT_EQ(cluster.windows().size(), 2u);
    EXPECT_EQ(cluster.windows()[0].label, "pair-features");
    EXPECT_EQ(cluster.windows()[1].label, "pair-inference");
    EXPECT_GT(cluster.totals().tasks, 0);
    if (nodes > 1) {
      // Pair tasks need two chains' features: some must cross nodes.
      EXPECT_GT(cluster.totals().migrations, 0u);
      EXPECT_GT(cluster.totals().invalidations + cluster.totals().local_hits, 0u);
    } else {
      EXPECT_EQ(cluster.totals().migrations, 0u);
    }
  }
}

TEST(DistCampaign, NodeCrashesRerouteWorkWithoutTouchingTheScience) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(8);
  const PairCampaign campaign(universe, chaos_cfg());
  const std::string golden = render(campaign.run(records));

  dist::DistConfig dc;
  dc.nodes = 4;
  dc.node_crash_rate = 0.3;
  dist::DistCluster cluster(dc);
  EXPECT_EQ(golden, run_dist(campaign, records, cluster));
  const dist::WindowStats t = cluster.totals();
  EXPECT_GT(t.node_crashes, 0);
  EXPECT_GT(t.tasks_rerouted, 0);
  // A crashed node loses its replica; some later fetch had to migrate
  // or recompute what it held.
  EXPECT_GT(t.migrations + t.recomputes, 0u);
  int crash_total = 0;
  for (const dist::NodeStats& ns : cluster.node_stats()) crash_total += ns.crashes;
  EXPECT_EQ(crash_total, t.node_crashes);
}

TEST(DistCampaign, LocalityRoutingMigratesNoMoreThanRandom) {
  FoldUniverse universe(40, 31);
  const auto records = sample_records(10);
  PipelineConfig cfg = chaos_cfg();
  cfg.faults = {};  // economics comparison, no fault noise needed
  const PairCampaign campaign(universe, cfg);

  std::map<dist::RoutingPolicy, dist::WindowStats> totals;
  std::string golden;
  for (const dist::RoutingPolicy routing :
       {dist::RoutingPolicy::kLocality, dist::RoutingPolicy::kRandom}) {
    dist::DistConfig dc;
    dc.nodes = 4;
    dc.routing = routing;
    dist::DistCluster cluster(dc);
    const std::string out = run_dist(campaign, records, cluster);
    if (golden.empty()) golden = out;
    EXPECT_EQ(golden, out) << dist::routing_policy_name(routing);
    totals[routing] = cluster.totals();
  }
  const dist::WindowStats& loc = totals[dist::RoutingPolicy::kLocality];
  const dist::WindowStats& rnd = totals[dist::RoutingPolicy::kRandom];
  EXPECT_LE(loc.bytes_migrated, rnd.bytes_migrated);
  EXPECT_GE(loc.local_hits, rnd.local_hits);
  EXPECT_GT(loc.local_hits, 0u);
}

}  // namespace
}  // namespace sf
