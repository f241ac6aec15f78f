#include "dist/executor.hpp"

#include <cmath>

#include "util/rng.hpp"

namespace sf::dist {
namespace {

// Unit-interval hash: the crash plan's two draws per (seed, round,
// node) -- whether a node drain-stops, and how far through its queue.
double unit_hash(std::uint64_t a, std::uint64_t b, std::uint64_t c) {
  return static_cast<double>(mix64(a, mix64(b, c)) >> 11) * 0x1.0p-53;
}

constexpr std::uint64_t kCrashStream = 0xD157C4A5ULL;

// Coordinator serialization between two consecutive kTaskAssigns.
constexpr double kAssignStaggerS = 1e-3;

}  // namespace

DistCluster::DistCluster(const DistConfig& cfg) : cfg_(cfg), net_(cfg.network) {
  coordinator_.reset(cfg_.nodes);
  nodes_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int i = 0; i < cfg_.nodes; ++i) nodes_.push_back(std::make_unique<NodeRuntime>(i));
}

void DistCluster::begin_window(const std::string& label) { windows_.push_back({.label = label}); }

WindowStats& DistCluster::win() {
  if (windows_.empty()) begin_window("campaign");
  return windows_.back();
}

WindowStats DistCluster::totals() const {
  WindowStats total{.label = "total"};
  for (const WindowStats& w : windows_) total.merge(w);
  return total;
}

std::vector<NodeStats> DistCluster::node_stats() const {
  std::vector<NodeStats> out;
  out.reserve(nodes_.size());
  for (const auto& node : nodes_) out.push_back(node->stats());
  return out;
}

void DistCluster::note_alt_round(std::size_t tasks) {
  win().alt_tasks += static_cast<int>(tasks);
}

void DistCluster::run_round(const std::vector<TaskSpec>& batch,
                            const std::vector<double>& duration_s, const std::vector<char>& ok,
                            const std::vector<TaskLocality>& locality,
                            const SimulatedDataflowParams& params) {
  WindowStats& w = win();
  if (batch.empty()) return;
  const std::uint64_t round = rounds_run_++;

  // Slice the stage pool over the allocation: node i serves
  // floor(W/N) workers plus one of the W mod N remainders.
  const int total_workers = params.workers;
  std::vector<int> widths(static_cast<std::size_t>(cfg_.nodes), 0);
  std::vector<int> eligible;
  for (int i = 0; i < cfg_.nodes; ++i) {
    widths[static_cast<std::size_t>(i)] =
        total_workers / cfg_.nodes + (i < total_workers % cfg_.nodes ? 1 : 0);
    if (widths[static_cast<std::size_t>(i)] > 0) eligible.push_back(i);
  }
  if (eligible.empty()) return;  // no pool, nothing to place
  const double speed = params.worker_speed.empty() ? 1.0 : params.worker_speed.front();

  // Static placement, then the crash plan against the placement counts.
  std::vector<double> queued_cost(static_cast<std::size_t>(cfg_.nodes), 0.0);
  const std::vector<int> assignment =
      coordinator_.route(batch, duration_s, locality, eligible, cfg_.routing, cfg_.seed, round,
                         queued_cost);
  std::vector<std::uint64_t> assigned(static_cast<std::size_t>(cfg_.nodes), 0);
  for (const int node : assignment) ++assigned[static_cast<std::size_t>(node)];

  std::vector<char> crash(static_cast<std::size_t>(cfg_.nodes), 0);
  std::vector<std::uint64_t> crash_after(static_cast<std::size_t>(cfg_.nodes), 0);
  if (cfg_.node_crash_rate > 0.0) {
    std::size_t crashing = 0;
    for (const int i : eligible) {
      const auto n = static_cast<std::uint64_t>(i);
      if (unit_hash(cfg_.seed ^ kCrashStream, round + 1, n + 1) < cfg_.node_crash_rate) {
        crash[static_cast<std::size_t>(i)] = 1;
        crash_after[static_cast<std::size_t>(i)] = static_cast<std::uint64_t>(
            std::floor(unit_hash(cfg_.seed ^ kCrashStream, round + 1, (n + 1) << 16) *
                       static_cast<double>(assigned[static_cast<std::size_t>(i)])));
        ++crashing;
      }
    }
    // The fault class models partial loss, not a dead allocation: at
    // least one eligible node always survives to absorb reroutes.
    if (crashing == eligible.size()) crash[static_cast<std::size_t>(eligible.front())] = 0;
  }

  SimEngine engine;
  net_.begin_round(&engine, cfg_.nodes + 1, &w);
  net_.connect(coordinator_.id(), &coordinator_);

  coordinator_.begin_round({.net = &net_,
                            .win = &w,
                            .duration_s = &duration_s,
                            .eligible = eligible,
                            .queued_cost = queued_cost});

  // Every node joins the round -- a node with no workers this round
  // (a narrow pool sliced over a wide allocation) still serves fetches
  // from its replica; only eligible nodes receive task assignments.
  for (int i = 0; i < cfg_.nodes; ++i) {
    const auto n = static_cast<std::size_t>(i);
    nodes_[n]->begin_round({.engine = &engine,
                            .net = &net_,
                            .win = &w,
                            .duration_s = &duration_s,
                            .ok = &ok,
                            .locality = &locality,
                            .coordinator = coordinator_.id(),
                            .dispatch_overhead_s = params.dispatch_overhead_s,
                            .workers = widths[n],
                            .worker_speed = speed,
                            .crash = crash[n] != 0,
                            .crash_after = crash_after[n]});
    net_.connect(i, nodes_[n].get());
  }

  // The coordinator serializes assignments after pool startup, one
  // kTaskAssign per task in batch order.
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Message assign{.kind = MsgKind::kTaskAssign,
                         .src = coordinator_.id(),
                         .dst = assignment[i],
                         .task = i};
    engine.schedule_at(params.startup_s + static_cast<double>(i) * kAssignStaggerS,
                       [this, assign] { net_.send(assign); });
  }

  const double makespan = engine.run();
  ++w.rounds;
  w.tasks += static_cast<int>(batch.size());
  w.makespan_s += makespan;
}

obs::DistTrace DistCluster::trace() const {
  return {.topology = topology_name(cfg_.network.topology),
          .routing = routing_policy_name(cfg_.routing),
          .nodes = cfg_.nodes,
          .totals = totals(),
          .windows = windows_,
          .node_spans = node_stats()};
}

// ------------------------------------------------------------------ //
// DistributedExecutor.
// ------------------------------------------------------------------ //

DataflowRunResult DistributedExecutor::run_batch(const std::vector<TaskSpec>& batch,
                                                 const TaskFn& fn, const BatchEnv& env,
                                                 std::vector<TaskSpec>& failed) {
  // The canonical round, keeping each task's outcome.
  std::vector<TaskOutcome> outcomes;
  DataflowRunResult res = run_recorded(batch, fn, env, failed, outcomes);

  // The distributed pass: observability only, never billed into the
  // result (the store-pricing precedent).
  if (env.pool == Pool::kAlt) {
    cluster_->note_alt_round(batch.size());
    return res;
  }
  std::vector<double> dur(batch.size(), 0.0);
  std::vector<char> ok(batch.size(), 1);
  std::vector<TaskLocality> locality(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    dur[i] = outcomes[i].sim_duration_s * env.cost_scale;
    ok[i] = outcomes[i].ok ? 1 : 0;
    if (locality_) locality[i] = locality_(batch[i]);
  }
  cluster_->run_round(batch, dur, ok, locality, round_params(env));
  return res;
}

}  // namespace sf::dist
