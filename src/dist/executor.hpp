// DistributedExecutor: the multi-node backend of sf::Executor.
//
// The paper's deployment spanned 1,000+ Summit nodes; this backend
// makes that scale a first-class simulated object. A DistCluster owns
// the persistent distributed state -- one replica per node, the
// coordinator's coherence directory, per-window transfer counters --
// and a DistributedExecutor is the per-stage facade that runs each
// map() round through the coordinator/node/network simulation.
//
// Byte-identity contract (the tentpole invariant): campaign stdout,
// journals, and canonical trace sections are byte-identical to the
// SimulatedExecutor at ANY node count. DistributedExecutor IS that
// SimulatedExecutor (built from make_stage_executor()'s pools), which
// achieves the contract by construction:
//   1. SimulatedExecutor::run_batch() runs the canonical DES round --
//      the task function once per task, in batch submission order --
//      so every serial side effect (fault accounting, trace events) and
//      the returned DataflowRunResult, hence MapResult, are bit-equal.
//   2. The distributed pass (routing, fetches, coherence, crashes) then
//      runs in after_round(), consumes only the attempts Executor::map()
//      recorded for that round, and feeds only observability:
//      DistCluster counters, the sfDist trace section, stderr reports,
//      and benchmarks. Like store staging prices, distributed time is
//      measured, never billed into stage reports.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "dataflow/executor.hpp"
#include "dist/coordinator.hpp"
#include "dist/network_handler.hpp"
#include "dist/node_runtime.hpp"
#include "dist/types.hpp"
#include "obs/trace.hpp"

namespace sf::dist {

// Persistent distributed state shared by every stage of a campaign.
class DistCluster {
 public:
  explicit DistCluster(const DistConfig& cfg);

  const DistConfig& config() const { return cfg_; }
  int nodes() const { return cfg_.nodes; }

  // Open a new stats window (one per stage, like the artifact store's
  // begin_stage). Counters accumulate into the current window.
  void begin_window(const std::string& label);
  WindowStats totals() const;  // all windows merged, labelled "total"
  const std::vector<WindowStats>& windows() const { return windows_; }
  std::vector<NodeStats> node_stats() const;

  // Simulate one primary-pool round: route, assign, fetch/recompute,
  // run, produce. `duration_s` are the canonical modeled durations
  // (cost-scaled), `ok` the canonical outcomes; neither is altered.
  void run_round(const std::vector<TaskSpec>& batch, const std::vector<double>& duration_s,
                 const std::vector<char>& ok, const std::vector<TaskLocality>& locality,
                 const SimulatedDataflowParams& params);
  // Alternate-pool rounds (e.g. the high-memory OOM rerun) are not
  // distributed -- the alt pool is its own small allocation -- but are
  // counted so windows account for every attempt.
  void note_alt_round(std::size_t tasks);

  // The sfDist trace section: the configuration, the windows and their
  // totals, and each node's stats.
  obs::DistTrace trace() const;

 private:
  WindowStats& win();

  DistConfig cfg_;
  NetworkHandler net_;
  RequestCoordinator coordinator_;
  std::vector<std::unique_ptr<NodeRuntime>> nodes_;
  std::vector<WindowStats> windows_;
  std::uint64_t rounds_run_ = 0;
};

class DistributedExecutor final : public SimulatedExecutor {
 public:
  // Runs `modeled`'s pools, the primary one sliced across `cluster`'s
  // nodes. The cluster outlives every stage facade built over it.
  DistributedExecutor(const SimulatedExecutor& modeled, DistCluster& cluster)
      : SimulatedExecutor(modeled), cluster_(&cluster) {}

  // core/stage_map installs each stage's locality provider before its
  // map() so the router and the coherence protocol see the stage's
  // artifact flow; without one, tasks carry no needs/produces and
  // routing degrades to load balancing.
  void set_locality(LocalityProvider provider) { locality_ = std::move(provider); }
  void clear_locality() { locality_ = nullptr; }

  DistCluster* cluster() { return cluster_; }

 protected:
  void after_round(const std::vector<TaskSpec>& batch, const BatchEnv& env,
                   const std::vector<Attempt>& attempts) override;

 private:
  DistCluster* cluster_;
  LocalityProvider locality_;
};

// The distributed backend behind an Executor&, if that is what it is
// (core/stage_map uses this to install locality providers without core
// depending on which backend a campaign chose).
inline DistributedExecutor* as_distributed(Executor& executor) {
  return dynamic_cast<DistributedExecutor*>(&executor);
}

}  // namespace sf::dist
