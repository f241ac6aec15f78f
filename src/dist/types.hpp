// Shared value types of the distributed executor: configuration,
// routing policies, locality hints, and the counter records every actor
// (coordinator, nodes, network) accumulates into. The counter records
// are obs's trace records themselves, so the sfDist trace section is
// the counters as counted.
//
// Determinism contract: everything here is plain data. All randomness
// in the subsystem (network jitter, random routing, crash draws) comes
// from stateless hashes of (seed, stable identifiers) -- never from
// shared RNG state -- so an N-node simulation replays bit-identically.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "dataflow/task.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"
#include "store/key.hpp"

namespace sf::dist {

// One artifact a task consumes or produces, with the modeled size and a
// deterministic estimate of what rebuilding it from scratch costs. The
// stage drivers supply these through a LocalityProvider; the scheduler
// and the coherence protocol never inspect payloads, only refs.
struct ArtifactRef {
  store::ArtifactKey key;
  double bytes = 0.0;
  double recompute_s = 0.0;
};

struct TaskLocality {
  std::vector<ArtifactRef> needs;
  std::vector<ArtifactRef> produces;
};

// Invoked once per task after the task function ran. Stage drivers
// resolve their science before the map, so data-dependent sizes (e.g.
// MSA feature bytes) are already known.
using LocalityProvider = std::function<TaskLocality(const TaskSpec&)>;

enum class RoutingPolicy {
  kLocality,  // max resident needed bytes; queued-cost, then id tie-break
  kRandom,    // seeded hash of (seed, round, task id)
};

const char* routing_policy_name(RoutingPolicy policy);
bool routing_policy_from_name(const std::string& name, RoutingPolicy& out);

struct DistConfig {
  int nodes = 4;
  NetworkModel network;
  RoutingPolicy routing = RoutingPolicy::kLocality;
  std::uint64_t seed = 0;
  // Probability a node drain-stops during a round (the node-crash fault
  // class): it finishes a deterministic prefix of its queue, returns
  // the rest to the coordinator, and its replica is lost.
  double node_crash_rate = 0.0;
};

// Lifetime counters of one node (across every round the cluster ran);
// the replica snapshot is filled in when the stats are read.
using NodeStats = obs::DistNodeTrace;

// Counters of one stage window (opened by DistCluster::begin_window,
// one per stage, like the artifact store's begin_stage stats windows).
using WindowStats = obs::DistWindowTrace;

}  // namespace sf::dist
