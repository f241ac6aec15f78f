#include "dist/coordinator.hpp"

#include <algorithm>
#include <cassert>

#include "util/rng.hpp"

namespace sf::dist {
namespace {

// Locality spill guard: a locality-preferred node whose queued cost
// exceeds this many times the mean hands the task to the least-loaded
// node instead (locality must not starve the rest of the allocation).
constexpr double kSpillFactor = 4.0;

}  // namespace

std::vector<int> RequestCoordinator::route(const std::vector<TaskSpec>& batch,
                                           const std::vector<double>& duration_s,
                                           const std::vector<TaskLocality>& locality,
                                           const std::vector<int>& eligible,
                                           RoutingPolicy policy, std::uint64_t seed,
                                           std::uint64_t round,
                                           std::vector<double>& queued_cost) const {
  assert(!eligible.empty());
  std::vector<int> assignment(batch.size(), eligible.front());
  // Artifacts earlier tasks of this round will produce: counted as
  // resident at their planned node so producer/consumer chains route
  // together.
  std::map<store::ArtifactKey, int> planned;

  for (std::size_t i = 0; i < batch.size(); ++i) {
    int chosen = eligible.front();
    switch (policy) {
      case RoutingPolicy::kRandom: {
        const std::uint64_t h = mix64(seed, mix64(round + 1, batch[i].id + 1));
        chosen = eligible[static_cast<std::size_t>(h % eligible.size())];
        break;
      }
      case RoutingPolicy::kLocality: {
        double best_bytes = -1.0;
        double total_cost = 0.0;
        for (const int node : eligible) total_cost += queued_cost[static_cast<std::size_t>(node)];
        for (const int node : eligible) {
          double resident = 0.0;
          for (const ArtifactRef& ref : locality[i].needs) {
            const auto pit = planned.find(ref.key);
            if (pit != planned.end() && pit->second == node) {
              resident += ref.bytes;
              continue;
            }
            const auto dit = dir_.find(ref.key);
            if (dit != dir_.end() && dit->second.count(node) != 0) resident += ref.bytes;
          }
          const double cost = queued_cost[static_cast<std::size_t>(node)];
          const double best_cost = queued_cost[static_cast<std::size_t>(chosen)];
          const bool better =
              resident != best_bytes ? resident > best_bytes : cost < best_cost;
          if (better) {
            best_bytes = resident;
            chosen = node;
          }
        }
        // Spill guard: locality never starves the allocation.
        const double mean = total_cost / static_cast<double>(eligible.size());
        if (mean > 0.0 &&
            queued_cost[static_cast<std::size_t>(chosen)] > kSpillFactor * mean) {
          int lightest = chosen;
          for (const int node : eligible) {
            if (queued_cost[static_cast<std::size_t>(node)] <
                queued_cost[static_cast<std::size_t>(lightest)]) {
              lightest = node;
            }
          }
          chosen = lightest;
        }
        break;
      }
    }
    assignment[i] = chosen;
    queued_cost[static_cast<std::size_t>(chosen)] += duration_s[i];
    for (const ArtifactRef& ref : locality[i].produces) planned[ref.key] = chosen;
  }
  return assignment;
}

void RequestCoordinator::begin_round(RoundSetup setup) {
  s_ = std::move(setup);
  alive_.assign(static_cast<std::size_t>(id_), 1);
}

void RequestCoordinator::drain() {
  Message msg;
  while (inbox_.try_pop(msg)) handle(msg);
}

int RequestCoordinator::nearest_holder(const store::ArtifactKey& key, int requester) const {
  const auto it = dir_.find(key);
  if (it == dir_.end()) return -1;
  int best = -1;
  int best_hops = 0;
  for (const int node : it->second) {
    if (node == requester) continue;  // a requester never holds what it asks for
    if (!alive_[static_cast<std::size_t>(node)]) continue;
    const int h = s_.net->hops(node, requester);
    if (best < 0 || h < best_hops) {
      best = node;
      best_hops = h;
    }
  }
  return best;
}

int RequestCoordinator::least_loaded_alive() const {
  int best = -1;
  for (const int node : s_.eligible) {
    if (!alive_[static_cast<std::size_t>(node)]) continue;
    if (best < 0 || s_.queued_cost[static_cast<std::size_t>(node)] <
                        s_.queued_cost[static_cast<std::size_t>(best)]) {
      best = node;
    }
  }
  return best;
}

void RequestCoordinator::handle(const Message& msg) {
  switch (msg.kind) {
    case MsgKind::kFetchRequest: {
      const int holder = nearest_holder(msg.key, msg.src);
      Message out{.src = id_, .key = msg.key, .artifact_bytes = msg.artifact_bytes};
      if (holder < 0) {
        out.kind = MsgKind::kFetchMiss;
        out.dst = msg.src;
      } else {
        out.kind = MsgKind::kFetchForward;
        out.dst = holder;
        out.requester = msg.src;
      }
      s_.net->send(out);
      return;
    }
    case MsgKind::kPutNotice: {
      auto& holders = dir_[msg.key];
      for (const int prior : holders) {
        if (prior == msg.src) continue;
        s_.net->send({.kind = MsgKind::kInvalidate, .src = id_, .dst = prior, .key = msg.key});
      }
      holders.clear();
      holders.insert(msg.src);
      return;
    }
    case MsgKind::kShareNotice: {
      dir_[msg.key].insert(msg.src);
      return;
    }
    case MsgKind::kNodeDown: {
      alive_[static_cast<std::size_t>(msg.src)] = 0;
      for (auto it = dir_.begin(); it != dir_.end();) {
        it->second.erase(msg.src);
        it = it->second.empty() ? dir_.erase(it) : std::next(it);
      }
      return;
    }
    case MsgKind::kTaskReturn: {
      const int target = least_loaded_alive();
      assert(target >= 0 && "the crash plan always spares one node");
      s_.queued_cost[static_cast<std::size_t>(target)] += (*s_.duration_s)[msg.task];
      ++s_.win->tasks_rerouted;
      s_.net->send({.kind = MsgKind::kTaskAssign, .src = id_, .dst = target, .task = msg.task});
      return;
    }
    case MsgKind::kTaskDone: {
      double& cost = s_.queued_cost[static_cast<std::size_t>(msg.src)];
      cost = std::max(0.0, cost - (*s_.duration_s)[msg.task]);
      return;
    }
    default:
      assert(false && "message kind not addressed to the coordinator");
      return;
  }
}

}  // namespace sf::dist
