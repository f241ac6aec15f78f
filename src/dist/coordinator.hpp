// RequestCoordinator: routing plus the coherence directory.
//
// Modeled on dsmcbe's split of request coordination from network
// handling: the coordinator is the single authority for *where*
// artifacts live (a directory of key -> holder set) and *where* tasks
// run. Placement is computed statically per round, before the event
// queue starts -- the same greedy decision a central scheduler makes
// from its bookkeeping, and static placement is what keeps an N-node
// round a pure function of (plan, topology, seed).
//
// Locality routing rule: a task goes to the eligible node holding the
// most bytes of its needed artifacts (counting artifacts earlier tasks
// of the same round will produce there); ties break to the smallest
// queued cost, then the lowest node id. Tasks with no resident needs
// are load-balanced (least queued cost). A spill guard keeps locality
// from starving the allocation: when the preferred node's queue exceeds
// a constant spill factor (4) x the mean, the task routes least-loaded
// instead. One node's queue is at most N x the mean, so the guard can
// act only on more than 4 nodes.
//
// Directory coherence states are implicit in the holder set:
//   exclusive  {producer}        after kPutNotice (invalidates others)
//   shared     {n1, n2, ...}     after kShareNotice (fetched copies)
//   invalid    absent            after its last holder's kNodeDown
// Replicas never evict, so a crash is the only thing that scrubs the
// directory.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "dist/messages.hpp"
#include "dist/network_handler.hpp"
#include "dist/types.hpp"

namespace sf::dist {

class RequestCoordinator final : public Endpoint {
 public:
  struct RoundSetup {
    NetworkHandler* net = nullptr;
    WindowStats* win = nullptr;
    const std::vector<double>* duration_s = nullptr;
    std::vector<int> eligible;       // nodes with >= 1 worker this round
    std::vector<double> queued_cost; // per node, seeded by route()
  };

  // New cluster: directory empty, coordinator endpoint id = nodes.
  void reset(int nodes) {
    id_ = nodes;
    dir_.clear();
  }

  // Static placement for one round, in batch order. Pure function of
  // (directory state, batch, policy, seed, round); fills `queued_cost`
  // with the per-node modeled load the placement implies.
  std::vector<int> route(const std::vector<TaskSpec>& batch,
                         const std::vector<double>& duration_s,
                         const std::vector<TaskLocality>& locality,
                         const std::vector<int>& eligible, RoutingPolicy policy,
                         std::uint64_t seed, std::uint64_t round,
                         std::vector<double>& queued_cost) const;

  void begin_round(RoundSetup setup);

  Channel<Message>& inbox() override { return inbox_; }
  void drain() override;

  int id() const { return id_; }

 private:
  void handle(const Message& msg);
  int nearest_holder(const store::ArtifactKey& key, int requester) const;
  int least_loaded_alive() const;

  int id_ = 0;
  std::map<store::ArtifactKey, std::set<int>> dir_;
  Channel<Message> inbox_;
  RoundSetup s_;
  std::vector<char> alive_;
};

}  // namespace sf::dist
