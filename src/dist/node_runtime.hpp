// NodeRuntime: one compute node of the distributed executor.
//
// A node owns a slice of the stage pool's workers, a FIFO task queue
// fed by coordinator kTaskAssign messages, and a replica: the set of
// artifacts placed on it, each with its modeled bytes. The replica is
// placement bookkeeping only, with no payload I/O and no capacity: the
// real ArtifactStore stays the campaign's single durable truth (its
// manifests are byte-frozen at any node count), and the distributed
// layer models only *where* artifacts live. Dispatch seizes the
// lowest-numbered idle worker for the queue head, resolves the task's
// artifact needs -- local replica hit, fetch from a remote holder (the
// worker waits for the kFetchReply), or recompute when no live replica
// holds the key -- then runs the task for its canonical modeled
// duration plus any recompute surcharge. Successful attempts insert
// their produced (and recomputed) artifacts into the replica,
// announcing them to the coordinator's directory.
//
// Node-crash fault class: a crashing node "drain-stops" after
// completing a deterministic prefix of its queue -- in-flight work
// finishes, queued tasks go back to the coordinator as kTaskReturn,
// the replica's contents are lost, and kNodeDown tells the directory
// to forget the node. The canonical task outcomes are untouched (this
// layer is placement/latency observability); what a crash costs is
// locality: migrations and recomputes after the replica is gone.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "dist/messages.hpp"
#include "dist/network_handler.hpp"
#include "dist/types.hpp"

namespace sf::dist {

class NodeRuntime final : public Endpoint {
 public:
  struct RoundSetup {
    SimEngine* engine = nullptr;
    NetworkHandler* net = nullptr;
    WindowStats* win = nullptr;
    const std::vector<double>* duration_s = nullptr;  // modeled, cost-scaled
    const std::vector<char>* ok = nullptr;
    const std::vector<TaskLocality>* locality = nullptr;
    int coordinator = 0;
    double dispatch_overhead_s = 0.6;
    int workers = 0;
    double worker_speed = 1.0;
    bool crash = false;
    std::uint64_t crash_after = 0;  // completions before the drain-stop
  };

  explicit NodeRuntime(int id) { stats_.node = id; }

  // Reset per-round scheduling state; the replica and lifetime stats
  // persist across rounds and stage windows.
  void begin_round(const RoundSetup& setup);

  Channel<Message>& inbox() override { return inbox_; }
  void drain() override;

  // Lifetime counters plus the replica's current entries and bytes.
  NodeStats stats() const;
  int id() const { return stats_.node; }

 private:
  struct Flight {
    std::size_t task = 0;
    double seized_s = 0.0;  // when the worker was taken
    int pending_fetches = 0;
    double extra_s = 0.0;  // recompute surcharge
    std::vector<ArtifactRef> recomputed;
  };

  void handle(const Message& msg);
  int take_waiter(const store::ArtifactKey& key);
  void try_dispatch();
  void start_run(int worker);
  void complete(int worker);
  void maybe_crash();
  void die();
  void insert_artifact(const ArtifactRef& ref, bool exclusive);
  const ArtifactRef* need_ref(std::size_t task, const store::ArtifactKey& key) const;

  // The replica: key -> modeled bytes, and their running total.
  std::map<store::ArtifactKey, double> replica_;
  double replica_bytes_ = 0.0;
  NodeStats stats_;
  Channel<Message> inbox_;
  RoundSetup s_;
  std::deque<std::size_t> queue_;
  std::set<int> idle_;
  std::vector<Flight> flights_;  // one slot per local worker
  // Workers blocked on a fetch of this key, in request order.
  std::map<store::ArtifactKey, std::deque<int>> waiting_;
  std::uint64_t completed_ = 0;
  bool dead_ = false;
};

}  // namespace sf::dist
