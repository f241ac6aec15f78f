// NetworkHandler: the only path between distributed-executor endpoints.
//
// Every message the coordinator or a node sends goes through send():
// the handler prices it with sim/network's NetworkModel (pure function
// of seed, topology, endpoints, payload bytes), counts it into the
// current stage window, and schedules delivery on the round's event
// queue. Delivery pushes the message into the destination endpoint's
// inbox Channel and asks it to drain -- endpoints never call one
// another directly, which is what keeps the protocol CSP-shaped and the
// event order deterministic.
//
// Endpoint ids: 0..nodes-1 are NodeRuntimes; id `nodes` is the
// RequestCoordinator (modeled as its own allocation member, the way the
// paper's Dask scheduler occupied a service node).
#pragma once

#include <vector>

#include "dist/messages.hpp"
#include "dist/types.hpp"
#include "sim/event_queue.hpp"
#include "sim/network.hpp"

namespace sf::dist {

// One CSP process: owns an inbox and processes whatever the network
// delivered, at the delivery time.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual Channel<Message>& inbox() = 0;
  virtual void drain() = 0;
};

class NetworkHandler {
 public:
  explicit NetworkHandler(const NetworkModel& model) : model_(model) {}

  // Rebind to a fresh round: the engine drives delivery, `endpoints` is
  // nodes + 1 (coordinator), counters accumulate into `win`.
  void begin_round(SimEngine* engine, int endpoints, WindowStats* win);
  void connect(int id, Endpoint* endpoint);

  // Price, count, and schedule delivery of one message.
  void send(const Message& msg);
  // Switch hops between two endpoints (the coordinator's nearest-holder
  // choice; no traffic generated).
  int hops(int from, int to) const;

 private:
  NetworkModel model_;
  SimEngine* engine_ = nullptr;
  int endpoints_ = 0;
  WindowStats* win_ = nullptr;
  std::vector<Endpoint*> endpoints_by_id_;
};

}  // namespace sf::dist
