// Message vocabulary and CSP-style channels of the distributed executor.
//
// The distributed backend is structured as communicating sequential
// processes: a RequestCoordinator, one NodeRuntime per node, and a
// NetworkHandler that prices and delivers every message between them
// (dist/network_handler.hpp). Endpoints never call each other; the only
// way state crosses a process boundary is a Message pushed into the
// destination's inbox Channel at its modeled delivery time. That makes
// the protocol auditable -- every coherence transition below is one
// message kind -- and keeps the simulation deterministic: delivery
// order is fixed by the event queue's (time, seq) order, and message
// latency is a pure function of (seed, topology, endpoints, bytes)
// through sim/network.
//
// Protocol summary (C = coordinator, N = node):
//   C -> N  kTaskAssign    run round task `task`
//   N -> C  kTaskReturn    node drained its queue while crashing
//   N -> C  kTaskDone      task attempt finished (bookkeeping)
//   N -> C  kFetchRequest  need artifact `key`; who holds it?
//   C -> N  kFetchForward  serve `key` to node `requester`
//   N -> N  kFetchReply    artifact payload (priced at artifact bytes)
//   * -> N  kFetchMiss     nobody holds `key`; recompute locally
//   N -> C  kPutNotice     produced `key` (directory: exclusive owner)
//   N -> C  kShareNotice   cached a fetched copy of `key` (shared)
//   C -> N  kInvalidate    drop your stale copy of `key`
//   N -> C  kNodeDown      node crashed; forget its holdings
//
// Every message but kFetchReply is a fixed-size control message; the
// reply pays the artifact's bytes on the wire.
#pragma once

#include <cstddef>
#include <deque>

#include "store/key.hpp"

namespace sf::dist {

enum class MsgKind {
  kTaskAssign,
  kTaskReturn,
  kTaskDone,
  kFetchRequest,
  kFetchForward,
  kFetchReply,
  kFetchMiss,
  kPutNotice,
  kShareNotice,
  kInvalidate,
  kNodeDown,
};

// Wire size of a control (non-payload) message.
constexpr double kControlMessageBytes = 256.0;

struct Message {
  MsgKind kind = MsgKind::kTaskAssign;
  int src = -1;
  int dst = -1;
  double bytes = kControlMessageBytes;  // wire size the network prices
  std::size_t task = 0;                 // round-local task index (assign/return/done)
  store::ArtifactKey key{};             // coherence-traffic subject
  int requester = -1;                   // original requester (kFetchForward)
  // Size of the artifact under negotiation: a fetch request/forward is
  // a small control message *about* a large artifact; only the reply
  // pays the artifact's bytes on the wire.
  double artifact_bytes = 0.0;
};

// Unbounded FIFO mailbox. Single-threaded by design: the simulation is
// a discrete-event loop, so a channel is ordering structure, not a
// synchronization primitive.
template <typename T>
class Channel {
 public:
  void push(T value) { queue_.push_back(std::move(value)); }

  bool try_pop(T& out) {
    if (queue_.empty()) return false;
    out = std::move(queue_.front());
    queue_.pop_front();
    return true;
  }

 private:
  std::deque<T> queue_;
};

}  // namespace sf::dist
