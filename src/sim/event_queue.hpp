// Discrete-event simulation engine.
//
// The scale side of the paper (1,200-6,000 Dask workers, 32-1000 Summit
// nodes, LSF queues) is reproduced with simulated time: events are
// (time, callback) pairs on a priority queue, with a monotonically
// increasing sequence number breaking ties so execution order is
// deterministic regardless of scheduling pattern.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace sf {

using SimTime = double;  // seconds

class SimEngine {
 public:
  SimTime now() const { return now_; }

  // Schedule `fn` to run at absolute time `at` (clamped to now).
  void schedule_at(SimTime at, std::function<void()> fn);
  // Schedule `fn` to run after `delay` seconds.
  void schedule_after(SimTime delay, std::function<void()> fn);

  bool empty() const { return queue_.empty(); }

  // Run until the queue drains; returns the final simulation time.
  SimTime run();

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace sf
