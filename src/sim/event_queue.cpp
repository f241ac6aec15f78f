#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace sf {

void SimEngine::schedule_at(SimTime at, std::function<void()> fn) {
  queue_.push({std::max(at, now_), next_seq_++, std::move(fn)});
}

void SimEngine::schedule_after(SimTime delay, std::function<void()> fn) {
  schedule_at(now_ + std::max(0.0, delay), std::move(fn));
}

SimTime SimEngine::run() {
  while (!queue_.empty()) {
    // Copy out before pop: the callback may schedule new events.
    Event ev = std::move(const_cast<Event&>(queue_.top()));
    queue_.pop();
    now_ = ev.time;
    ev.fn();
  }
  return now_;
}

}  // namespace sf
