#include "sim/batch.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace sf {

std::vector<ScheduledJob> BatchScheduler::schedule(std::vector<BatchJob> jobs) const {
  std::vector<ScheduledJob> out;
  out.reserve(jobs.size());

  struct Pending {
    BatchJob job;
    std::size_t order;  // original index for stable output
  };
  std::vector<Pending> queue;
  queue.reserve(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) queue.push_back({jobs[i], i});

  auto priority_before = [this](const Pending& a, const Pending& b) {
    switch (policy_) {
      case QueuePolicy::kLargeJobPriority:
        if (a.job.nodes != b.job.nodes) return a.job.nodes > b.job.nodes;
        break;
      case QueuePolicy::kSmallJobPriority:
        if (a.job.nodes != b.job.nodes) return a.job.nodes < b.job.nodes;
        break;
      case QueuePolicy::kFcfs:
        break;
    }
    if (a.job.submit_time_s != b.job.submit_time_s) {
      return a.job.submit_time_s < b.job.submit_time_s;
    }
    return a.order < b.order;
  };

  struct Running {
    double end;
    int nodes;
  };
  std::vector<Running> running;
  out.resize(jobs.size());
  int free_nodes = total_nodes_;
  double now = 0.0;

  // Reject oversized jobs immediately.
  for (auto it = queue.begin(); it != queue.end();) {
    if (it->job.nodes > total_nodes_) {
      out[it->order] = {it->job, it->job.submit_time_s, it->job.submit_time_s};
      it = queue.erase(it);
    } else {
      ++it;
    }
  }

  while (!queue.empty() || !running.empty()) {
    // Retire finished jobs at `now`.
    for (auto it = running.begin(); it != running.end();) {
      if (it->end <= now + 1e-12) {
        free_nodes += it->nodes;
        it = running.erase(it);
      } else {
        ++it;
      }
    }
    // Start everything that fits, in priority order, among jobs already
    // submitted (first-fit backfill: smaller lower-priority jobs may slip
    // past a blocked large job).
    std::sort(queue.begin(), queue.end(), priority_before);
    bool started = true;
    while (started) {
      started = false;
      for (auto it = queue.begin(); it != queue.end(); ++it) {
        if (it->job.submit_time_s > now + 1e-12) continue;
        if (it->job.nodes <= free_nodes) {
          free_nodes -= it->job.nodes;
          const double end = now + it->job.duration_s;
          running.push_back({end, it->job.nodes});
          out[it->order] = {it->job, now, end};
          queue.erase(it);
          started = true;
          break;
        }
      }
    }
    if (queue.empty() && running.empty()) break;
    // Advance to the next interesting instant: earliest completion or
    // next submission.
    double next = std::numeric_limits<double>::infinity();
    for (const auto& r : running) next = std::min(next, r.end);
    for (const auto& p : queue) {
      if (p.job.submit_time_s > now) next = std::min(next, p.job.submit_time_s);
    }
    if (!std::isfinite(next)) break;  // stuck: nothing can ever start
    now = std::max(now, next);
  }
  return out;
}

}  // namespace sf
