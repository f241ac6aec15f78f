// LSF-like batch scheduler model.
//
// §5 observes that feature generation had *higher wall time* despite
// *fewer node-hours* than inference, because Andes is smaller and its
// queue policy favors small-long jobs while Summit's favors large-short
// ones. This scheduler reproduces that: jobs queue for a machine with
// finite nodes, are prioritized by policy, and start greedily when nodes
// free up (first-fit backfill).
#pragma once

#include <string>
#include <vector>

namespace sf {

struct BatchJob {
  std::string name;
  int nodes = 1;
  double duration_s = 0.0;
  double submit_time_s = 0.0;
};

struct ScheduledJob {
  BatchJob job;
  double start_s = 0.0;
  double end_s = 0.0;

  double queue_wait_s() const { return start_s - job.submit_time_s; }
};

enum class QueuePolicy {
  kFcfs,
  kLargeJobPriority,  // Summit-style: leadership jobs first
  kSmallJobPriority,  // Andes-style: small analysis jobs first
};

class BatchScheduler {
 public:
  BatchScheduler(int total_nodes, QueuePolicy policy)
      : total_nodes_(total_nodes), policy_(policy) {}

  int total_nodes() const { return total_nodes_; }

  // Simulate the queue; returns one entry per job with start/end times.
  // Jobs larger than the machine are rejected (end == start == submit,
  // nodes unserved) -- callers should validate sizes first.
  std::vector<ScheduledJob> schedule(std::vector<BatchJob> jobs) const;

 private:
  int total_nodes_;
  QueuePolicy policy_;
};

}  // namespace sf
