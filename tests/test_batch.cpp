#include "sim/batch.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

// Latest end time of a schedule.
double makespan(const std::vector<ScheduledJob>& schedule) {
  double m = 0.0;
  for (const auto& s : schedule) m = std::max(m, s.end_s);
  return m;
}

TEST(Batch, SingleJobRunsImmediately) {
  BatchScheduler sched(10, QueuePolicy::kFcfs);
  const auto out = sched.schedule({{"j", 4, 100.0, 0.0}});
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(out[0].end_s, 100.0);
  EXPECT_DOUBLE_EQ(out[0].queue_wait_s(), 0.0);
}

TEST(Batch, CapacityIsNeverExceeded) {
  BatchScheduler sched(10, QueuePolicy::kFcfs);
  std::vector<BatchJob> jobs;
  for (int i = 0; i < 8; ++i) jobs.push_back({"j", 4, 50.0, 0.0});
  const auto out = sched.schedule(jobs);
  // Verify concurrent node usage at every event boundary.
  for (const auto& probe : out) {
    const double t = probe.start_s + 1e-6;
    int used = 0;
    for (const auto& s : out) {
      if (s.start_s <= t && t < s.end_s) used += s.job.nodes;
    }
    EXPECT_LE(used, 10);
  }
  // 2 jobs fit at a time -> 4 waves of 50s.
  EXPECT_DOUBLE_EQ(makespan(out), 200.0);
}

TEST(Batch, FcfsOrderPreserved) {
  BatchScheduler sched(4, QueuePolicy::kFcfs);
  const auto out = sched.schedule({{"a", 4, 10.0, 0.0}, {"b", 4, 10.0, 0.0}});
  EXPECT_LT(out[0].start_s, out[1].start_s);
}

TEST(Batch, LargeJobPriorityReordersQueue) {
  // Summit-style: the 8-node job jumps ahead of earlier small jobs.
  BatchScheduler sched(8, QueuePolicy::kLargeJobPriority);
  const auto out = sched.schedule({
      {"small1", 1, 100.0, 0.0},
      {"small2", 1, 100.0, 0.0},
      {"big", 8, 50.0, 0.0},
  });
  EXPECT_DOUBLE_EQ(out[2].start_s, 0.0);   // big first
  EXPECT_GE(out[0].start_s, 50.0);
  EXPECT_GE(out[1].start_s, 50.0);
}

TEST(Batch, SmallJobPriorityIsOpposite) {
  BatchScheduler sched(8, QueuePolicy::kSmallJobPriority);
  const auto out = sched.schedule({
      {"big", 8, 50.0, 0.0},
      {"small", 1, 100.0, 0.0},
  });
  EXPECT_DOUBLE_EQ(out[1].start_s, 0.0);  // small first
  EXPECT_DOUBLE_EQ(out[0].start_s, 100.0);
}

TEST(Batch, BackfillFillsGaps) {
  // 6-node machine: a 4-node job runs; a queued 4-node job must wait, but
  // a 2-node job can backfill immediately.
  BatchScheduler sched(6, QueuePolicy::kFcfs);
  const auto out = sched.schedule({
      {"first", 4, 100.0, 0.0},
      {"blocked", 4, 10.0, 0.0},
      {"filler", 2, 10.0, 0.0},
  });
  EXPECT_DOUBLE_EQ(out[0].start_s, 0.0);
  EXPECT_DOUBLE_EQ(out[2].start_s, 0.0);    // backfilled
  EXPECT_GE(out[1].start_s, 100.0);
}

TEST(Batch, LateSubmissionsWait) {
  BatchScheduler sched(4, QueuePolicy::kFcfs);
  const auto out = sched.schedule({{"late", 2, 10.0, 500.0}});
  EXPECT_DOUBLE_EQ(out[0].start_s, 500.0);
}

TEST(Batch, OversizedJobRejected) {
  BatchScheduler sched(4, QueuePolicy::kFcfs);
  const auto out = sched.schedule({{"too_big", 8, 10.0, 0.0}, {"fits", 2, 10.0, 0.0}});
  EXPECT_DOUBLE_EQ(out[0].end_s, out[0].start_s);  // rejected: zero runtime
  EXPECT_DOUBLE_EQ(out[1].end_s, 10.0);
}

TEST(Batch, AndesVsSummitWallTimeStory) {
  // §5: feature generation on Andes used fewer node-hours than inference
  // on Summit but took longer wall time, because the machine is smaller
  // and the queue favors small jobs. Reproduce with a crowded small
  // machine vs a large machine.
  std::vector<BatchJob> feature_jobs;
  for (int i = 0; i < 24; ++i) feature_jobs.push_back({"feat", 4, 3600.0, 0.0});
  std::vector<BatchJob> inference_jobs{{"infer", 32 * 4, 3600.0, 0.0}};

  // Competing background load on the small machine.
  std::vector<BatchJob> andes_queue = feature_jobs;
  for (int i = 0; i < 30; ++i) andes_queue.push_back({"other", 8, 7200.0, 0.0});

  BatchScheduler andes_sched(60, QueuePolicy::kSmallJobPriority);
  BatchScheduler summit_sched(4600, QueuePolicy::kLargeJobPriority);
  const auto andes_out = andes_sched.schedule(andes_queue);
  const auto summit_out = summit_sched.schedule(inference_jobs);
  double feature_makespan = 0.0;
  double feature_node_s = 0.0;
  for (const auto& s : andes_out) {
    if (s.job.name == "feat") {
      feature_makespan = std::max(feature_makespan, s.end_s);
      feature_node_s += s.job.nodes * (s.end_s - s.start_s);
    }
  }
  const double inference_makespan = makespan(summit_out);
  double inference_node_s = 0.0;
  for (const auto& s : summit_out) inference_node_s += s.job.nodes * (s.end_s - s.start_s);
  EXPECT_GT(feature_makespan, inference_makespan);  // longer wall
  EXPECT_LT(feature_node_s, inference_node_s);      // fewer node-seconds
}

}  // namespace
}  // namespace sf
