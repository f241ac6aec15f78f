#include <gtest/gtest.h>

#include <limits>
#include <set>
#include <sstream>

#include "dataflow/simulated.hpp"
#include "dataflow/stats.hpp"
#include "dataflow/task.hpp"
#include "util/rng.hpp"

namespace sf {
namespace {

std::vector<TaskSpec> make_tasks(int n, std::uint64_t cost_seed = 3) {
  Rng rng(cost_seed);
  std::vector<TaskSpec> tasks;
  for (int i = 0; i < n; ++i) {
    TaskSpec t;
    t.id = static_cast<std::uint64_t>(i);
    t.name = "task" + std::to_string(i);
    t.cost_hint = rng.lognormal(4.0, 0.8);
    t.payload = static_cast<std::size_t>(i);
    tasks.push_back(t);
  }
  return tasks;
}

TEST(TaskOrder, Policies) {
  auto tasks = make_tasks(50);
  apply_order(tasks, TaskOrder::kDescendingCost);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_GE(tasks[i - 1].cost_hint, tasks[i].cost_hint);
  }
  apply_order(tasks, TaskOrder::kAscendingCost);
  for (std::size_t i = 1; i < tasks.size(); ++i) {
    EXPECT_LE(tasks[i - 1].cost_hint, tasks[i].cost_hint);
  }
  auto shuffled = tasks;
  apply_order(shuffled, TaskOrder::kRandom, 5);
  std::multiset<std::uint64_t> a, b;
  for (const auto& t : tasks) a.insert(t.id);
  for (const auto& t : shuffled) b.insert(t.id);
  EXPECT_EQ(a, b);  // permutation
}

TEST(TaskPacking, RoundTrip) {
  static_assert(pack_task(0, 0) == 0);
  static_assert(pack_task(3, 2) == 3 * kModelsPerRecordStride + 2);
  for (std::size_t record : {0u, 1u, 41u, 25134u}) {
    for (std::size_t model = 0; model < 5; ++model) {
      const PackedTask p = unpack_task(pack_task(record, model));
      EXPECT_EQ(p.record, record);
      EXPECT_EQ(p.model, model);
    }
  }
}

TEST(TaskPacking, ExhaustiveRoundTripOverStride) {
  // Every (record, model) pair in a proteome-sized range round-trips,
  // for every model slot the stride reserves -- not just the 5 shipped.
  for (std::size_t record = 0; record < 512; ++record) {
    for (std::size_t model = 0; model < kModelsPerRecordStride; ++model) {
      const std::size_t payload = pack_task(record, model);
      const PackedTask p = unpack_task(payload);
      ASSERT_EQ(p.record, record) << payload;
      ASSERT_EQ(p.model, model) << payload;
    }
  }
}

TEST(TaskPacking, MaxIndicesDoNotOverflow) {
  // The paper's largest campaign is 35,634 targets; the packing must
  // hold far beyond that, up to the size_t ceiling of the stride.
  const std::size_t max_record = std::numeric_limits<std::size_t>::max() / kModelsPerRecordStride;
  for (const std::size_t record : {std::size_t{35633}, std::size_t{1u << 20}, max_record - 1}) {
    for (const std::size_t model : {std::size_t{0}, kModelsPerRecordStride - 1}) {
      const PackedTask p = unpack_task(pack_task(record, model));
      EXPECT_EQ(p.record, record);
      EXPECT_EQ(p.model, model);
    }
  }
  // Packing stays strictly monotone in (record, model), so task ids
  // derived from payloads never collide.
  EXPECT_LT(pack_task(max_record - 1, kModelsPerRecordStride - 1),
            std::numeric_limits<std::size_t>::max());
}

TEST(TaskPacking, StrideLeavesRoomForEightModels) {
  // Adjacent records never collide, up to the stride's model capacity.
  EXPECT_EQ(unpack_task(pack_task(7, kModelsPerRecordStride - 1)).record, 7u);
  EXPECT_EQ(unpack_task(pack_task(8, 0)).record, 8u);
  EXPECT_LT(pack_task(7, kModelsPerRecordStride - 1), pack_task(8, 0));
}

TEST(SimulatedDataflow, EveryTaskRunsExactlyOnce) {
  const auto tasks = make_tasks(200);
  SimulatedDataflowParams params;
  params.workers = 16;
  const auto res = run_simulated_dataflow(
      tasks, [](const TaskSpec& t) { return t.cost_hint; }, params);
  ASSERT_EQ(res.records.size(), tasks.size());
  std::set<std::uint64_t> seen;
  for (const auto& r : res.records) seen.insert(r.task_id);
  EXPECT_EQ(seen.size(), tasks.size());
}

TEST(SimulatedDataflow, NoWorkerOverlapsItself) {
  const auto tasks = make_tasks(100);
  SimulatedDataflowParams params;
  params.workers = 4;
  const auto res = run_simulated_dataflow(
      tasks, [](const TaskSpec& t) { return t.cost_hint; }, params);
  // Group records by worker and check intervals are disjoint.
  for (int w = 0; w < params.workers; ++w) {
    std::vector<std::pair<double, double>> spans;
    for (const auto& r : res.records) {
      if (r.worker == w) spans.emplace_back(r.start_s, r.end_s);
    }
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      EXPECT_GE(spans[i].first, spans[i - 1].second - 1e-9);
    }
  }
}

TEST(SimulatedDataflow, MakespanBounds) {
  const auto tasks = make_tasks(120);
  double total = 0.0;
  double longest = 0.0;
  for (const auto& t : tasks) {
    total += t.cost_hint;
    longest = std::max(longest, t.cost_hint);
  }
  SimulatedDataflowParams params;
  params.workers = 8;
  params.dispatch_overhead_s = 0.0;
  params.startup_s = 0.0;
  const auto res = run_simulated_dataflow(
      tasks, [](const TaskSpec& t) { return t.cost_hint; }, params);
  EXPECT_GE(res.makespan_s, total / 8.0 - 1e-9);  // perfect-split lower bound
  EXPECT_GE(res.makespan_s, longest);
  EXPECT_LE(res.makespan_s, total);  // never worse than serial
}

TEST(SimulatedDataflow, SortedBeatsRandomOnHeterogeneousTasks) {
  // The paper's §3.3 justification: random order can strand a long task
  // at the end; descending sort bounds the tail (Fig. 2).
  auto sorted = make_tasks(300, 11);
  auto random = sorted;
  apply_order(sorted, TaskOrder::kDescendingCost);
  apply_order(random, TaskOrder::kRandom, 1234);
  SimulatedDataflowParams params;
  params.workers = 24;
  params.startup_s = 0.0;
  auto dur = [](const TaskSpec& t) { return t.cost_hint; };
  const auto res_sorted = run_simulated_dataflow(sorted, dur, params);
  const auto res_random = run_simulated_dataflow(random, dur, params);
  EXPECT_LE(res_sorted.makespan_s, res_random.makespan_s + 1e-9);
  EXPECT_LE(res_sorted.finish_spread_s(), res_random.finish_spread_s() + 1e-9);
}

TEST(SimulatedDataflow, UtilizationAndSpreadSane) {
  auto tasks = make_tasks(400);
  apply_order(tasks, TaskOrder::kDescendingCost);
  SimulatedDataflowParams params;
  params.workers = 10;
  const auto res = run_simulated_dataflow(
      tasks, [](const TaskSpec& t) { return t.cost_hint; }, params);
  EXPECT_GT(res.mean_utilization(), 0.8);
  EXPECT_LE(res.mean_utilization(), 1.0 + 1e-9);
  // All workers finish within a small fraction of the makespan.
  EXPECT_LT(res.finish_spread_s(), 0.25 * res.makespan_s);
  EXPECT_EQ(res.worker_task_count.size(), 10u);
}

TEST(SimulatedDataflow, HeterogeneousWorkerSpeeds) {
  const auto tasks = make_tasks(100);
  SimulatedDataflowParams params;
  params.workers = 2;
  params.worker_speed = {1.0, 4.0};
  const auto res = run_simulated_dataflow(
      tasks, [](const TaskSpec& t) { return t.cost_hint; }, params);
  // The fast worker should complete far more tasks.
  EXPECT_GT(res.worker_task_count[1], res.worker_task_count[0] * 2);
}

TEST(SimulatedDataflow, InvalidParamsThrow) {
  SimulatedDataflowParams bad;
  bad.workers = 0;
  EXPECT_THROW(
      run_simulated_dataflow({}, [](const TaskSpec&) { return 1.0; }, bad),
      std::invalid_argument);
  SimulatedDataflowParams mismatch;
  mismatch.workers = 3;
  mismatch.worker_speed = {1.0};
  EXPECT_THROW(
      run_simulated_dataflow({}, [](const TaskSpec&) { return 1.0; }, mismatch),
      std::invalid_argument);
}

TEST(SimulatedDataflow, MoreWorkersThanTasks) {
  const auto tasks = make_tasks(3);
  SimulatedDataflowParams params;
  params.workers = 10;
  const auto res = run_simulated_dataflow(
      tasks, [](const TaskSpec& t) { return t.cost_hint; }, params);
  EXPECT_EQ(res.records.size(), 3u);
  EXPECT_EQ(res.finish_spread_s(), res.finish_spread_s());  // finite
}

TEST(TaskStats, CsvGoldenLayout) {
  // Golden-file lock on the recorder's exact byte layout: header order,
  // row order (as recorded, not sorted), comma escaping, and default
  // float formatting (6 significant digits, scientific past 1e6). Any
  // deviation breaks downstream notebooks parsing campaign CSVs.
  const std::vector<TaskRecord> records{
      {7, "dv_00042/model3", 11, 0.0, 90.125},
      {8, "name,with,commas", 2, 1.5, 2.25},
      {9, "plain", 0, 1234567.0, 0.000125},
      {3, "out_of_order_id_kept_in_place", 1, 10.0, 20.5},
  };
  std::ostringstream out;
  write_task_stats_csv(out, records);
  const std::string golden =
      "task_id,name,worker,start_s,end_s\n"
      "7,dv_00042/model3,11,0,90.125\n"
      "8,\"name,with,commas\",2,1.5,2.25\n"
      "9,plain,0,1.23457e+06,0.000125\n"
      "3,out_of_order_id_kept_in_place,1,10,20.5\n";
  EXPECT_EQ(out.str(), golden);
}

}  // namespace
}  // namespace sf
