// Report rendering and dataflow-CSV file round trips (the artifacts the
// paper's client leaves behind).
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/report.hpp"
#include "dataflow/stats.hpp"
#include "scratch_dir.hpp"

namespace sf {
namespace {

TEST(Report, StageLineContainsEveryField) {
  StageReport st;
  st.name = "inference";
  st.wall_s = 3725.0;
  st.node_hours = 123.4;
  st.nodes = 32;
  st.tasks = 2795;
  st.mean_utilization = 0.876;
  st.finish_spread_s = 95.0;
  std::ostringstream out;
  print_stage(out, st);
  const std::string line = out.str();
  EXPECT_NE(line.find("inference"), std::string::npos);
  EXPECT_NE(line.find("1h 02m 05s"), std::string::npos);
  EXPECT_NE(line.find("123.4"), std::string::npos);
  EXPECT_NE(line.find("2795"), std::string::npos);
  EXPECT_NE(line.find("87.6%"), std::string::npos);
}

TEST(Report, FailedTasksOnlyWhenPresent) {
  StageReport st;
  st.name = "x";
  std::ostringstream clean;
  print_stage(clean, st);
  EXPECT_EQ(clean.str().find("failed"), std::string::npos);
  st.failed_tasks = 8;
  std::ostringstream failed;
  print_stage(failed, st);
  EXPECT_NE(failed.str().find("failed 8"), std::string::npos);
}

TEST(TaskStatsFile, FileHoldsTheStreamBytes) {
  // write_task_stats_csv's byte layout is pinned by test_dataflow's
  // CsvGoldenLayout; the file writer must store exactly those bytes.
  const std::string path = test_scratch_dir() + "sf_task_stats.csv";
  std::vector<TaskRecord> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back({static_cast<std::uint64_t>(i), "target" + std::to_string(i) + "/m1",
                       i % 6, i * 1.5, i * 1.5 + 42.0});
  }
  write_task_stats_csv_file(path, records);
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good());
  std::ostringstream bytes;
  bytes << in.rdbuf();
  std::ostringstream want;
  write_task_stats_csv(want, records);
  EXPECT_EQ(bytes.str(), want.str());
  EXPECT_EQ(want.str().rfind("task_id,name,worker,start_s,end_s\n0,target0/m1,0,0,42\n", 0), 0u);
}

TEST(TaskStatsFile, UnwritablePathThrows) {
  EXPECT_THROW(write_task_stats_csv_file("/nonexistent/dir/x.csv", {}), std::runtime_error);
}

}  // namespace
}  // namespace sf
