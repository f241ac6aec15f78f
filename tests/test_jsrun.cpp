#include "sim/jsrun.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

TEST(Jsrun, CommandLineFlags) {
  const ResourceSet rs{"workers", 12, 1, 1, 1};
  const std::string cmd = rs.command_line("dask-worker");
  EXPECT_NE(cmd.find("--nrs 12"), std::string::npos);
  EXPECT_NE(cmd.find("--cpu_per_rs 1"), std::string::npos);
  EXPECT_NE(cmd.find("--gpu_per_rs 1"), std::string::npos);
  EXPECT_NE(cmd.find("dask-worker"), std::string::npos);
}

TEST(Jsrun, PaperLayoutMatchesSection33) {
  const LaunchPlan plan = paper_inference_launch(32);
  ASSERT_EQ(plan.sets.size(), 3u);  // scheduler + workers + client
  // Scheduler: one set, two cores, no GPU.
  EXPECT_EQ(plan.sets[0].num_sets, 1);
  EXPECT_EQ(plan.sets[0].cores_per_set, 2);
  EXPECT_EQ(plan.sets[0].gpus_per_set, 0);
  // Workers: one per GPU across 32 nodes = 192 sets of 1 core + 1 GPU.
  EXPECT_EQ(plan.sets[1].num_sets, 192);
  EXPECT_EQ(plan.sets[1].cores_per_set, 1);
  EXPECT_EQ(plan.sets[1].gpus_per_set, 1);
  // Client: one single-core set.
  EXPECT_EQ(plan.sets[2].num_sets, 1);
  EXPECT_EQ(plan.sets[2].gpus_per_set, 0);
}

TEST(Jsrun, PaperLayoutFitsSummit) {
  for (int nodes : {1, 32, 91, 200, 1000}) {
    std::string error;
    EXPECT_TRUE(paper_inference_launch(nodes).fits(summit(), &error)) << error;
  }
}

TEST(Jsrun, OverSubscriptionDetected) {
  LaunchPlan plan = paper_inference_launch(4);
  plan.sets[1].num_sets = 4 * 6 + 1;  // one worker too many for the GPUs
  std::string error;
  EXPECT_FALSE(plan.fits(summit(), &error));
  EXPECT_NE(error.find("GPUs"), std::string::npos);

  LaunchPlan cores = paper_inference_launch(1);
  cores.sets[0].cores_per_set = 10000;
  EXPECT_FALSE(cores.fits(summit(), &error));
  EXPECT_NE(error.find("cores"), std::string::npos);
}

TEST(Jsrun, MachineSizeRespected) {
  LaunchPlan plan = paper_inference_launch(5000);  // > 4600 Summit nodes
  std::string error;
  EXPECT_FALSE(plan.fits(summit(), &error));
}

TEST(Jsrun, NoGpusOnAndes) {
  // The worker layout cannot fit a CPU-only machine.
  const LaunchPlan plan = paper_inference_launch(4);
  EXPECT_FALSE(plan.fits(andes()));
}

TEST(Jsrun, ScriptRendering) {
  const LaunchPlan plan = paper_inference_launch(32);
  const std::string script = plan.lsf_script(summit());
  EXPECT_NE(script.find("#BSUB -nnodes 32"), std::string::npos);
  EXPECT_NE(script.find("dask-scheduler"), std::string::npos);
  EXPECT_NE(script.find("dask-worker"), std::string::npos);
  EXPECT_NE(script.find("run_inference.py"), std::string::npos);
  // Three jsrun statements, first two backgrounded.
  std::size_t count = 0;
  for (std::size_t pos = script.find("jsrun"); pos != std::string::npos;
       pos = script.find("jsrun", pos + 1)) {
    ++count;
  }
  EXPECT_EQ(count, 3u);
}

}  // namespace
}  // namespace sf
