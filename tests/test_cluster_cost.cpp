#include <gtest/gtest.h>

#include "fold/engine.hpp"
#include "sim/cluster.hpp"
#include "sim/cost_model.hpp"

namespace sf {
namespace {

TEST(Cluster, PaperSpecs) {
  const MachineSpec s = summit();
  EXPECT_EQ(s.nodes, 4600);          // ~4,600 AC922 nodes
  EXPECT_EQ(s.gpus_per_node, 6);     // 6x V100
  EXPECT_EQ(s.total_gpus(), 27600);
  EXPECT_DOUBLE_EQ(s.gpu_mem_gb, 16.0);
  EXPECT_GT(s.highmem_nodes, 0);
  EXPECT_DOUBLE_EQ(s.highmem_node_mem_gb, 2048.0);  // 2 TB DDR4

  const MachineSpec a = andes();
  EXPECT_EQ(a.nodes, 704);
  EXPECT_EQ(a.cores_per_node, 32);  // 2x 16-core EPYC 7302
  EXPECT_EQ(a.gpus_per_node, 0);
}

TEST(Cluster, NodeHours) {
  EXPECT_DOUBLE_EQ(node_hours(32, 3600.0), 32.0);
  EXPECT_DOUBLE_EQ(node_hours(1000, 1800.0), 500.0);
  EXPECT_DOUBLE_EQ(node_hours(0, 1e9), 0.0);
}

TEST(InferenceCost, ScalesWithEverything) {
  const InferenceCostModel m;
  // Length (superlinear: attention is quadratic).
  const double t200 = m.task_seconds(200, 4, 1);
  const double t400 = m.task_seconds(400, 4, 1);
  const double t800 = m.task_seconds(800, 4, 1);
  EXPECT_GT(t400, t200);
  EXPECT_GT(t800 - t400, t400 - t200);  // convex in length
  // Recycles.
  EXPECT_GT(m.task_seconds(200, 8, 1), m.task_seconds(200, 4, 1));
  // Ensembles: casp14's 8 ensembles cost ~8x the compute.
  const double e1 = m.task_seconds(300, 4, 1) - m.task_overhead_s;
  const double e8 = m.task_seconds(300, 4, 8) - m.task_overhead_s;
  EXPECT_NEAR(e8 / e1, 8.0, 1e-9);
  // Faster GPU -> less time.
  EXPECT_LT(m.task_seconds(300, 4, 1, 2.0), m.task_seconds(300, 4, 1, 1.0));
}

TEST(InferenceCost, CalibrationBallpark) {
  // Table 1 anchor: 559 seqs x 5 models, reduced_db (4 passes) on 192
  // GPUs took 44 min. Mean task for a 202-AA sequence should be a few
  // hundred GPU-seconds.
  const InferenceCostModel m;
  const double t = m.task_seconds(202, 4, 1);
  EXPECT_GT(t, 100.0);
  EXPECT_LT(t, 500.0);
}

TEST(InferenceCost, PredictionSecondsUsesTrace) {
  const InferenceCostModel m;
  Prediction p;
  p.trace.recycles_run = 3;
  p.ensembles = 1;
  EXPECT_DOUBLE_EQ(m.prediction_seconds(p, 200), m.task_seconds(200, 4, 1));
}

TEST(FeatureCost, FullLibraryCostsMore) {
  const FeatureCostModel m;
  EXPECT_GT(m.task_seconds(300, true), m.task_seconds(300, false));
  EXPECT_NEAR(m.task_seconds(300, true) / m.task_seconds(300, false),
              m.full_library_factor, 0.01);
}

TEST(FeatureCost, IoSlowdownDilatesOnlyIoShare) {
  const FeatureCostModel m;
  const double base = m.task_seconds(300, false, 1.0);
  const double slow = m.task_seconds(300, false, 10.0);
  // Only the io_fraction share dilates 10x.
  EXPECT_NEAR(slow / base, (1.0 - m.io_fraction) + m.io_fraction * 10.0, 1e-9);
}

TEST(FeatureCost, CalibrationBallpark) {
  // §4.1 anchor: 3,205 proteins (mean 328 AA) took ~240 Andes node-hours
  // -> ~270 node-seconds per protein with the reduced library.
  const FeatureCostModel m;
  EXPECT_NEAR(m.task_seconds(328, false), 270.0, 90.0);
}

}  // namespace
}  // namespace sf
