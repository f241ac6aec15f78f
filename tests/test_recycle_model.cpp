#include "core/recycle_model.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

TEST(RecycleModel, SamplesFromMatchingBin) {
  RecycleModel model;
  // Easy short targets converge at 3; hard long ones at 20.
  for (int i = 0; i < 20; ++i) model.observe(0.1, 100, 3, true);
  for (int i = 0; i < 20; ++i) model.observe(0.9, 800, 20, false);

  Rng rng(1);
  const auto easy = model.sample(0.1, 100, rng);
  EXPECT_EQ(easy.recycles_run, 3);
  EXPECT_TRUE(easy.converged);
  const auto hard = model.sample(0.9, 800, rng);
  EXPECT_EQ(hard.recycles_run, 20);
  EXPECT_FALSE(hard.converged);
}

TEST(RecycleModel, FallsBackToNearestBin) {
  RecycleModel model;
  model.observe(0.1, 100, 5, true);
  Rng rng(2);
  // No observation at hardness 0.9 / same length class: falls back.
  const auto draw = model.sample(0.9, 100, rng);
  EXPECT_EQ(draw.recycles_run, 5);
}

TEST(RecycleModel, GlobalFallback) {
  RecycleModel model;
  model.observe(0.5, 400, 7, true);
  Rng rng(3);
  // Different length class entirely: global pool serves.
  const auto draw = model.sample(0.5, 2000, rng);
  EXPECT_EQ(draw.recycles_run, 7);
}

TEST(RecycleModel, EmptyModelReturnsDefault) {
  RecycleModel model;
  Rng rng(4);
  const auto draw = model.sample(0.5, 300, rng);
  EXPECT_EQ(draw.recycles_run, 3);  // documented default
  EXPECT_TRUE(draw.converged);
}

TEST(RecycleModel, SamplingIsDeterministicInRng) {
  RecycleModel model;
  for (int r = 3; r <= 12; ++r) model.observe(0.4, 300, r, true);
  Rng a(7), b(7);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(model.sample(0.4, 300, a).recycles_run, model.sample(0.4, 300, b).recycles_run);
  }
}

TEST(RecycleModel, PreservesDistribution) {
  RecycleModel model;
  // 75% of observations at 3, 25% at 20.
  for (int i = 0; i < 75; ++i) model.observe(0.5, 300, 3, true);
  for (int i = 0; i < 25; ++i) model.observe(0.5, 300, 20, false);
  Rng rng(9);
  int high = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    if (model.sample(0.5, 300, rng).recycles_run == 20) ++high;
  }
  EXPECT_NEAR(static_cast<double>(high) / n, 0.25, 0.03);
}

}  // namespace
}  // namespace sf
