#include "fold/presets.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

TEST(Presets, PaperConfigurations) {
  const PresetConfig rd = preset_reduced_db();
  EXPECT_EQ(rd.ensembles, 1);
  EXPECT_EQ(rd.max_recycles, 3);
  EXPECT_FALSE(rd.dynamic_recycling);

  const PresetConfig c14 = preset_casp14();
  EXPECT_EQ(c14.ensembles, 8);  // ~8x compute (§3.2.2)
  EXPECT_EQ(c14.max_recycles, 3);

  const PresetConfig g = preset_genome();
  EXPECT_TRUE(g.dynamic_recycling);
  EXPECT_DOUBLE_EQ(g.convergence_tol_A, 0.5);
  EXPECT_EQ(g.max_recycles, 20);
  EXPECT_EQ(g.min_recycles, 6);

  const PresetConfig s = preset_super();
  EXPECT_DOUBLE_EQ(s.convergence_tol_A, 0.1);
  EXPECT_EQ(s.max_recycles, 20);
}

TEST(Presets, RecycleCapDecay) {
  const PresetConfig g = preset_genome();
  // Short sequences keep the full cap.
  EXPECT_EQ(effective_max_recycles(g, 100), 20);
  EXPECT_EQ(effective_max_recycles(g, 500), 20);
  // Decays progressively past 500 AA (§3.2.2)...
  EXPECT_LT(effective_max_recycles(g, 1000), 20);
  EXPECT_GT(effective_max_recycles(g, 1000), 6);
  // ... down to the floor of 6 for the longest targets.
  EXPECT_EQ(effective_max_recycles(g, 2400), 6);
  // Monotone non-increasing in length.
  int prev = 21;
  for (int len = 100; len <= 2500; len += 100) {
    const int cap = effective_max_recycles(g, len);
    EXPECT_LE(cap, prev);
    prev = cap;
  }
}

TEST(Presets, FixedPresetsIgnoreLength) {
  EXPECT_EQ(effective_max_recycles(preset_reduced_db(), 2500), 3);
  EXPECT_EQ(effective_max_recycles(preset_casp14(), 2500), 3);
}

}  // namespace
}  // namespace sf
