#include "util/string_util.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

TEST(StringUtil, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringUtil, SplitNoDelimiter) {
  const auto parts = split("abc", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "abc");
}

TEST(StringUtil, SplitEmpty) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringUtil, Format) { EXPECT_EQ(format("%d-%s", 7, "x"), "7-x"); }

TEST(StringUtil, HumanDuration) {
  EXPECT_EQ(human_duration(5.2), "5.2s");
  EXPECT_EQ(human_duration(65.0), "1m 05s");
  EXPECT_EQ(human_duration(3725.0), "1h 02m 05s");
  EXPECT_EQ(human_duration(-3.0), "0.0s");
}

TEST(StringUtil, HumanBytes) {
  EXPECT_EQ(human_bytes(512), "512.00 B");
  EXPECT_EQ(human_bytes(2048), "2.00 KB");
  EXPECT_EQ(human_bytes(2.1 * 1024.0 * 1024.0 * 1024.0 * 1024.0), "2.10 TB");
}

TEST(StringUtil, ParseCanonicalRealTakesOnlyThePercent17gSpelling) {
  double v = 0.0;
  EXPECT_TRUE(parse_canonical_real("1", v));
  EXPECT_EQ(v, 1.0);
  EXPECT_TRUE(parse_canonical_real("0.10000000000000001", v));
  EXPECT_EQ(v, 0.1);
  for (const char* bad : {"1.0", "1e0", "+1", "0.1", " 1", "1 ", "", "-"}) {
    v = 7.0;
    EXPECT_FALSE(parse_canonical_real(bad, v)) << bad;
    EXPECT_EQ(v, 7.0) << bad;
  }
}

enum class Shade { kLight, kDark };
constexpr const char* kShadeNames[] = {"light", "dark"};

TEST(StringUtil, EnumNamesComeFromOneTable) {
  EXPECT_STREQ(enum_name(kShadeNames, Shade::kDark), "dark");
  EXPECT_STREQ(enum_name(kShadeNames, static_cast<Shade>(2)), "?");
  Shade s = Shade::kLight;
  EXPECT_TRUE(enum_from_name("dark", kShadeNames, s));
  EXPECT_EQ(s, Shade::kDark);
  EXPECT_FALSE(enum_from_name("Dark", kShadeNames, s));
  EXPECT_FALSE(enum_from_name("", kShadeNames, s));
  EXPECT_EQ(s, Shade::kDark);
}

}  // namespace
}  // namespace sf
