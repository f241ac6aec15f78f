#include "bio/sequence.hpp"

#include <gtest/gtest.h>

namespace sf {
namespace {

TEST(Sequence, BasicAccessors) {
  const Sequence s("id1", "MKT", "a description");
  EXPECT_EQ(s.id(), "id1");
  EXPECT_EQ(s.description(), "a description");
  EXPECT_EQ(s.residues(), "MKT");
  EXPECT_EQ(s.length(), 3u);
  EXPECT_EQ(s[1], 'K');
  EXPECT_FALSE(s.empty());
  EXPECT_TRUE(Sequence().empty());
}

}  // namespace
}  // namespace sf
