#include "util/csv.hpp"

#include <gtest/gtest.h>

#include <sstream>

namespace sf {
namespace {

TEST(Csv, WritesSimpleRows) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.header({"a", "b", "c"});
  csv.row(1, 2.5, "x");
  EXPECT_EQ(out.str(), "a,b,c\n1,2.5,x\n");
}

TEST(Csv, EscapesSpecialCharacters) {
  std::ostringstream out;
  CsvWriter csv(out);
  csv.row("has,comma", "has\"quote", "plain");
  EXPECT_EQ(out.str(), "\"has,comma\",\"has\"\"quote\",plain\n");
}

}  // namespace
}  // namespace sf
