#include "util/strings.h"

#include <gtest/gtest.h>

namespace limbo::util {
namespace {

TEST(SplitTest, BasicSplit) {
  EXPECT_EQ(Split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,c", ','), (std::vector<std::string>{"a", "", "c"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(SplitTest, NoDelimiterYieldsWholeString) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(TrimTest, TrimsAllWhitespaceKinds) {
  EXPECT_EQ(Trim("  x  "), "x");
  EXPECT_EQ(Trim("\t\r\n y z \n"), "y z");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("no-trim"), "no-trim");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.3f", 1.5), "1.500");
  EXPECT_EQ(StrFormat("%s", ""), "");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(5000, 'q');
  EXPECT_EQ(StrFormat("%s!", long_arg.c_str()).size(), 5001u);
}

TEST(ParseRealTest, AcceptsOneFiniteNumber) {
  double v = -1.0;
  EXPECT_TRUE(ParseReal("0.5", &v));
  EXPECT_EQ(v, 0.5);
  EXPECT_TRUE(ParseReal("-2", &v));
  EXPECT_EQ(v, -2.0);
  EXPECT_TRUE(ParseReal("1e3", &v));
  EXPECT_EQ(v, 1000.0);
}

TEST(ParseRealTest, RejectsGarbageAndLeavesOutputAlone) {
  double v = 7.0;
  for (const char* bad : {"", "abc", "1.5x", " 1", "1 ", "inf", "nan",
                          "1e999"}) {
    EXPECT_FALSE(ParseReal(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 7.0);
}

TEST(ParseSizeTest, AcceptsDigitsUpToNineteen) {
  size_t v = 1;
  EXPECT_TRUE(ParseSize("0", &v));
  EXPECT_EQ(v, 0u);
  EXPECT_TRUE(ParseSize("2000", &v));
  EXPECT_EQ(v, 2000u);
  EXPECT_TRUE(ParseSize("9999999999999999999", &v));
  EXPECT_EQ(v, 9999999999999999999ull);
}

TEST(ParseSizeTest, RejectsSignsExponentsAndOverlongInput) {
  size_t v = 7;
  for (const char* bad : {"", "-1", "+1", "1e3", "1.0", "abc", " 1", "12a",
                          "10000000000000000000"}) {
    EXPECT_FALSE(ParseSize(bad, &v)) << bad;
  }
  EXPECT_EQ(v, 7u);
}

}  // namespace
}  // namespace limbo::util
