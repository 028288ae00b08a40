// Robustness: ParseCsv must never crash or hang on arbitrary byte soup —
// it either returns a relation or a clean error Status. A light,
// deterministic fuzz driven by the repo PRNG.

#include <gtest/gtest.h>

#include <string>

#include "relation/csv_io.h"
#include "util/random.h"

namespace limbo::relation {
namespace {

TEST(CsvFuzzTest, ArbitraryBytesNeverCrash) {
  util::Random rng(20260705);
  const char alphabet[] = {'a', ',', '"', '\n', '\r', '\\', '\0',
                           ' ', '\t', 'Z', '9', ';', '\'', '\x7f'};
  for (int round = 0; round < 500; ++round) {
    const size_t length = rng.Uniform(120);
    std::string content;
    for (size_t i = 0; i < length; ++i) {
      content += alphabet[rng.Uniform(sizeof(alphabet))];
    }
    auto result = ParseCsv(content);
    if (result.ok()) {
      // Parsed relations must be internally consistent and re-serializable.
      const std::string echoed = ToCsvString(*result);
      auto again = ParseCsv(echoed);
      ASSERT_TRUE(again.ok()) << "re-parse failed on round " << round;
      EXPECT_EQ(again->NumTuples(), result->NumTuples());
      EXPECT_EQ(again->NumAttributes(), result->NumAttributes());
    } else {
      EXPECT_FALSE(result.status().message().empty());
    }
  }
}

TEST(CsvFuzzTest, DeepQuotingNesting) {
  std::string content = "A\n";
  for (int i = 0; i < 200; ++i) content += '"';
  content += '\n';
  auto result = ParseCsv(content);
  // Either outcome is fine; it must simply terminate.
  if (result.ok()) {
    EXPECT_GE(result->NumTuples(), 0u);
  }
}

TEST(CsvFuzzTest, VeryWideRow) {
  std::string header = "c0";
  std::string row = "v";
  for (int i = 1; i < 64; ++i) {
    header += ",c" + std::to_string(i);
    row += ",v";
  }
  auto result = ParseCsv(header + "\n" + row + "\n");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->NumAttributes(), 64u);
  // 65 columns exceeds the bitset limit and must fail cleanly.
  auto too_wide = ParseCsv(header + ",c64\n" + row + ",v\n");
  EXPECT_FALSE(too_wide.ok());
}

}  // namespace
}  // namespace limbo::relation
