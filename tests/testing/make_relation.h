#ifndef LIMBO_TESTS_TESTING_MAKE_RELATION_H_
#define LIMBO_TESTS_TESTING_MAKE_RELATION_H_

#include <string>
#include <vector>

#include "relation/relation.h"
#include "util/logging.h"
#include "util/random.h"

namespace limbo::testing {

/// Builds a relation from a header plus rows, aborting on malformed input
/// (tests only).
inline relation::Relation MakeRelation(
    std::vector<std::string> header,
    const std::vector<std::vector<std::string>>& rows) {
  auto schema = relation::Schema::Create(std::move(header));
  LIMBO_CHECK(schema.ok());
  relation::RelationBuilder builder(std::move(schema).value());
  for (const auto& row : rows) {
    LIMBO_CHECK(builder.AddRow(row).ok());
  }
  return std::move(builder).Build();
}

/// Random categorical relation: m attributes named A0..A{m-1}, each value
/// drawn from a per-attribute alphabet of `width` symbols.
inline relation::Relation RandomRelation(size_t rows, size_t m, size_t width,
                                         uint64_t seed) {
  util::Random rng(seed);
  std::vector<std::string> header;
  for (size_t a = 0; a < m; ++a) header.push_back("A" + std::to_string(a));
  std::vector<std::vector<std::string>> data;
  for (size_t t = 0; t < rows; ++t) {
    std::vector<std::string> row;
    for (size_t a = 0; a < m; ++a) {
      row.push_back("v" + std::to_string(rng.Uniform(width)));
    }
    data.push_back(std::move(row));
  }
  return MakeRelation(std::move(header), data);
}

/// The paper's running example relation of Figure 4:
///   A  B  C
///   a  1  p
///   a  1  r
///   w  2  x
///   y  2  x
///   z  2  x
inline relation::Relation PaperFigure4() {
  return MakeRelation({"A", "B", "C"}, {{"a", "1", "p"},
                                        {"a", "1", "r"},
                                        {"w", "2", "x"},
                                        {"y", "2", "x"},
                                        {"z", "2", "x"}});
}

/// Figure 5: same as Figure 4 except C is "x" in the second tuple, which
/// breaks the perfect co-occurrence of {2, x} and makes C → B approximate.
inline relation::Relation PaperFigure5() {
  return MakeRelation({"A", "B", "C"}, {{"a", "1", "p"},
                                        {"a", "1", "x"},
                                        {"w", "2", "x"},
                                        {"y", "2", "x"},
                                        {"z", "2", "x"}});
}

}  // namespace limbo::testing

#endif  // LIMBO_TESTS_TESTING_MAKE_RELATION_H_
