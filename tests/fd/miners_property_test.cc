// Property-based cross-validation of the two FD miners: on random
// categorical relations, FDEP and TANE must produce exactly the same
// minimal-FD sets, every mined FD must hold, and no mined FD may be
// further reducible. Runs over a parameterized grid of shapes and seeds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "fd/fdep.h"
#include "fd/tane.h"
#include "testing/make_relation.h"

namespace limbo::fd {
namespace {

struct Shape {
  size_t tuples;
  size_t attributes;
  size_t domain;  // values per attribute
  uint64_t seed;
};

relation::Relation RandomRelation(const Shape& shape) {
  return limbo::testing::RandomRelation(shape.tuples, shape.attributes,
                                        shape.domain, shape.seed);
}

class MinerAgreementTest : public ::testing::TestWithParam<Shape> {};

TEST_P(MinerAgreementTest, FdepAndTaneAgree) {
  const relation::Relation rel = RandomRelation(GetParam());
  auto fdep = Fdep::Mine(rel);
  auto tane = Tane::Mine(rel);
  ASSERT_TRUE(fdep.ok());
  ASSERT_TRUE(tane.ok());
  EXPECT_EQ(*fdep, *tane) << "miners disagree on shape: tuples="
                          << GetParam().tuples
                          << " attrs=" << GetParam().attributes
                          << " domain=" << GetParam().domain
                          << " seed=" << GetParam().seed;
}

TEST_P(MinerAgreementTest, MinedFdsHoldAndAreMinimal) {
  const relation::Relation rel = RandomRelation(GetParam());
  auto fds = Tane::Mine(rel);
  ASSERT_TRUE(fds.ok());
  for (const auto& f : *fds) {
    EXPECT_TRUE(Holds(rel, f)) << f.ToString(rel.schema());
    for (relation::AttributeId a : f.lhs.ToList()) {
      EXPECT_FALSE(Holds(rel, {f.lhs.Without(a), f.rhs}))
          << "reducible: " << f.ToString(rel.schema());
    }
  }
}

TEST_P(MinerAgreementTest, MinLhsOneVariantsAgree) {
  const relation::Relation rel = RandomRelation(GetParam());
  FdepOptions fo;
  fo.min_lhs = 1;
  TaneOptions to;
  to.min_lhs = 1;
  auto fdep = Fdep::Mine(rel, fo);
  auto tane = Tane::Mine(rel, to);
  ASSERT_TRUE(fdep.ok());
  ASSERT_TRUE(tane.ok());
  EXPECT_EQ(*fdep, *tane);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MinerAgreementTest,
    ::testing::Values(
        // Small dense domains: many FDs, incl. constants.
        Shape{8, 3, 2, 1}, Shape{8, 3, 2, 2}, Shape{12, 4, 2, 3},
        Shape{12, 4, 3, 4}, Shape{20, 4, 3, 5}, Shape{20, 5, 2, 6},
        // Wider relations.
        Shape{15, 6, 3, 7}, Shape{25, 6, 4, 8}, Shape{30, 7, 3, 9},
        // Near-unique columns: keys and superkey pruning paths.
        Shape{10, 4, 10, 10}, Shape{30, 5, 25, 11}, Shape{40, 5, 40, 12},
        // Degenerate shapes.
        Shape{1, 3, 2, 13}, Shape{2, 2, 1, 14}, Shape{50, 3, 1, 15},
        Shape{6, 8, 2, 16}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n" + std::to_string(info.param.tuples) + "m" +
             std::to_string(info.param.attributes) + "d" +
             std::to_string(info.param.domain) + "s" +
             std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace limbo::fd
