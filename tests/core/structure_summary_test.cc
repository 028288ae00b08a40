#include "core/structure_summary.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "datagen/db2_sample.h"
#include "datagen/dblp.h"
#include "datagen/error_inject.h"
#include "fd/fdep.h"
#include "fd/tane.h"
#include "testing/make_relation.h"

namespace limbo::core {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::PaperFigure4;

TEST(StructureSummaryTest, PaperExampleEndToEnd) {
  const auto rel = PaperFigure4();
  auto summary = SummarizeStructure(rel, {});
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->profile.tuples, 5u);
  EXPECT_TRUE(summary->has_grouping);
  EXPECT_EQ(summary->values.duplicate_groups.size(), 2u);
  ASSERT_FALSE(summary->ranked_cover.empty());
  // C→B ranks at the top among the anchored FDs.
  const auto& top = summary->ranked_cover.front();
  EXPECT_TRUE(top.anchored);
  EXPECT_TRUE(top.fd.lhs.Contains(2) || top.fd.rhs.Contains(2));
}

TEST(StructureSummaryTest, Db2SampleFindsInjectedDuplicates) {
  auto base = datagen::Db2Sample::JoinedRelation();
  datagen::ErrorInjectionOptions inject;
  inject.num_dirty_tuples = 3;
  inject.values_altered = 1;
  auto dirty = datagen::InjectErrors(*base, inject);
  StructureSummaryOptions options;
  options.phi_t = 0.3;
  auto summary = SummarizeStructure(dirty->dirty, options);
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->duplicates.groups.empty());
  EXPECT_GT(summary->num_fds, 0u);
}

TEST(StructureSummaryTest, GracefulWithoutDuplicateValueGroups) {
  // All-unique relation: no CV_D, no grouping — ranked cover still
  // reports the (unranked) cover.
  const auto rel = MakeRelation(
      {"A", "B"}, {{"1", "x"}, {"2", "y"}, {"3", "z"}, {"4", "w"}});
  auto summary = SummarizeStructure(rel, {});
  ASSERT_TRUE(summary.ok());
  EXPECT_FALSE(summary->has_grouping);
}

TEST(StructureSummaryTest, ToStringMentionsAllSections) {
  const auto rel = PaperFigure4();
  auto summary = SummarizeStructure(rel, {});
  ASSERT_TRUE(summary.ok());
  const std::string text = summary->ToString(rel);
  EXPECT_NE(text.find("Profile"), std::string::npos);
  EXPECT_NE(text.find("Value groups"), std::string::npos);
  EXPECT_NE(text.find("Dependencies"), std::string::npos);
  EXPECT_NE(text.find("dendrogram"), std::string::npos);
}

TEST(StructureSummaryTest, EmptyRelationFails) {
  auto schema = relation::Schema::Create({"A"});
  ASSERT_TRUE(schema.ok());
  relation::RelationBuilder builder(std::move(schema).value());
  EXPECT_FALSE(SummarizeStructure(std::move(builder).Build(), {}).ok());
}

/// DBLP rows tiled up to `n` tuples, plus a constant last column C.
relation::Relation TiledDblpWithConstantColumn(size_t n) {
  datagen::DblpOptions gen;
  gen.target_tuples = 500;
  const relation::Relation base = datagen::GenerateDblp(gen);
  std::vector<std::string> header = base.schema().Names();
  header.push_back("C");
  std::vector<std::vector<std::string>> rows;
  for (size_t t = 0; t < n; ++t) {
    const auto tuple = static_cast<relation::TupleId>(t % base.NumTuples());
    std::vector<std::string> row;
    for (size_t a = 0; a < base.NumAttributes(); ++a) {
      row.push_back(base.TextAt(tuple, static_cast<relation::AttributeId>(a)));
    }
    row.push_back("k");
    rows.push_back(std::move(row));
  }
  return MakeRelation(std::move(header), rows);
}

TEST(StructureSummaryTest, ConstantColumnIsEmptyLhsFdAtEverySize) {
  // An FD's meaning does not depend on the relation's size: either side of
  // the 2,000-tuple Double-Clustering threshold, a constant column C is
  // reported as ∅ → C (not [B] → C for every other B), and TANE returns
  // FDEP's list.
  for (size_t n : {size_t{1999}, size_t{2001}}) {
    SCOPED_TRACE(n);
    const relation::Relation rel = TiledDblpWithConstantColumn(n);
    const auto c = static_cast<relation::AttributeId>(rel.NumAttributes() - 1);
    auto tane = fd::Tane::Mine(rel);
    auto fdep = fd::Fdep::Mine(rel);
    ASSERT_TRUE(tane.ok());
    ASSERT_TRUE(fdep.ok());
    EXPECT_TRUE(*tane == *fdep);

    auto summary = SummarizeStructure(rel, {});
    ASSERT_TRUE(summary.ok());
    bool empty_lhs = false;
    for (const RankedFd& r : summary->ranked_cover) {
      EXPECT_FALSE(r.fd.rhs.Contains(c) && !r.fd.lhs.Empty())
          << r.fd.ToString(rel.schema());
      empty_lhs = empty_lhs || (r.fd.lhs.Empty() && r.fd.rhs.Contains(c));
    }
    EXPECT_TRUE(empty_lhs);
  }
}

}  // namespace
}  // namespace limbo::core
