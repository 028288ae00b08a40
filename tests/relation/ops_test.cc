#include "relation/ops.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::relation {
namespace {

using limbo::testing::MakeRelation;
using limbo::testing::RandomRelation;

/// Reference group-by: a std::map from the projected value ids to the
/// group id, groups numbered by their first listed tuple.
RowGroups MapGroups(const Relation& rel,
                    const std::vector<AttributeId>& attributes,
                    const std::vector<TupleId>& tuples) {
  std::map<std::vector<ValueId>, uint32_t> ids;
  RowGroups out;
  for (TupleId t : tuples) {
    std::vector<ValueId> key;
    for (AttributeId a : attributes) key.push_back(rel.At(t, a));
    const auto [it, inserted] =
        ids.emplace(key, static_cast<uint32_t>(out.first.size()));
    if (inserted) {
      out.first.push_back(t);
      out.size.push_back(0);
    }
    ++out.size[it->second];
    out.group.push_back(it->second);
  }
  return out;
}

std::vector<TupleId> AllTuples(const Relation& rel) {
  std::vector<TupleId> all(rel.NumTuples());
  for (TupleId t = 0; t < all.size(); ++t) all[t] = t;
  return all;
}

void ExpectSameGroups(const RowGroups& got, const RowGroups& want) {
  EXPECT_EQ(got.group, want.group);
  EXPECT_EQ(got.first, want.first);
  EXPECT_EQ(got.size, want.size);
  EXPECT_EQ(got.NumGroups(), want.first.size());
}

TEST(ProjectTest, ProjectsColumnsBagSemantics) {
  Relation r = MakeRelation({"A", "B", "C"},
                            {{"1", "x", "p"}, {"2", "x", "q"}, {"1", "y", "p"}});
  auto proj = Project(r, {1});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->NumTuples(), 3u);  // duplicates kept
  EXPECT_EQ(proj->NumAttributes(), 1u);
  EXPECT_EQ(proj->schema().Name(0), "B");
  EXPECT_EQ(proj->TextAt(0, 0), "x");
  EXPECT_EQ(proj->TextAt(2, 0), "y");
}

TEST(ProjectTest, ProjectByNames) {
  Relation r = MakeRelation({"A", "B"}, {{"1", "x"}});
  auto proj = ProjectNames(r, {"B", "A"});
  ASSERT_TRUE(proj.ok());
  EXPECT_EQ(proj->schema().Name(0), "B");
  EXPECT_EQ(proj->schema().Name(1), "A");
  EXPECT_EQ(proj->TextAt(0, 1), "1");
}

TEST(ProjectTest, ErrorsOnBadInput) {
  Relation r = MakeRelation({"A"}, {{"1"}});
  EXPECT_FALSE(Project(r, {}).ok());
  EXPECT_FALSE(Project(r, {5}).ok());
  EXPECT_FALSE(ProjectNames(r, {"nope"}).ok());
}

TEST(DistinctTest, RemovesDuplicateRows) {
  Relation r = MakeRelation({"A", "B"},
                            {{"1", "x"}, {"1", "x"}, {"2", "x"}, {"1", "x"}});
  Relation d = Distinct(r);
  EXPECT_EQ(d.NumTuples(), 2u);
  EXPECT_EQ(d.TextAt(0, 0), "1");
  EXPECT_EQ(d.TextAt(1, 0), "2");
}

TEST(DistinctTest, NoopOnUniqueRows) {
  Relation r = MakeRelation({"A"}, {{"1"}, {"2"}, {"3"}});
  EXPECT_EQ(Distinct(r).NumTuples(), 3u);
}

TEST(CountDistinctProjectedTest, CountsSetSemantics) {
  Relation r = MakeRelation(
      {"A", "B"}, {{"1", "x"}, {"1", "y"}, {"2", "x"}, {"1", "x"}});
  EXPECT_EQ(GroupRows(r, {0}).NumGroups(), 2u);     // {1, 2}
  EXPECT_EQ(GroupRows(r, {1}).NumGroups(), 2u);     // {x, y}
  EXPECT_EQ(GroupRows(r, {0, 1}).NumGroups(), 3u);  // (1,x),(1,y),(2,x)
}

TEST(SelectRowsTest, KeepsRequestedRowsInOrder) {
  Relation r = MakeRelation({"A"}, {{"a"}, {"b"}, {"c"}});
  Relation s = SelectRows(r, {2, 0});
  ASSERT_EQ(s.NumTuples(), 2u);
  EXPECT_EQ(s.TextAt(0, 0), "c");
  EXPECT_EQ(s.TextAt(1, 0), "a");
}

TEST(EquiJoinTest, JoinsAndDropsRightKey) {
  Relation emp = MakeRelation({"Name", "Dept"},
                              {{"ann", "d1"}, {"bob", "d2"}, {"cat", "d1"}});
  Relation dept = MakeRelation({"DeptNo", "DeptName"},
                               {{"d1", "sales"}, {"d2", "eng"}});
  auto joined = EquiJoin(emp, dept, {{"Dept", "DeptNo"}});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumTuples(), 3u);
  EXPECT_EQ(joined->NumAttributes(), 3u);  // Name, Dept, DeptName
  EXPECT_EQ(joined->schema().Name(2), "DeptName");
  EXPECT_EQ(joined->TextAt(0, 2), "sales");
  EXPECT_EQ(joined->TextAt(1, 2), "eng");
}

TEST(EquiJoinTest, OneToManyMultipliesRows) {
  Relation d = MakeRelation({"D"}, {{"d1"}});
  Relation p = MakeRelation({"P", "DeptNo"},
                            {{"p1", "d1"}, {"p2", "d1"}, {"p3", "d2"}});
  auto joined = EquiJoin(d, p, {{"D", "DeptNo"}});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumTuples(), 2u);
}

TEST(EquiJoinTest, NonMatchingRowsDropped) {
  Relation a = MakeRelation({"K", "V"}, {{"1", "x"}, {"9", "y"}});
  Relation b = MakeRelation({"K2", "W"}, {{"1", "w"}});
  auto joined = EquiJoin(a, b, {{"K", "K2"}});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->NumTuples(), 1u);
  EXPECT_EQ(joined->TextAt(0, 1), "x");
}

TEST(EquiJoinTest, NameCollisionGetsSuffix) {
  Relation a = MakeRelation({"K", "V"}, {{"1", "x"}});
  Relation b = MakeRelation({"K2", "V"}, {{"1", "y"}});
  auto joined = EquiJoin(a, b, {{"K", "K2"}});
  ASSERT_TRUE(joined.ok());
  EXPECT_EQ(joined->schema().Name(2), "V_r");
  EXPECT_EQ(joined->TextAt(0, 2), "y");
}

TEST(EquiJoinTest, CompositeKeys) {
  Relation a = MakeRelation({"X", "Y"}, {{"1", "2"}, {"1", "3"}});
  Relation b = MakeRelation({"X2", "Y2", "Z"}, {{"1", "2", "ok"}});
  auto joined = EquiJoin(a, b, {{"X", "X2"}, {"Y", "Y2"}});
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->NumTuples(), 1u);
  EXPECT_EQ(joined->TextAt(0, 2), "ok");
}

TEST(EquiJoinTest, MissingKeyAttributeFails) {
  Relation a = MakeRelation({"A"}, {{"1"}});
  Relation b = MakeRelation({"B"}, {{"1"}});
  EXPECT_FALSE(EquiJoin(a, b, {{"nope", "B"}}).ok());
  EXPECT_FALSE(EquiJoin(a, b, {}).ok());
}

TEST(GroupRowsTest, MatchesMapReferenceOnRandomRelations) {
  // Seeds 1 and 2 give n = 0 and n = 1; every fourth seed draws from a
  // one-symbol alphabet, so all of its rows are equal.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const size_t rows = seed < 3 ? seed - 1 : seed * 3;
    const Relation rel = RandomRelation(rows, 4, 1 + seed % 4, seed);
    // Every attribute subset; the empty one puts all rows in one group.
    for (uint32_t bits = 0; bits < 16; ++bits) {
      std::vector<AttributeId> attributes;
      for (AttributeId a = 0; a < 4; ++a) {
        if (bits & (1u << a)) attributes.push_back(a);
      }
      SCOPED_TRACE(::testing::Message() << "seed " << seed << " bits " << bits);
      ExpectSameGroups(GroupRows(rel, attributes),
                       MapGroups(rel, attributes, AllTuples(rel)));
    }
  }
}

TEST(GroupRowsTest, AllDistinctRowsAreSingletons) {
  const Relation rel =
      MakeRelation({"A", "B"}, {{"1", "x"}, {"2", "x"}, {"1", "y"}});
  const RowGroups groups = GroupRows(rel, {0, 1});
  EXPECT_EQ(groups.group, (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(groups.first, (std::vector<TupleId>{0, 1, 2}));
  EXPECT_EQ(groups.size, (std::vector<uint64_t>{1, 1, 1}));
}

TEST(GroupRowsTest, TupleListOverloadFollowsListOrder) {
  const Relation rel = RandomRelation(40, 3, 3, 11);
  util::Random rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    // A shuffled subset: groups are numbered by their first *listed*
    // tuple, and group[i] belongs to tuples[i].
    std::vector<TupleId> tuples = AllTuples(rel);
    for (size_t i = tuples.size(); i > 1; --i) {
      std::swap(tuples[i - 1], tuples[rng.Uniform(i)]);
    }
    tuples.resize(rng.Uniform(tuples.size() + 1));
    for (const std::vector<AttributeId>& attributes :
         {std::vector<AttributeId>{0}, std::vector<AttributeId>{1, 2},
          std::vector<AttributeId>{}}) {
      ExpectSameGroups(GroupRows(rel, attributes, tuples),
                       MapGroups(rel, attributes, tuples));
    }
  }
}

}  // namespace
}  // namespace limbo::relation
