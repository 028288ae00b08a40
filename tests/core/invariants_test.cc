// Property-based invariants of the information-theoretic core, swept over
// seeds and φ values with parameterized tests:
//  - cumulative AIB loss down to one cluster equals I(V;T),
//  - Phase-1 conserves probability mass and never creates information,
//  - leaf count is (weakly) monotone decreasing in φ,
//  - RAD/RTR are monotone under attribute-set inclusion.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/aib.h"
#include "core/info.h"
#include "core/limbo.h"
#include "core/measures.h"
#include "testing/make_relation.h"
#include "util/random.h"

namespace limbo::core {
namespace {

std::vector<Dcf> RandomObjects(size_t n, size_t domain, uint64_t seed) {
  util::Random rng(seed);
  std::vector<Dcf> objects;
  for (size_t i = 0; i < n; ++i) {
    std::vector<uint32_t> support;
    const size_t width = 2 + rng.Uniform(4);
    while (support.size() < width) {
      const auto id = static_cast<uint32_t>(rng.Uniform(domain));
      if (std::find(support.begin(), support.end(), id) == support.end()) {
        support.push_back(id);
      }
    }
    Dcf d;
    d.p = 1.0 / static_cast<double>(n);
    d.cond = SparseDistribution::UniformOver(support);
    objects.push_back(std::move(d));
  }
  return objects;
}

double TotalInformation(const std::vector<Dcf>& objects) {
  WeightedRows rows;
  for (const Dcf& o : objects) {
    rows.weights.push_back(o.p);
    rows.rows.push_back(o.cond);
  }
  return MutualInformation(rows);
}

class SeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweep, AibTotalLossEqualsMutualInformation) {
  const auto objects = RandomObjects(40, 25, GetParam());
  auto result = AgglomerativeIb(objects);
  ASSERT_TRUE(result.ok());
  const double total_loss = result->merges().back().cumulative_loss;
  EXPECT_NEAR(total_loss, TotalInformation(objects), 1e-9);
}

TEST_P(SeedSweep, AibMergeMassesAreAdditive) {
  const auto objects = RandomObjects(30, 20, GetParam());
  auto result = AgglomerativeIb(objects);
  ASSERT_TRUE(result.ok());
  // Track every cluster's mass; each merge's p must equal the sum.
  std::vector<double> mass(objects.size() + result->merges().size(), 0.0);
  for (size_t i = 0; i < objects.size(); ++i) mass[i] = objects[i].p;
  for (const Merge& m : result->merges()) {
    EXPECT_NEAR(m.p_merged, mass[m.left] + mass[m.right], 1e-12);
    mass[m.merged] = m.p_merged;
  }
  EXPECT_NEAR(mass.back(), 1.0, 1e-9);
}

TEST_P(SeedSweep, Phase1NeverCreatesInformation) {
  const auto objects = RandomObjects(60, 30, GetParam());
  const double total = TotalInformation(objects);
  for (double phi : {0.0, 0.2, 0.5, 1.0}) {
    LimboOptions options;
    options.phi = phi;
    VectorDcfStream stream(objects);
    auto phase1 = SummarizePhase1(stream, options);
    ASSERT_TRUE(phase1.ok());
    const std::vector<Dcf>& leaves = phase1->leaves;
    EXPECT_LE(TotalInformation(leaves), total + 1e-9) << "phi=" << phi;
    double mass = 0.0;
    for (const Dcf& leaf : leaves) mass += leaf.p;
    EXPECT_NEAR(mass, 1.0, 1e-9) << "phi=" << phi;
  }
}

TEST_P(SeedSweep, LeafCountMonotoneInPhi) {
  const auto objects = RandomObjects(60, 30, GetParam());
  size_t previous = objects.size() + 1;
  for (double phi : {0.0, 0.1, 0.3, 0.6, 1.2}) {
    LimboOptions options;
    options.phi = phi;
    VectorDcfStream stream(objects);
    auto phase1 = SummarizePhase1(stream, options);
    ASSERT_TRUE(phase1.ok());
    EXPECT_LE(phase1->leaves.size(), previous) << "phi=" << phi;
    previous = phase1->leaves.size();
  }
}

TEST_P(SeedSweep, MeasuresMonotoneUnderAttributeInclusion) {
  util::Random rng(GetParam());
  std::vector<std::vector<std::string>> rows;
  for (int t = 0; t < 40; ++t) {
    rows.push_back({"a" + std::to_string(rng.Uniform(4)),
                    "b" + std::to_string(rng.Uniform(3)),
                    "c" + std::to_string(rng.Uniform(6)),
                    "d" + std::to_string(rng.Uniform(2))});
  }
  const auto rel = limbo::testing::MakeRelation({"A", "B", "C", "D"}, rows);
  // Projecting onto fewer attributes can only increase duplication.
  const std::vector<std::vector<relation::AttributeId>> chains = {
      {0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}};
  for (size_t i = 0; i + 1 < chains.size(); ++i) {
    EXPECT_GE(Rtr(rel, chains[i]), Rtr(rel, chains[i + 1]) - 1e-12);
    EXPECT_GE(Rad(rel, chains[i]), Rad(rel, chains[i + 1]) - 1e-12);
  }
}

TEST_P(SeedSweep, Phase3IsIdempotentOnRepresentatives) {
  const auto objects = RandomObjects(40, 25, GetParam());
  LimboOptions options;
  options.phi = 0.3;
  options.k = 5;
  auto result = RunLimbo(objects, options);
  ASSERT_TRUE(result.ok());
  // Assigning the representatives to themselves is the identity.
  auto self = LimboPhase3(result->representatives, result->representatives);
  ASSERT_TRUE(self.ok());
  for (size_t i = 0; i < self->size(); ++i) {
    EXPECT_EQ((*self)[i], i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace limbo::core
