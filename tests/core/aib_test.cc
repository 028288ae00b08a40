#include "core/aib.h"

#include <gtest/gtest.h>

#include <cmath>

namespace limbo::core {
namespace {

Dcf MakeDcf(double p, std::vector<uint32_t> support) {
  Dcf d;
  d.p = p;
  d.cond = SparseDistribution::UniformOver(support);
  return d;
}

/// Four objects: {0,1} are identical, {2,3} are identical, the two groups
/// disjoint. AIB must merge within groups first (loss 0) and across
/// groups last.
std::vector<Dcf> TwoNaturalClusters() {
  return {MakeDcf(0.25, {0, 1}), MakeDcf(0.25, {0, 1}),
          MakeDcf(0.25, {5, 6}), MakeDcf(0.25, {5, 6})};
}

TEST(AibTest, MergesIdenticalObjectsFirst) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  const auto& merges = result->merges();
  ASSERT_EQ(merges.size(), 3u);
  EXPECT_NEAR(merges[0].delta_i, 0.0, 1e-9);
  EXPECT_NEAR(merges[1].delta_i, 0.0, 1e-9);
  EXPECT_GT(merges[2].delta_i, 0.5);
}

TEST(AibTest, AssignmentsAtKRecoverNaturalClusters) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  auto labels = result->AssignmentsAtK(2);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], (*labels)[1]);
  EXPECT_EQ((*labels)[2], (*labels)[3]);
  EXPECT_NE((*labels)[0], (*labels)[2]);
}

TEST(AibTest, AssignmentsAtExtremes) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  auto all_separate = result->AssignmentsAtK(4);
  ASSERT_TRUE(all_separate.ok());
  EXPECT_EQ(*all_separate, (std::vector<uint32_t>{0, 1, 2, 3}));
  auto all_together = result->AssignmentsAtK(1);
  ASSERT_TRUE(all_together.ok());
  EXPECT_EQ(*all_together, (std::vector<uint32_t>{0, 0, 0, 0}));
  EXPECT_FALSE(result->AssignmentsAtK(5).ok());
  EXPECT_FALSE(result->AssignmentsAtK(0).ok());
}

TEST(AibTest, CumulativeLossIsMonotone) {
  std::vector<Dcf> inputs;
  for (uint32_t i = 0; i < 8; ++i) {
    inputs.push_back(MakeDcf(1.0 / 8, {i, i + 1, i + 2}));
  }
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  double prev = 0.0;
  for (const Merge& m : result->merges()) {
    EXPECT_GE(m.cumulative_loss, prev - 1e-12);
    EXPECT_GE(m.delta_i, -1e-12);
    prev = m.cumulative_loss;
  }
  auto loss_k1 = result->LossAtK(1);
  ASSERT_TRUE(loss_k1.ok());
  EXPECT_NEAR(*loss_k1, prev, 1e-12);
  auto loss_kq = result->LossAtK(8);
  ASSERT_TRUE(loss_kq.ok());
  EXPECT_DOUBLE_EQ(*loss_kq, 0.0);
}

TEST(AibTest, TotalLossEqualsMutualInformationForDistinctObjects) {
  // Clustering everything into one cluster loses exactly I(O;T).
  std::vector<Dcf> inputs = {MakeDcf(0.5, {0}), MakeDcf(0.5, {1})};
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  // I(O;T) = 1 bit for this configuration.
  EXPECT_NEAR(result->merges().back().cumulative_loss, 1.0, 1e-12);
}

TEST(AibTest, MinKStopsEarly) {
  AibOptions options;
  options.min_k = 3;
  auto result = AgglomerativeIb(TwoNaturalClusters(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->merges().size(), 1u);
  EXPECT_EQ(result->FinalK(), 3u);
  EXPECT_FALSE(result->AssignmentsAtK(2).ok());  // below final K
}

TEST(AibTest, InvalidInputs) {
  EXPECT_FALSE(AgglomerativeIb({}).ok());
  AibOptions options;
  options.min_k = 5;
  EXPECT_FALSE(AgglomerativeIb(TwoNaturalClusters(), options).ok());
}

TEST(AibTest, SingleObject) {
  auto result = AgglomerativeIb({MakeDcf(1.0, {0})});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->merges().empty());
  EXPECT_EQ(result->FinalK(), 1u);
}

TEST(AibTest, DeterministicAcrossRuns) {
  std::vector<Dcf> inputs;
  for (uint32_t i = 0; i < 12; ++i) {
    inputs.push_back(MakeDcf(1.0 / 12, {i % 5, (i * 2) % 5 + 5}));
  }
  auto a = AgglomerativeIb(inputs);
  auto b = AgglomerativeIb(inputs);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->merges().size(), b->merges().size());
  for (size_t i = 0; i < a->merges().size(); ++i) {
    EXPECT_EQ(a->merges()[i].left, b->merges()[i].left);
    EXPECT_EQ(a->merges()[i].right, b->merges()[i].right);
  }
}

/// Runs parametrized over the worker-lane count: every result must be
/// bit-identical to the serial path.
class AibThreadsTest : public ::testing::TestWithParam<size_t> {};

/// Regression: recompute_nn used to tie-break equal distances on *slot
/// index* while the global selection tie-broke on *cluster id*. With all
/// distances equal, slots recycled by merges then steered the merge order
/// away from the documented scipy-style id order (e.g. the second merge
/// became {6, 2} instead of {2, 3}).
TEST_P(AibThreadsTest, EqualDistanceMergeOrderFollowsClusterIds) {
  std::vector<Dcf> inputs;
  for (int i = 0; i < 6; ++i) inputs.push_back(MakeDcf(1.0 / 6, {0, 1}));
  AibOptions options;
  options.threads = GetParam();
  auto result = AgglomerativeIb(inputs, options);
  ASSERT_TRUE(result.ok());
  const auto& merges = result->merges();
  ASSERT_EQ(merges.size(), 5u);
  const uint32_t expected[][2] = {{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}};
  for (size_t i = 0; i < merges.size(); ++i) {
    EXPECT_EQ(merges[i].left, expected[i][0]) << "merge " << i;
    EXPECT_EQ(merges[i].right, expected[i][1]) << "merge " << i;
    EXPECT_NEAR(merges[i].delta_i, 0.0, 1e-12);
  }
}

TEST_P(AibThreadsTest, BitIdenticalToSerial) {
  std::vector<Dcf> inputs;
  for (uint32_t i = 0; i < 40; ++i) {
    inputs.push_back(MakeDcf((1.0 + i % 3) / 80.0,
                             {i % 7, 7 + (i * 3) % 11, 18 + (i * 5) % 13}));
  }
  AibOptions serial;
  serial.threads = 1;
  AibOptions parallel;
  parallel.threads = GetParam();
  auto a = AgglomerativeIb(inputs, serial);
  auto b = AgglomerativeIb(inputs, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->merges().size(), b->merges().size());
  for (size_t i = 0; i < a->merges().size(); ++i) {
    EXPECT_EQ(a->merges()[i].left, b->merges()[i].left) << "merge " << i;
    EXPECT_EQ(a->merges()[i].right, b->merges()[i].right) << "merge " << i;
    // EXPECT_EQ on doubles: the losses must match bit-for-bit, not
    // approximately — the parallel path computes the exact same FP ops.
    EXPECT_EQ(a->merges()[i].delta_i, b->merges()[i].delta_i);
    EXPECT_EQ(a->merges()[i].cumulative_loss, b->merges()[i].cumulative_loss);
    EXPECT_EQ(a->merges()[i].p_merged, b->merges()[i].p_merged);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, AibThreadsTest, ::testing::Values(1, 4));

TEST(AibStatsTest, CountsDistanceEvaluations) {
  auto result = AgglomerativeIb(TwoNaturalClusters());
  ASSERT_TRUE(result.ok());
  // δI scored. Build: each row scores only its copy, since the bound on
  // a disjoint pair is above 0: 4. After the first merge, the merged
  // row's own neighbour: 2, because on disjoint rows the bound is exact
  // up to its slack and so cannot rule out the second, equal cell. After
  // the second merge: 1 for the merged row and 1 to rescan the first
  // merged row, whose neighbour merged away.
  EXPECT_EQ(result->stats().distance_evals, 8u);
}

TEST(ClusterDcfsAtKTest, MassConserved) {
  const auto inputs = TwoNaturalClusters();
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  auto clusters = ClusterDcfsAtK(inputs, *result, 2);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters->size(), 2u);
  double total = 0.0;
  for (const Dcf& c : *clusters) total += c.p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NEAR((*clusters)[0].p, 0.5, 1e-12);
}

TEST(ClusterEntropyPerStepTest, EqualMassClusters) {
  const auto inputs = TwoNaturalClusters();
  auto result = AgglomerativeIb(inputs);
  ASSERT_TRUE(result.ok());
  const auto entropy = result->ClusterEntropyPerStep(inputs);
  ASSERT_EQ(entropy.size(), 4u);  // k = 4, 3, 2, 1
  EXPECT_NEAR(entropy[0], 2.0, 1e-12);  // 4 × 1/4
  EXPECT_NEAR(entropy[2], 1.0, 1e-12);  // 2 × 1/2
  EXPECT_NEAR(entropy[3], 0.0, 1e-12);  // single cluster
}

}  // namespace
}  // namespace limbo::core
