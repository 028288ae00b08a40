#include "core/limbo.h"

#include <gtest/gtest.h>

#include "core/info.h"
#include "obs/counters.h"

#include "util/random.h"

namespace limbo::core {
namespace {

Dcf MakeDcf(double p, std::vector<uint32_t> support) {
  Dcf d;
  d.p = p;
  d.cond = SparseDistribution::UniformOver(support);
  return d;
}

/// 30 objects drawn from three disjoint templates with tiny jitter.
std::vector<Dcf> ThreePlantedClusters() {
  std::vector<Dcf> objects;
  util::Random rng(5);
  const int n = 30;
  for (int i = 0; i < n; ++i) {
    const uint32_t base = static_cast<uint32_t>(i % 3) * 100;
    objects.push_back(MakeDcf(
        1.0 / n, {base, base + 1, base + 2,
                  base + 3 + static_cast<uint32_t>(rng.Uniform(2))}));
  }
  return objects;
}

TEST(LimboTest, RecoversPlantedClusters) {
  LimboOptions options;
  options.phi = 0.0;
  options.k = 3;
  auto result = RunLimbo(ThreePlantedClusters(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignments.size(), 30u);
  // All objects of the same template share a label.
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(result->assignments[i], result->assignments[i % 3])
        << "object " << i;
  }
  // The three labels are distinct.
  EXPECT_NE(result->assignments[0], result->assignments[1]);
  EXPECT_NE(result->assignments[1], result->assignments[2]);
  EXPECT_NE(result->assignments[0], result->assignments[2]);
}

TEST(LimboTest, PhiZeroMakesPhase1Lossless) {
  const auto objects = ThreePlantedClusters();
  LimboOptions options;
  options.phi = 0.0;
  auto result = RunLimbo(objects, options);
  ASSERT_TRUE(result.ok());
  // Identical objects merge, everything else stays: leaves' mutual
  // information equals the objects' (no information lost in Phase 1).
  WeightedRows leaf_rows;
  for (const Dcf& leaf : result->leaves) {
    leaf_rows.weights.push_back(leaf.p);
    leaf_rows.rows.push_back(leaf.cond);
  }
  EXPECT_NEAR(MutualInformation(leaf_rows), result->mutual_information,
              1e-9);
}

TEST(LimboTest, LargerPhiGivesFewerLeaves) {
  const auto objects = ThreePlantedClusters();
  LimboOptions fine;
  fine.phi = 0.0;
  LimboOptions coarse;
  coarse.phi = 1.0;
  auto fine_result = RunLimbo(objects, fine);
  auto coarse_result = RunLimbo(objects, coarse);
  ASSERT_TRUE(fine_result.ok());
  ASSERT_TRUE(coarse_result.ok());
  EXPECT_LE(coarse_result->leaves.size(), fine_result->leaves.size());
}

TEST(LimboTest, Phase3LossesReported) {
  LimboOptions options;
  options.phi = 0.2;
  options.k = 3;
  auto result = RunLimbo(ThreePlantedClusters(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->assignment_loss.size(), 30u);
  for (double loss : result->assignment_loss) {
    EXPECT_GE(loss, 0.0);
  }
}

TEST(LimboTest, InvalidArguments) {
  EXPECT_FALSE(RunLimbo({}, LimboOptions()).ok());
  LimboOptions bad_phi;
  bad_phi.phi = -1.0;
  EXPECT_FALSE(RunLimbo(ThreePlantedClusters(), bad_phi).ok());
  LimboOptions big_k;
  big_k.k = 1000;
  EXPECT_FALSE(RunLimbo(ThreePlantedClusters(), big_k).ok());
}

TEST(LimboPhase3Test, AssignsToNearestRepresentative) {
  const std::vector<Dcf> reps = {MakeDcf(0.5, {0, 1}), MakeDcf(0.5, {10, 11})};
  const std::vector<Dcf> objects = {MakeDcf(0.1, {0, 1}),
                                    MakeDcf(0.1, {10, 11}),
                                    MakeDcf(0.1, {0, 2})};
  std::vector<double> losses;
  auto labels = LimboPhase3(objects, reps, &losses);
  ASSERT_TRUE(labels.ok());
  EXPECT_EQ((*labels)[0], 0u);
  EXPECT_EQ((*labels)[1], 1u);
  EXPECT_EQ((*labels)[2], 0u);  // overlaps {0}
  EXPECT_NEAR(losses[0], 0.0, 1e-12);
  EXPECT_GT(losses[2], 0.0);
}

TEST(LimboPhase3Test, NoRepresentativesFails) {
  EXPECT_FALSE(LimboPhase3({MakeDcf(1.0, {0})}, {}).ok());
}

TEST(LimboTest, KClampedToLeafCount) {
  // phi huge -> 1 leaf; k = 3 should clamp, not crash.
  LimboOptions options;
  options.phi = 50.0;
  options.k = 3;
  auto result = RunLimbo(ThreePlantedClusters(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->representatives.size(), 1u);
}

/// Regression: asking for more clusters than Phase 1 left leaves used to
/// fall back to min_k = 1, silently collapsing everything into a single
/// cluster. The correct clip is to the leaf count: one cluster per leaf.
TEST(LimboTest, KAboveLeafCountYieldsOneClusterPerLeaf) {
  // phi = 0 merges only identical objects: the 30 planted objects span 6
  // distinct DCFs (3 templates x 2 jitter values), so 6 leaves.
  LimboOptions options;
  options.phi = 0.0;
  options.k = 10;  // more than the 6 leaves, fewer than the 30 objects
  auto result = RunLimbo(ThreePlantedClusters(), options);
  ASSERT_TRUE(result.ok());
  ASSERT_GT(result->leaves.size(), 1u);
  ASSERT_LT(result->leaves.size(), options.k);
  EXPECT_EQ(result->representatives.size(), result->leaves.size());
  // Every leaf keeps its own cluster, so all leaf-count labels occur.
  std::vector<bool> used(result->representatives.size(), false);
  for (uint32_t label : result->assignments) {
    ASSERT_LT(label, used.size());
    used[label] = true;
  }
  for (size_t c = 0; c < used.size(); ++c) {
    EXPECT_TRUE(used[c]) << "cluster " << c << " empty";
  }
}

/// Runs parametrized over the worker-lane count: merge sequences,
/// assignments and losses must be bit-identical to the serial path.
class LimboThreadsTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LimboThreadsTest, BitIdenticalToSerial) {
  const auto objects = ThreePlantedClusters();
  LimboOptions serial;
  serial.phi = 0.2;
  serial.k = 3;
  serial.threads = 1;
  LimboOptions parallel = serial;
  parallel.threads = GetParam();
  auto a = RunLimbo(objects, serial);
  auto b = RunLimbo(objects, parallel);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Phase-2 merge sequence, bit-for-bit (EXPECT_EQ on doubles is exact).
  ASSERT_EQ(a->aib.merges().size(), b->aib.merges().size());
  for (size_t i = 0; i < a->aib.merges().size(); ++i) {
    EXPECT_EQ(a->aib.merges()[i].left, b->aib.merges()[i].left);
    EXPECT_EQ(a->aib.merges()[i].right, b->aib.merges()[i].right);
    EXPECT_EQ(a->aib.merges()[i].delta_i, b->aib.merges()[i].delta_i);
  }
  // Phase-3 assignments and losses.
  EXPECT_EQ(a->assignments, b->assignments);
  ASSERT_EQ(a->assignment_loss.size(), b->assignment_loss.size());
  for (size_t i = 0; i < a->assignment_loss.size(); ++i) {
    EXPECT_EQ(a->assignment_loss[i], b->assignment_loss[i]);
  }
}

TEST_P(LimboThreadsTest, Phase3BitIdenticalToSerial) {
  const auto objects = ThreePlantedClusters();
  const std::vector<Dcf> reps = {MakeDcf(0.4, {0, 1, 2}),
                                 MakeDcf(0.3, {100, 101, 102}),
                                 MakeDcf(0.3, {200, 201, 202})};
  std::vector<double> serial_loss;
  std::vector<double> parallel_loss;
  auto a = LimboPhase3(objects, reps, &serial_loss, 1);
  auto b = LimboPhase3(objects, reps, &parallel_loss, GetParam());
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  ASSERT_EQ(serial_loss.size(), parallel_loss.size());
  for (size_t i = 0; i < serial_loss.size(); ++i) {
    EXPECT_EQ(serial_loss[i], parallel_loss[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, LimboThreadsTest,
                         ::testing::Values(1, 2, 4, 8));

uint64_t Count(const char* name) { return obs::GetCounter(name).Value(); }

TEST(LimboTest, RunCountsPhaseWorkAndScans) {
  obs::SetEnabled(true);
  obs::ResetCounters();
  LimboOptions options;
  options.phi = 0.2;
  options.k = 3;
  auto result = RunLimbo(ThreePlantedClusters(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(Count("aib.distance_evals"), 0u);
  EXPECT_EQ(Count("aib.distance_evals"), result->aib.stats().distance_evals);
  EXPECT_EQ(Count("phase3.distance_evals"),
            30u * result->representatives.size());
  // Two I(V;T) scans, the insert scan and the Phase-3 scan.
  EXPECT_EQ(Count("dcf_stream.scans"), 4u);
}

TEST(LimboTest, Phase3RanFalseWhenPhase3Skipped) {
  obs::SetEnabled(true);
  obs::ResetCounters();
  LimboOptions options;
  options.phi = 0.2;
  options.k = 0;  // no requested cluster count: Phase 3 is skipped
  auto result = RunLimbo(ThreePlantedClusters(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(Count("phase3.distance_evals"), 0u);
  EXPECT_EQ(Count("dcf_stream.scans"), 3u);
  EXPECT_TRUE(result->assignments.empty());
}

}  // namespace
}  // namespace limbo::core
