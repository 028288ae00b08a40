// Tests for the arena-backed distance kernel layer: DistributionArena,
// LossKernel, bit-identity against the per-pair reference, the asymmetric
// JsDivergence path at its cutoff boundary, and the galloping-lookup
// complexity bound.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <random>
#include <vector>

#include "core/aib.h"
#include "core/dcf.h"
#include "core/limbo.h"
#include "core/prob.h"
#include "core/tuple_clustering.h"
#include "datagen/dblp.h"
#include "obs/counters.h"
#include "reference/per_pair.h"

namespace limbo::core {
namespace {

SparseDistribution RandomDistribution(std::mt19937& rng, size_t support,
                                      uint32_t universe) {
  std::vector<uint32_t> ids(universe);
  for (uint32_t i = 0; i < universe; ++i) ids[i] = i;
  std::shuffle(ids.begin(), ids.end(), rng);
  std::uniform_real_distribution<double> mass(0.05, 1.0);
  std::vector<SparseDistribution::Entry> entries;
  entries.reserve(support);
  for (size_t k = 0; k < support; ++k) {
    entries.push_back({ids[k], mass(rng)});
  }
  return SparseDistribution::FromPairs(std::move(entries));
}

Dcf RandomDcf(std::mt19937& rng, size_t support, uint32_t universe,
              double p) {
  Dcf d;
  d.p = p;
  d.cond = RandomDistribution(rng, support, universe);
  return d;
}

/// Reference δI: Eq. 3 straight through the public JsDivergence, the
/// pre-kernel formulation.
double ReferenceLoss(const Dcf& a, const Dcf& b) {
  const double total = a.p + b.p;
  if (total <= 0.0) return 0.0;
  return total * JsDivergence(a.p / total, a.cond, b.p / total, b.cond);
}

// ---------------------------------------------------------------------------
// DistributionArena

TEST(DistributionArenaTest, AppendRoundTripsEntriesAndLogs) {
  std::mt19937 rng(7);
  DistributionArena arena;
  std::vector<SparseDistribution> rows;
  for (int i = 0; i < 5; ++i) {
    rows.push_back(RandomDistribution(rng, 8 + i, 64));
    ASSERT_EQ(arena.Append(rows.back()), static_cast<size_t>(i));
  }
  ASSERT_EQ(arena.NumRows(), 5u);
  for (size_t i = 0; i < rows.size(); ++i) {
    const DistributionView view = arena.Row(i);
    ASSERT_EQ(view.SupportSize(), rows[i].SupportSize());
    for (size_t k = 0; k < view.entries.size(); ++k) {
      EXPECT_EQ(view.entries[k].id, rows[i].entries()[k].id);
      EXPECT_EQ(view.entries[k].mass, rows[i].entries()[k].mass);
      // Cached log must be exactly what a fresh evaluation yields.
      EXPECT_EQ(view.log2s[k],
                std::log(rows[i].entries()[k].mass) * 1.4426950408889634);
    }
  }
}

TEST(DistributionArenaTest, AppendMergeMatchesWeightedMergeBitwise) {
  std::mt19937 rng(11);
  for (int trial = 0; trial < 20; ++trial) {
    const SparseDistribution a = RandomDistribution(rng, 6 + trial % 5, 40);
    const SparseDistribution b = RandomDistribution(rng, 9 + trial % 7, 40);
    std::uniform_real_distribution<double> wd(0.1, 0.9);
    const double w1 = wd(rng);
    const double w2 = 1.0 - w1;
    DistributionArena arena;
    const size_t ra = arena.Append(a);
    const size_t rb = arena.Append(b);
    const size_t rm = arena.AppendMerge(w1, ra, w2, rb);
    const SparseDistribution expected =
        SparseDistribution::WeightedMerge(w1, a, w2, b);
    const DistributionView got = arena.Row(rm);
    ASSERT_EQ(got.SupportSize(), expected.SupportSize());
    for (size_t k = 0; k < got.entries.size(); ++k) {
      EXPECT_EQ(got.entries[k].id, expected.entries()[k].id);
      EXPECT_EQ(got.entries[k].mass, expected.entries()[k].mass);
    }
  }
}

TEST(DistributionArenaTest, AppendMergeSurvivesSlabReallocation) {
  // No ReserveEntries: every append may realloc, and AppendMerge reads
  // its own slab while writing into it.
  std::mt19937 rng(13);
  DistributionArena arena;
  size_t row0 = arena.Append(RandomDistribution(rng, 12, 64));
  size_t row1 = arena.Append(RandomDistribution(rng, 12, 64));
  for (int step = 0; step < 10; ++step) {
    const size_t merged = arena.AppendMerge(0.5, row0, 0.5, row1);
    const DistributionView view = arena.Row(merged);
    double total = 0.0;
    for (const auto& e : view.entries) total += e.mass;
    EXPECT_NEAR(total, 1.0, 1e-9);
    row0 = row1;
    row1 = merged;
  }
}

// ---------------------------------------------------------------------------
// LossKernel vs the reference formulation

TEST(LossKernelTest, MatchesReferenceAcrossShapes) {
  std::mt19937 rng(17);
  std::uniform_real_distribution<double> pd(0.01, 1.0);
  const struct {
    size_t so, sc;
    uint32_t universe;
  } shapes[] = {
      {1, 1, 8},      {4, 4, 16},     {8, 200, 512},  {200, 8, 512},
      {64, 64, 96},   {1, 500, 1024}, {500, 1, 1024}, {33, 512, 2048},
  };
  for (const auto& shape : shapes) {
    for (int trial = 0; trial < 8; ++trial) {
      const Dcf a = RandomDcf(rng, shape.so, shape.universe, pd(rng));
      const Dcf b = RandomDcf(rng, shape.sc, shape.universe, pd(rng));
      LossKernel kernel;
      kernel.SetObject(a.p, a.cond);
      const double got = kernel.Loss(b.p, b.cond);
      EXPECT_NEAR(got, ReferenceLoss(a, b), 1e-12)
          << "so=" << shape.so << " sc=" << shape.sc << " trial=" << trial;
    }
  }
}

TEST(LossKernelTest, ZeroMassAndEmptySides) {
  LossKernel kernel;
  Dcf a;
  a.p = 0.0;
  kernel.SetObject(a.p, a.cond);
  EXPECT_EQ(kernel.Loss(0.0, SparseDistribution{}), 0.0);
  const SparseDistribution d =
      SparseDistribution::FromPairs({{0, 0.5}, {1, 0.5}});
  EXPECT_EQ(kernel.Loss(1.0, d), 0.0);  // empty object side
  kernel.SetObject(0.5, d);
  EXPECT_EQ(kernel.Loss(0.0, SparseDistribution{}), 0.0);
  // Identical conditionals lose nothing.
  EXPECT_NEAR(kernel.Loss(0.5, d), 0.0, 1e-12);
}

TEST(LossKernelTest, HugeIdsUseTwoPointerFallbackWithSameResults) {
  // Ids beyond the dense-scatter cap exercise the fallback path.
  std::mt19937 rng(19);
  std::vector<SparseDistribution::Entry> pe;
  std::vector<SparseDistribution::Entry> qe;
  std::uniform_real_distribution<double> mass(0.1, 1.0);
  for (uint32_t k = 0; k < 20; ++k) {
    pe.push_back({(1u << 23) + 3 * k, mass(rng)});
    qe.push_back({(1u << 23) + 2 * k, mass(rng)});
  }
  Dcf a;
  a.p = 0.4;
  a.cond = SparseDistribution::FromPairs(std::move(pe));
  Dcf b;
  b.p = 0.6;
  b.cond = SparseDistribution::FromPairs(std::move(qe));
  LossKernel kernel;
  kernel.SetObject(a.p, a.cond);
  EXPECT_NEAR(kernel.Loss(b.p, b.cond), ReferenceLoss(a, b), 1e-12);
}

// ---------------------------------------------------------------------------
// Batch vs per-pair bit-identity

TEST(InformationLossBatchTest, BitIdenticalToPerPair) {
  std::mt19937 rng(23);
  std::uniform_real_distribution<double> pd(0.01, 1.0);
  std::uniform_int_distribution<size_t> sd(1, 60);
  std::vector<Dcf> candidates;
  for (int i = 0; i < 30; ++i) {
    candidates.push_back(RandomDcf(rng, sd(rng), 256, pd(rng)));
  }
  for (int trial = 0; trial < 10; ++trial) {
    const Dcf object = RandomDcf(rng, sd(rng), 256, pd(rng));
    std::vector<double> batch(candidates.size());
    InformationLossBatch(object, candidates, batch);
    for (size_t i = 0; i < candidates.size(); ++i) {
      EXPECT_EQ(batch[i], InformationLoss(object, candidates[i])) << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Asymmetric JsDivergence path: boundary property + complexity bound

TEST(JsDivergenceBoundaryTest, FastPathMatchesMergeJoinAroundCutoff) {
  std::mt19937 rng(29);
  std::uniform_real_distribution<double> wd(0.05, 0.95);
  std::uniform_int_distribution<size_t> small_d(1, 40);
  // Ratios straddling kAsymmetricCutoffRatio (=16), plus extremes: the
  // public JsDivergence flips paths across the boundary and the result
  // must not care.
  const size_t ratios[] = {1, 2, 8, 14, 15, 16, 17, 18, 32, 64, 200};
  for (const size_t ratio : ratios) {
    for (int trial = 0; trial < 6; ++trial) {
      const size_t sp = small_d(rng);
      const size_t sq = sp * ratio + (trial % 3);  // jitter the boundary
      const uint32_t universe = static_cast<uint32_t>(2 * (sp + sq) + 8);
      const SparseDistribution p = RandomDistribution(rng, sp, universe);
      const SparseDistribution q = RandomDistribution(rng, sq, universe);
      const double w1 = wd(rng);
      const double w2 = 1.0 - w1;
      const double joined = internal::JsDivergenceMergeJoin(w1, p, w2, q);
      const double fast = internal::JsDivergenceAsymmetric(w1, p, w2, q);
      EXPECT_NEAR(fast, joined, 1e-12)
          << "ratio=" << ratio << " sp=" << sp << " sq=" << sq;
      // And the dispatching entry point agrees with both.
      EXPECT_NEAR(JsDivergence(w1, p, w2, q), joined, 1e-12);
    }
  }
}

TEST(JsDivergenceGallopTest, EqualSizeInputsStayLinear) {
  // Satellite regression: the asymmetric path must never regress past
  // the merge-join path on equal-size inputs. Merge-join costs
  // |p| + |q| id steps; the galloping sweep is bounded by a small
  // constant per p-entry when gaps are constant.
  const size_t n = 4096;
  std::vector<SparseDistribution::Entry> pe;
  std::vector<SparseDistribution::Entry> qe;
  for (uint32_t k = 0; k < n; ++k) {
    pe.push_back({2 * k, 1.0});      // evens
    qe.push_back({2 * k + 1, 1.0});  // odds: worst-case interleave
  }
  const auto p = SparseDistribution::FromPairs(std::move(pe));
  const auto q = SparseDistribution::FromPairs(std::move(qe));
  uint64_t probes = 0;
  internal::JsDivergenceAsymmetric(0.5, p, 0.5, q, &probes);
  EXPECT_LE(probes, 2 * (p.SupportSize() + q.SupportSize()));

  // Identical supports: each lookup lands on the next entry.
  std::vector<SparseDistribution::Entry> se;
  for (uint32_t k = 0; k < n; ++k) se.push_back({3 * k, 1.0});
  const auto s = SparseDistribution::FromPairs(std::move(se));
  probes = 0;
  internal::JsDivergenceAsymmetric(0.5, s, 0.5, s, &probes);
  EXPECT_LE(probes, 2 * s.SupportSize());
}

TEST(JsDivergenceGallopTest, SmallIntoHugeStaysLogarithmic) {
  // |p| = 32 spread across |q| = 65536: probes must be
  // O(|p| · log(|q|/|p|)), nowhere near the O(|q|) a naive linear
  // two-pointer advance would cost.
  const size_t sq = 65536;
  const size_t sp = 32;
  std::vector<SparseDistribution::Entry> qe;
  qe.reserve(sq);
  for (uint32_t k = 0; k < sq; ++k) qe.push_back({k, 1.0});
  std::vector<SparseDistribution::Entry> pe;
  for (uint32_t k = 0; k < sp; ++k) {
    pe.push_back({static_cast<uint32_t>(k * (sq / sp)), 1.0});
  }
  const auto p = SparseDistribution::FromPairs(std::move(pe));
  const auto q = SparseDistribution::FromPairs(std::move(qe));
  uint64_t probes = 0;
  internal::JsDivergenceAsymmetric(0.5, p, 0.5, q, &probes);
  EXPECT_LE(probes, sp * (2 * 16 + 4));  // 2·log2(gap) + O(1) per entry
  EXPECT_LT(probes, sq / 4);             // far from linear in |q|
}

// ---------------------------------------------------------------------------
// End-to-end equivalence: the production batch kernel vs the per-pair
// reference formulation (tests/reference/per_pair.h)

class KernelEquivalenceTest : public ::testing::TestWithParam<size_t> {};

std::vector<Dcf> MixedInputs(size_t q = 48) {
  std::mt19937 rng(31);
  std::uniform_real_distribution<double> pd(0.2, 1.0);
  std::uniform_int_distribution<size_t> sd(2, 24);
  std::vector<Dcf> inputs;
  double total = 0.0;
  for (size_t i = 0; i < q; ++i) {
    inputs.push_back(RandomDcf(rng, sd(rng), 160, pd(rng)));
    total += inputs.back().p;
  }
  for (Dcf& d : inputs) d.p /= total;
  return inputs;
}

/// Runs AIB down to `min_k` at `threads` lanes and checks every merge
/// against the per-pair reference, bit for bit.
void ExpectAibMatchesReference(const std::vector<Dcf>& inputs, size_t min_k,
                               size_t threads) {
  AibOptions options;
  options.min_k = min_k;
  options.threads = threads;
  auto batch = AgglomerativeIb(inputs, options);
  ASSERT_TRUE(batch.ok());
  const std::vector<Merge> pair = reference::AibMerges(inputs, min_k);
  ASSERT_EQ(batch->merges().size(), pair.size());
  for (size_t i = 0; i < pair.size(); ++i) {
    const Merge& mb = batch->merges()[i];
    const Merge& mp = pair[i];
    EXPECT_EQ(mb.left, mp.left) << i;
    EXPECT_EQ(mb.right, mp.right) << i;
    EXPECT_EQ(mb.merged, mp.merged) << i;
    EXPECT_EQ(mb.delta_i, mp.delta_i) << i;
    EXPECT_EQ(mb.cumulative_loss, mp.cumulative_loss) << i;
    EXPECT_EQ(mb.p_merged, mp.p_merged) << i;
  }
}

TEST_P(KernelEquivalenceTest, AibMergeSequencesBitIdentical) {
  ExpectAibMatchesReference(MixedInputs(), 1, GetParam());
}

// At q = 300 the live slots span many grain-16 chunks as merges retire
// them, and the merged rows outgrow the arena's up-front 2x reserve, so
// the refresh reads rows that moved in a slab reallocation.
TEST_P(KernelEquivalenceTest, AibMergeSequencesBitIdenticalAtQ300) {
  ExpectAibMatchesReference(MixedInputs(300), 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibTwoInputsMergeOnce) {
  const std::vector<Dcf> inputs = MixedInputs(2);
  ASSERT_EQ(reference::AibMerges(inputs, 1).size(), 1u);
  ExpectAibMatchesReference(inputs, 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibMinKAtQMakesNoMerges) {
  const std::vector<Dcf> inputs = MixedInputs(20);
  ExpectAibMatchesReference(inputs, inputs.size(), GetParam());
  AibOptions options;
  options.min_k = inputs.size();
  options.threads = GetParam();
  auto result = AgglomerativeIb(inputs, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->merges().empty());
  EXPECT_EQ(result->FinalK(), inputs.size());
  // No merges to make, so no δI is scored.
  EXPECT_EQ(result->stats().distance_evals, 0u);
}

/// Runs Phase 3 of `objects` against `reps` at `threads` lanes and checks
/// every label and loss against the per-pair reference, bit for bit.
void ExpectPhase3MatchesReference(const std::vector<Dcf>& objects,
                                  const std::vector<Dcf>& reps,
                                  size_t threads) {
  std::vector<double> batch_loss;
  auto batch = LimboPhase3(objects, reps, &batch_loss, threads);
  ASSERT_TRUE(batch.ok());
  const reference::Assignment pair = reference::AssignToNearest(objects, reps);
  EXPECT_EQ(*batch, pair.labels);
  ASSERT_EQ(batch_loss.size(), pair.losses.size());
  for (size_t i = 0; i < batch_loss.size(); ++i) {
    EXPECT_EQ(batch_loss[i], pair.losses[i]) << i;
  }
}

TEST_P(KernelEquivalenceTest, Phase3AssignmentsAndLossesBitIdentical) {
  const std::vector<Dcf> objects = MixedInputs();
  auto aib = AgglomerativeIb(objects);
  ASSERT_TRUE(aib.ok());
  auto reps = ClusterDcfsAtK(objects, *aib, 5);
  ASSERT_TRUE(reps.ok());
  ExpectPhase3MatchesReference(objects, *reps, GetParam());
}

// The inputs a real fit hands Phase 2: the Phase-1 leaves of 2,000 DBLP
// tuples at φ = 0.5 (about 200 of them). Phase 3 then scans all 2,000
// tuples against the k = 10 representatives cut from that merge sequence.
std::vector<Dcf> DblpTupleObjects() {
  datagen::DblpOptions dblp;
  dblp.target_tuples = 2000;
  return BuildTupleObjects(datagen::GenerateDblp(dblp));
}

std::vector<Dcf> DblpLeaves(const std::vector<Dcf>& objects, size_t threads) {
  LimboOptions options;
  options.phi = 0.5;
  options.threads = threads;
  VectorDcfStream stream(objects);
  auto phase1 = SummarizePhase1(stream, options);
  EXPECT_TRUE(phase1.ok());
  return phase1.ok() ? phase1->leaves : std::vector<Dcf>{};
}

TEST_P(KernelEquivalenceTest, DblpPhase1LeavesBitIdentical) {
  const std::vector<Dcf> objects = DblpTupleObjects();
  const std::vector<Dcf> leaves = DblpLeaves(objects, GetParam());
  ASSERT_GT(leaves.size(), 100u);
  ExpectAibMatchesReference(leaves, 1, GetParam());

  AibOptions aib_options;
  aib_options.threads = GetParam();
  auto aib = AgglomerativeIb(leaves, aib_options);
  ASSERT_TRUE(aib.ok());
  auto reps = ClusterDcfsAtK(leaves, *aib, 10);
  ASSERT_TRUE(reps.ok());
  ExpectPhase3MatchesReference(objects, *reps, GetParam());
}

// ---------------------------------------------------------------------------
// Phase 3 on adversarial candidate sets: every shape below must label and
// score exactly as the full per-pair scan does, bit for bit.

/// `d` with every mass multiplied by `scale` and kept as is (no
/// renormalization), so the row sums to `scale` up to rounding.
SparseDistribution Scaled(const SparseDistribution& d, double scale) {
  std::vector<SparseDistribution::Entry> entries = d.entries();
  for (SparseDistribution::Entry& e : entries) e.mass *= scale;
  return SparseDistribution::FromNormalizedPairs(std::move(entries));
}

/// `d` with every id moved up by `offset`.
SparseDistribution Shifted(const SparseDistribution& d, uint32_t offset) {
  std::vector<SparseDistribution::Entry> entries = d.entries();
  for (SparseDistribution::Entry& e : entries) e.id += offset;
  return SparseDistribution::FromNormalizedPairs(std::move(entries));
}

Dcf WithPrior(Dcf d, double p) {
  d.p = p;
  return d;
}

// Copies of an object at several priors, and duplicated candidates. A
// copy with a smaller prior has a smaller bound than the same copy at a
// lower index, so the first candidate scored is not the one that wins
// the tie at loss (about) 0.
TEST_P(KernelEquivalenceTest, Phase3DuplicateAndObjectEqualCandidates) {
  const std::vector<Dcf> objects = MixedInputs();
  std::mt19937 rng(41);
  std::vector<Dcf> reps;
  const size_t copied[] = {0, 5, 17, 30, 47};
  for (size_t i : copied) {
    reps.push_back(WithPrior(objects[i], objects[i].p * 8));
  }
  for (int r = 0; r < 6; ++r) {
    reps.push_back(RandomDcf(rng, 12, 160, 0.05));
    reps.push_back(reps.back());
  }
  for (size_t i : copied) {
    reps.push_back(WithPrior(objects[i], objects[i].p / 8));
    reps.push_back(objects[i]);
    reps.push_back(objects[i]);
  }
  ExpectPhase3MatchesReference(objects, reps, GetParam());
  // The copies alone: every object that has one ties at loss 0 several
  // times over.
  std::vector<Dcf> copies;
  for (size_t i : copied) {
    copies.push_back(WithPrior(objects[i], objects[i].p * 1e3));
    copies.push_back(WithPrior(objects[i], objects[i].p / 1e3));
  }
  ExpectPhase3MatchesReference(objects, copies, GetParam());
}

// Ties at loss 0 that only the bound's absolute slack keeps: each object
// carries an extra mass of 1e-15 that candidate 2i lacks, so that
// candidate's bound is about 1e-15·A > 0, while candidate 2i + 1, an
// exact copy of the object, has bound 0 and is scored first. At a
// candidate prior of p_o/1000 both losses round to 0, and then the lower
// index must win.
TEST_P(KernelEquivalenceTest, Phase3TiesAtZeroAgainstATinyPrivateMass) {
  const std::vector<Dcf> plain = MixedInputs();
  std::vector<Dcf> objects;
  std::vector<Dcf> reps;
  for (size_t i = 0; i < plain.size(); ++i) {
    std::vector<SparseDistribution::Entry> entries = plain[i].cond.entries();
    entries.push_back({static_cast<uint32_t>(1000 + i), 1e-15});
    Dcf object{plain[i].p, SparseDistribution::FromNormalizedPairs(entries),
               {}};
    reps.push_back(WithPrior(plain[i], plain[i].p / 1000));
    reps.push_back(WithPrior(object, plain[i].p / 1000));
    objects.push_back(std::move(object));
  }
  ExpectPhase3MatchesReference(objects, reps, GetParam());
}

// Zero-prior and empty candidates score 0 against every object; zero-prior
// and empty objects score 0 against every candidate.
TEST_P(KernelEquivalenceTest, Phase3ZeroPriorAndEmptySides) {
  std::vector<Dcf> objects = MixedInputs();
  std::mt19937 rng(43);
  std::vector<Dcf> reps;
  for (int r = 0; r < 8; ++r) reps.push_back(RandomDcf(rng, 16, 160, 0.1));
  ExpectPhase3MatchesReference(objects, reps, GetParam());
  objects.push_back(WithPrior(objects[3], 0.0));
  objects.push_back(Dcf{0.02, SparseDistribution{}, {}});
  objects.push_back(Dcf{0.0, SparseDistribution{}, {}});
  reps.push_back(WithPrior(RandomDcf(rng, 16, 160, 0.0), 0.0));
  reps.push_back(Dcf{0.1, SparseDistribution{}, {}});
  reps.push_back(Dcf{0.0, SparseDistribution{}, {}});
  ExpectPhase3MatchesReference(objects, reps, GetParam());
  std::rotate(reps.begin(), reps.end() - 3, reps.end());
  ExpectPhase3MatchesReference(objects, reps, GetParam());
}

// Rows whose masses sum to 1 ± 1e-9: the bound must not lean on exact
// normalization, on either side.
TEST_P(KernelEquivalenceTest, Phase3RowsOffNormalByOneInABillion) {
  std::vector<Dcf> objects = MixedInputs();
  std::mt19937 rng(47);
  std::vector<Dcf> reps;
  for (int r = 0; r < 12; ++r) {
    Dcf d = RandomDcf(rng, 4 + 3 * r, 160, 0.08);
    d.cond = Scaled(d.cond, r % 2 == 0 ? 1.0 + 1e-9 : 1.0 - 1e-9);
    reps.push_back(std::move(d));
  }
  for (size_t i = 0; i < objects.size(); i += 3) {
    reps.push_back(objects[i]);
    reps.back().cond = Scaled(objects[i].cond, 1.0 + 1e-9);
    objects[i].cond = Scaled(objects[i].cond, 1.0 - 1e-9);
  }
  ExpectPhase3MatchesReference(objects, reps, GetParam());
}

// p_o >> p_c and p_o << p_c: priors up to seventeen orders of magnitude
// apart, with near-copies of the objects among the candidates. Past a
// ratio of about 1e13 the kernel's rounding in a large candidate's δI
// outgrows the bound's mass and relative slack, and a loss that rounds
// to 0 can win the full scan.
TEST_P(KernelEquivalenceTest, Phase3ExtremePriorRatios) {
  std::mt19937 rng(53);
  std::vector<Dcf> shapes;
  for (int r = 0; r < 6; ++r) shapes.push_back(RandomDcf(rng, 10, 40, 1.0));
  const double priors[] = {1e-9, 1e-6, 1e-3, 0.5, 1.0};
  std::vector<Dcf> reps;
  for (double p : priors) {
    for (const Dcf& s : shapes) reps.push_back(WithPrior(s, p));
  }
  std::vector<Dcf> objects;
  for (double p : {1e-17, 1e-15, 1e-13, 1e-9, 1e-4, 0.9}) {
    for (int i = 0; i < 20; ++i) objects.push_back(RandomDcf(rng, 6, 40, p));
    for (const Dcf& s : shapes) objects.push_back(WithPrior(s, p));
  }
  ExpectPhase3MatchesReference(objects, reps, GetParam());
}

// Ids past the kernel's dense-scatter cap (1 << 22), and object ids past
// every candidate's: the latter are unshared and count against the object.
TEST_P(KernelEquivalenceTest, Phase3HugeIdsAndObjectIdsPastTheCandidates) {
  const uint32_t kPastDenseCap = (1u << 22) + 17;
  std::vector<Dcf> objects = MixedInputs();
  std::mt19937 rng(59);
  std::vector<Dcf> reps;
  for (int r = 0; r < 10; ++r) {
    Dcf d = RandomDcf(rng, 20, 160, 0.1);
    d.cond = Shifted(d.cond, r % 2 == 0 ? kPastDenseCap : 0);
    reps.push_back(std::move(d));
  }
  for (size_t i = 0; i < objects.size(); ++i) {
    if (i % 2 == 0) objects[i].cond = Shifted(objects[i].cond, kPastDenseCap);
    if (i % 3 == 0) {
      std::vector<SparseDistribution::Entry> e = objects[i].cond.entries();
      e.push_back({UINT32_MAX - 1, 0.5});
      objects[i].cond = SparseDistribution::FromPairs(std::move(e));
    }
  }
  ExpectPhase3MatchesReference(objects, reps, GetParam());
}

TEST_P(KernelEquivalenceTest, Phase3OneCandidateAndThreeThousand) {
  const std::vector<Dcf> objects = MixedInputs(120);
  std::mt19937 rng(61);
  ExpectPhase3MatchesReference(objects, {RandomDcf(rng, 8, 160, 0.3)},
                               GetParam());
  std::uniform_int_distribution<size_t> sd(1, 30);
  std::uniform_real_distribution<double> pd(1e-5, 1e-2);
  std::vector<Dcf> reps;
  for (int r = 0; r < 3000; ++r) {
    if (r % 50 == 49) {
      reps.push_back(reps[r / 2]);
    } else {
      reps.push_back(RandomDcf(rng, sd(rng), 160, pd(rng)));
    }
  }
  ExpectPhase3MatchesReference(objects, reps, GetParam());
}

// ---------------------------------------------------------------------------
// AIB on adversarial inputs: whatever the value index and the δI bound
// prune, every merge must match the per-pair reference, bit for bit.

/// `d` with value `id` added at `mass`, renormalized.
Dcf WithValue(const Dcf& d, uint32_t id, double mass) {
  std::vector<SparseDistribution::Entry> entries = d.cond.entries();
  entries.push_back({id, mass});
  return Dcf{d.p, SparseDistribution::FromPairs(std::move(entries)), {}};
}

/// Inputs that all hold value 500 and, but for every seventh, value 501:
/// a row that holds a value most rows hold and a row that lacks one.
std::vector<Dcf> InputsWithCommonValues(size_t q) {
  std::vector<Dcf> inputs = MixedInputs(q);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs[i] = WithValue(inputs[i], 500, 0.3);
    if (i % 7 != 3) {
      inputs[i] = WithValue(inputs[i], 501, 0.1 + 0.01 * (i % 5));
    }
  }
  return inputs;
}

// Exact copies tie at δI 0. Each input's near-copy sits at a lower id with
// a private mass of 1e-15 (a positive bound, a loss that rounds to about
// 0), and its exact copies at higher ids have bound 0, so the partner
// scored first is not the lowest id the tie must go to.
TEST_P(KernelEquivalenceTest, AibDuplicatedInputsTieAtZero) {
  const std::vector<Dcf> plain = MixedInputs(24);
  std::vector<Dcf> inputs;
  for (size_t i = 0; i < plain.size(); ++i) {
    std::vector<SparseDistribution::Entry> entries = plain[i].cond.entries();
    entries.push_back({static_cast<uint32_t>(1000 + i), 1e-15});
    inputs.push_back(Dcf{plain[i].p / 1000,
                         SparseDistribution::FromNormalizedPairs(entries),
                         {}});
  }
  for (const Dcf& d : plain) inputs.push_back(d);
  for (const Dcf& d : plain) {
    inputs.push_back(WithPrior(d, d.p / 1000));
    inputs.push_back(d);
  }
  ExpectAibMatchesReference(inputs, 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibValuesHeldByAllAndByMost) {
  ExpectAibMatchesReference(InputsWithCommonValues(60), 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibValueHeldByExactlyHalf) {
  std::vector<Dcf> inputs = MixedInputs(40);
  for (size_t i = 0; i < inputs.size(); i += 2) {
    inputs[i] = WithValue(inputs[i], 500, 0.2);
  }
  ExpectAibMatchesReference(inputs, 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibPriorsFromOneTrillionthToOne) {
  std::vector<Dcf> inputs = MixedInputs(60);
  for (size_t i = 0; i < inputs.size(); ++i) {
    inputs[i].p = std::pow(10.0, -12.0 * static_cast<double>(i * 37 % 60) /
                                     59.0);
  }
  // Copies of a few inputs at priors a million times apart.
  for (size_t i = 0; i < 60; i += 12) {
    inputs.push_back(WithPrior(inputs[i], inputs[i].p * 1e6));
    inputs.push_back(WithPrior(inputs[i], inputs[i].p * 1e-6));
  }
  ExpectAibMatchesReference(inputs, 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibZeroPriorInputs) {
  std::vector<Dcf> inputs = InputsWithCommonValues(40);
  for (size_t i = 0; i < inputs.size(); i += 5) inputs[i].p = 0.0;
  ExpectAibMatchesReference(inputs, 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibIdsPastTheDenseCap) {
  const uint32_t kPastDenseCap = (1u << 22) + 17;
  std::vector<Dcf> inputs = MixedInputs(48);
  for (size_t i = 0; i < inputs.size(); ++i) {
    if (i % 2 == 0) inputs[i].cond = Shifted(inputs[i].cond, kPastDenseCap);
    if (i % 3 == 0) inputs[i] = WithValue(inputs[i], UINT32_MAX - 1, 0.5);
  }
  ExpectAibMatchesReference(inputs, 1, GetParam());
}

TEST_P(KernelEquivalenceTest, AibMinKAtOneQMinusOneAndQ) {
  const std::vector<Dcf> inputs = InputsWithCommonValues(30);
  for (size_t min_k : {size_t{1}, inputs.size() - 1, inputs.size()}) {
    ExpectAibMatchesReference(inputs, min_k, GetParam());
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, KernelEquivalenceTest,
                         ::testing::Values(1, 4));

// The pruned search does the same work at every lane count: δI scored
// and rows rescanned are functions of the inputs alone.
TEST(AibWorkCountersTest, DblpLeavesSameAtOneTwoFourAndEightLanes) {
  const std::vector<Dcf> leaves = DblpLeaves(DblpTupleObjects(), 1);
  ASSERT_GT(leaves.size(), 100u);
  obs::SetEnabled(true);
  std::vector<uint64_t> evals;
  std::vector<uint64_t> rescans;
  for (size_t threads : {1, 2, 4, 8}) {
    obs::ResetCounters();
    AibOptions options;
    options.threads = threads;
    auto result = AgglomerativeIb(leaves, options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(obs::GetCounter("aib.distance_evals").Value(),
              result->stats().distance_evals);
    evals.push_back(result->stats().distance_evals);
    rescans.push_back(obs::GetCounter("aib.nn_cache.misses").Value());
  }
  obs::SetEnabled(false);
  EXPECT_GT(evals[0], 0u);
  EXPECT_GT(rescans[0], 0u);
  for (size_t i = 1; i < evals.size(); ++i) {
    EXPECT_EQ(evals[i], evals[0]) << i;
    EXPECT_EQ(rescans[i], rescans[0]) << i;
  }
}

}  // namespace
}  // namespace limbo::core
