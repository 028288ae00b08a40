// Goldens for every derived tool that runs a Phase-1 summary pass at the
// paper's φ·I(V;T)/q threshold: duplicate-tuple detection, value
// clustering (plain and over Double-Clustering tuple labels) and the
// one-call structure summary, whose digest also covers its exact
// attribute grouping. Each case pins the IEEE bits of I(V;T) and the
// threshold plus an FNV-1a digest of the leaves, labels and groups, on
// DB2 and on 3k DBLP tuples (above the structure summary's
// large-relation cutoff, so the Double-Clustering and TANE path runs),
// at 1 and 4 worker lanes.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/attribute_grouping.h"
#include "core/limbo.h"
#include "core/structure_summary.h"
#include "core/tuple_clustering.h"
#include "core/value_clustering.h"
#include "datagen/db2_sample.h"
#include "datagen/dblp.h"

namespace limbo::core {
namespace {

/// FNV-1a over the little-endian bytes of 64-bit words.
class Digest {
 public:
  void Add(uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      value_ ^= (word >> (8 * byte)) & 0xff;
      value_ *= 1099511628211ull;
    }
  }
  void Add(double x) { Add(std::bit_cast<uint64_t>(x)); }
  void Add(const Dcf& dcf) {
    Add(dcf.p);
    Add(static_cast<uint64_t>(dcf.cond.entries().size()));
    for (const auto& e : dcf.cond.entries()) {
      Add(static_cast<uint64_t>(e.id));
      Add(e.mass);
    }
    Add(static_cast<uint64_t>(dcf.attr_counts.size()));
    for (uint64_t c : dcf.attr_counts) Add(c);
  }
  template <typename T>
  void AddIds(const std::vector<T>& ids) {
    Add(static_cast<uint64_t>(ids.size()));
    for (T id : ids) Add(static_cast<uint64_t>(id));
  }
  uint64_t value() const { return value_; }

 private:
  uint64_t value_ = 1469598103934665603ull;
};

/// I(V;T) bits, threshold bits, and the digest of everything else.
struct Pinned {
  uint64_t mutual_information;
  uint64_t threshold;
  uint64_t digest;
};

void AddDuplicates(const DuplicateTupleReport& r, Digest* d) {
  d->Add(std::bit_cast<uint64_t>(r.mutual_information));
  d->Add(std::bit_cast<uint64_t>(r.threshold));
  d->Add(static_cast<uint64_t>(r.num_leaves));
  d->Add(static_cast<uint64_t>(r.num_heavy_leaves));
  d->Add(static_cast<uint64_t>(r.groups.size()));
  for (const DuplicateTupleGroup& g : r.groups) {
    d->AddIds(g.tuples);
    d->Add(g.summary_mass);
  }
}

void AddValues(const ValueClusteringResult& r, Digest* d) {
  d->Add(std::bit_cast<uint64_t>(r.mutual_information));
  d->Add(std::bit_cast<uint64_t>(r.threshold));
  d->Add(static_cast<uint64_t>(r.groups.size()));
  for (const ValueGroup& g : r.groups) {
    d->AddIds(g.values);
    d->Add(g.dcf);
    d->Add(static_cast<uint64_t>(g.is_duplicate));
  }
  d->AddIds(r.duplicate_groups);
}

void AddGrouping(const AttributeGroupingResult& r, Digest* d) {
  d->AddIds(r.attributes);
  d->Add(static_cast<uint64_t>(r.aib.num_objects()));
  for (const Merge& m : r.aib.merges()) {
    d->Add(static_cast<uint64_t>(m.left));
    d->Add(static_cast<uint64_t>(m.right));
    d->Add(static_cast<uint64_t>(m.merged));
    d->Add(m.delta_i);
    d->Add(m.cumulative_loss);
    d->Add(m.p_merged);
  }
  for (const fd::AttributeSet& s : r.cluster_members) d->Add(s.bits());
  d->Add(r.max_merge_loss);
}

Pinned PinDuplicates(const relation::Relation& rel) {
  DuplicateTupleOptions options;
  options.phi_t = 0.1;
  auto r = FindDuplicateTuples(rel, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  Digest d;
  AddDuplicates(*r, &d);
  return {std::bit_cast<uint64_t>(r->mutual_information),
          std::bit_cast<uint64_t>(r->threshold), d.value()};
}

Pinned PinValues(const relation::Relation& rel,
                 const ValueClusteringOptions& options) {
  auto r = ClusterValues(rel, options);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return {};
  Digest d;
  AddValues(*r, &d);
  return {std::bit_cast<uint64_t>(r->mutual_information),
          std::bit_cast<uint64_t>(r->threshold), d.value()};
}

/// Value clustering over Double-Clustering tuple labels: tuples are
/// summarized at φ_T = 0.5 and every tuple joins its closest leaf.
Pinned PinDoubleClusteredValues(const relation::Relation& rel,
                                size_t threads) {
  const std::vector<Dcf> objects = BuildTupleObjects(rel);
  LimboOptions limbo_options;
  limbo_options.phi = 0.5;
  limbo_options.threads = threads;
  auto tuples = RunLimbo(objects, limbo_options);
  EXPECT_TRUE(tuples.ok()) << tuples.status().ToString();
  if (!tuples.ok()) return {};
  auto labels = LimboPhase3(objects, tuples->leaves, nullptr, threads);
  EXPECT_TRUE(labels.ok());
  if (!labels.ok()) return {};
  ValueClusteringOptions options;
  options.phi_v = 0.2;
  options.tuple_labels = &*labels;
  options.num_tuple_clusters = tuples->leaves.size();
  Pinned pinned = PinValues(rel, options);
  Digest d;
  d.Add(pinned.digest);
  d.AddIds(*labels);
  pinned.digest = d.value();
  return pinned;
}

uint64_t PinSummary(const relation::Relation& rel) {
  auto r = SummarizeStructure(rel);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return 0;
  Digest d;
  AddDuplicates(r->duplicates, &d);
  AddValues(r->values, &d);
  d.Add(static_cast<uint64_t>(r->has_grouping));
  if (r->has_grouping) AddGrouping(r->grouping, &d);
  d.Add(static_cast<uint64_t>(r->num_fds));
  for (const RankedFd& f : r->ranked_cover) {
    d.Add(f.fd.lhs.bits());
    d.Add(f.fd.rhs.bits());
    d.Add(f.rank);
    d.Add(static_cast<uint64_t>(f.anchored));
  }
  return d.value();
}

struct Golden {
  Pinned duplicates;
  Pinned values;
  Pinned double_clustered_values;
  uint64_t summary;
};

void ExpectPinned(const Pinned& got, const Pinned& want, const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(got.mutual_information, want.mutual_information);
  EXPECT_EQ(got.threshold, want.threshold);
  EXPECT_EQ(got.digest, want.digest);
}

void ExpectGolden(const relation::Relation& rel, const Golden& want,
                  size_t threads) {
  ExpectPinned(PinDuplicates(rel), want.duplicates, "FindDuplicateTuples");
  ValueClusteringOptions plain;
  plain.phi_v = 0.2;
  ExpectPinned(PinValues(rel, plain), want.values, "ClusterValues");
  ExpectPinned(PinDoubleClusteredValues(rel, threads),
               want.double_clustered_values, "ClusterValues over DC labels");
  EXPECT_EQ(PinSummary(rel), want.summary) << "SummarizeStructure";
}

// Recorded while each tool still derived φ·I(V;T)/q itself, so a match
// shows that SummarizePhase1 keeps every bit.
constexpr Golden kDb2 = {
    {4613166254154553935ull, 4568954697418585119ull, 8259870063614967383ull},
    {4615863359995472235ull, 4571162348947665555ull, 90860287695098178ull},
    {4614490841563050267ull, 4569744214312450162ull, 16497549645923350568ull},
    10276206303144237157ull,
};

constexpr Golden kDblp3k = {
    {4613346984317435453ull, 4546361773818618451ull, 9286772507700738962ull},
    {4621893959158554339ull, 4560057056331866990ull, 944490928887089000ull},
    {4616553226568609524ull, 4554538239350031828ull, 5015615240279650383ull},
    9135941879326681012ull,
};

/// The lane count under test. Calls without a threads option resolve
/// their lanes through LIMBO_THREADS, read once per process; ctest runs
/// every test in its own process, so setting it first reaches them too.
class Phase1GoldenTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    setenv("LIMBO_THREADS", std::to_string(GetParam()).c_str(), 1);
  }
};

TEST_P(Phase1GoldenTest, Db2) {
  auto rel = datagen::Db2Sample::JoinedRelation();
  ASSERT_TRUE(rel.ok());
  ExpectGolden(*rel, kDb2, GetParam());
}

TEST_P(Phase1GoldenTest, Dblp3k) {
  datagen::DblpOptions dblp;
  dblp.target_tuples = 3000;
  const relation::Relation rel = datagen::GenerateDblp(dblp);
  ASSERT_GT(rel.NumTuples(),
            StructureSummaryOptions().large_relation_threshold);
  ExpectGolden(rel, kDblp3k, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Lanes, Phase1GoldenTest, ::testing::Values(1, 4));

}  // namespace
}  // namespace limbo::core
