#include "model/model_bundle.h"

#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "model/fit.h"
#include "model/refit.h"
#include "relation/relation.h"
#include "relation/row_source.h"
#include "serve/engine.h"
#include "util/status.h"

namespace limbo::model {
namespace {

// Bit-exact double comparison: round-tripping a bundle must not perturb a
// single mantissa bit, or serve-side assignments drift from the batch run.
void ExpectBitEqual(double a, double b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(double)), 0)
      << "doubles differ: " << a << " vs " << b;
}

std::vector<std::vector<std::string>> TestRows() {
  // City/State/Zip co-occur perfectly (value groups + FDs); the repeated
  // Boston row makes its tuple cluster heavy (duplicates).
  return {
      {"Boston", "MA", "02134", "alice"}, {"Boston", "MA", "02134", "alice"},
      {"Boston", "MA", "02134", "alice"}, {"Boston", "MA", "02134", "alice"},
      {"Denver", "CO", "80201", "bob"},   {"Denver", "CO", "80201", "carol"},
      {"Miami", "FL", "33101", "dave"},   {"Miami", "FL", "33101", "erin"},
      {"Austin", "TX", "73301", "frank"}, {"Austin", "TX", "73301", "grace"},
      {"Salem", "OR", "97301", "heidi"},  {"Salem", "OR", "97301", "ivan"},
  };
}

relation::Relation TestRelation() {
  auto schema =
      relation::Schema::Create({"City", "State", "Zip", "Name"});
  EXPECT_TRUE(schema.ok());
  relation::RelationBuilder builder(std::move(schema).value());
  for (const auto& row : TestRows()) {
    EXPECT_TRUE(builder.AddRow(row).ok());
  }
  return std::move(builder).Build();
}

ModelBundle FittedBundle(bool mine_schemes = true) {
  FitOptions options;
  options.k = 3;
  // Schemes on by default so the tag-11 section sits inside every
  // truncation/bit-flip/corruption fixture below.
  options.mine_schemes = mine_schemes;
  auto bundle = FitModel(TestRelation(), options);
  EXPECT_TRUE(bundle.ok()) << bundle.status().ToString();
  return std::move(bundle).value();
}

void ExpectEqualBundles(const ModelBundle& a, const ModelBundle& b) {
  EXPECT_EQ(a.num_rows, b.num_rows);
  ExpectBitEqual(a.phi_t, b.phi_t);
  ExpectBitEqual(a.phi_v, b.phi_v);
  ExpectBitEqual(a.psi, b.psi);
  ExpectBitEqual(a.mutual_information, b.mutual_information);
  ExpectBitEqual(a.threshold, b.threshold);
  ExpectBitEqual(a.association_margin, b.association_margin);
  ExpectBitEqual(a.value_mutual_information, b.value_mutual_information);
  ExpectBitEqual(a.value_threshold, b.value_threshold);

  EXPECT_EQ(a.schema.Names(), b.schema.Names());
  ASSERT_EQ(a.dictionary.NumValues(), b.dictionary.NumValues());
  for (relation::ValueId v = 0; v < a.dictionary.NumValues(); ++v) {
    EXPECT_EQ(a.dictionary.Attribute(v), b.dictionary.Attribute(v));
    EXPECT_EQ(a.dictionary.Text(v), b.dictionary.Text(v));
    EXPECT_EQ(a.dictionary.Support(v), b.dictionary.Support(v));
  }

  ASSERT_EQ(a.representatives.size(), b.representatives.size());
  for (size_t r = 0; r < a.representatives.size(); ++r) {
    const core::Dcf& x = a.representatives[r];
    const core::Dcf& y = b.representatives[r];
    ExpectBitEqual(x.p, y.p);
    ASSERT_EQ(x.cond.entries().size(), y.cond.entries().size());
    for (size_t i = 0; i < x.cond.entries().size(); ++i) {
      EXPECT_EQ(x.cond.entries()[i].id, y.cond.entries()[i].id);
      ExpectBitEqual(x.cond.entries()[i].mass, y.cond.entries()[i].mass);
    }
    EXPECT_EQ(x.attr_counts, y.attr_counts);
  }

  EXPECT_EQ(a.assignments, b.assignments);
  ASSERT_EQ(a.assignment_loss.size(), b.assignment_loss.size());
  for (size_t i = 0; i < a.assignment_loss.size(); ++i) {
    ExpectBitEqual(a.assignment_loss[i], b.assignment_loss[i]);
  }

  ASSERT_EQ(a.value_groups.size(), b.value_groups.size());
  for (size_t g = 0; g < a.value_groups.size(); ++g) {
    EXPECT_EQ(a.value_groups[g].values, b.value_groups[g].values);
    EXPECT_EQ(a.value_groups[g].is_duplicate, b.value_groups[g].is_duplicate);
    ExpectBitEqual(a.value_groups[g].dcf.p, b.value_groups[g].dcf.p);
    EXPECT_EQ(a.value_groups[g].dcf.attr_counts,
              b.value_groups[g].dcf.attr_counts);
    ASSERT_EQ(a.value_groups[g].dcf.cond.entries().size(),
              b.value_groups[g].dcf.cond.entries().size());
    for (size_t i = 0; i < a.value_groups[g].dcf.cond.entries().size(); ++i) {
      EXPECT_EQ(a.value_groups[g].dcf.cond.entries()[i].id,
                b.value_groups[g].dcf.cond.entries()[i].id);
      ExpectBitEqual(a.value_groups[g].dcf.cond.entries()[i].mass,
                     b.value_groups[g].dcf.cond.entries()[i].mass);
    }
  }
  EXPECT_EQ(a.duplicate_groups, b.duplicate_groups);

  EXPECT_EQ(a.has_grouping, b.has_grouping);
  EXPECT_EQ(a.grouping_attributes, b.grouping_attributes);
  EXPECT_EQ(a.grouping_num_objects, b.grouping_num_objects);
  ASSERT_EQ(a.grouping_merges.size(), b.grouping_merges.size());
  for (size_t i = 0; i < a.grouping_merges.size(); ++i) {
    EXPECT_EQ(a.grouping_merges[i].left, b.grouping_merges[i].left);
    EXPECT_EQ(a.grouping_merges[i].right, b.grouping_merges[i].right);
    EXPECT_EQ(a.grouping_merges[i].merged, b.grouping_merges[i].merged);
    ExpectBitEqual(a.grouping_merges[i].delta_i, b.grouping_merges[i].delta_i);
    ExpectBitEqual(a.grouping_merges[i].cumulative_loss,
                   b.grouping_merges[i].cumulative_loss);
    ExpectBitEqual(a.grouping_merges[i].p_merged, b.grouping_merges[i].p_merged);
  }
  EXPECT_EQ(a.grouping_cluster_members, b.grouping_cluster_members);
  ExpectBitEqual(a.max_merge_loss, b.max_merge_loss);

  EXPECT_EQ(a.num_fds, b.num_fds);
  ASSERT_EQ(a.ranked_fds.size(), b.ranked_fds.size());
  for (size_t i = 0; i < a.ranked_fds.size(); ++i) {
    EXPECT_EQ(a.ranked_fds[i].fd.lhs, b.ranked_fds[i].fd.lhs);
    EXPECT_EQ(a.ranked_fds[i].fd.rhs, b.ranked_fds[i].fd.rhs);
    ExpectBitEqual(a.ranked_fds[i].rank, b.ranked_fds[i].rank);
    EXPECT_EQ(a.ranked_fds[i].anchored, b.ranked_fds[i].anchored);
  }

  ASSERT_EQ(a.has_phase1_tree, b.has_phase1_tree);
  if (a.has_phase1_tree) {
    // The frozen-tree sections must round-trip bit-exactly, or a refit of
    // a loaded bundle diverges from a refit of the in-memory one. Byte
    // comparison of the serialized trees covers every node, entry id and
    // double in one shot.
    const std::string ta = SerializeBundle(a);
    const std::string tb = SerializeBundle(b);
    EXPECT_EQ(ta, tb);
    EXPECT_EQ(a.phase1_tree.stats.num_leaf_entries,
              b.phase1_tree.stats.num_leaf_entries);
    EXPECT_EQ(a.phase1_tree.stats.num_inserts, b.phase1_tree.stats.num_inserts);
    EXPECT_EQ(a.row_entry_ids, b.row_entry_ids);
  }
  ASSERT_EQ(a.has_lineage, b.has_lineage);
  if (a.has_lineage) {
    EXPECT_EQ(a.lineage.parent_checksum, b.lineage.parent_checksum);
    EXPECT_EQ(a.lineage.refit_generation, b.lineage.refit_generation);
    EXPECT_EQ(a.lineage.drift_class, b.lineage.drift_class);
    EXPECT_EQ(a.lineage.base_rows, b.lineage.base_rows);
    EXPECT_EQ(a.lineage.rows_absorbed, b.lineage.rows_absorbed);
    EXPECT_EQ(a.lineage.total_rows_absorbed, b.lineage.total_rows_absorbed);
    ExpectBitEqual(a.lineage.drift_score, b.lineage.drift_score);
    ExpectBitEqual(a.lineage.drift_moderate, b.lineage.drift_moderate);
    ExpectBitEqual(a.lineage.drift_severe, b.lineage.drift_severe);
    ExpectBitEqual(a.lineage.entropy_drift, b.lineage.entropy_drift);
  }

  ASSERT_EQ(a.has_schemes, b.has_schemes);
  if (a.has_schemes) {
    ExpectBitEqual(a.schemes_epsilon, b.schemes_epsilon);
    EXPECT_EQ(a.schemes_max_separator, b.schemes_max_separator);
    ExpectBitEqual(a.schemes_total_entropy, b.schemes_total_entropy);
    ASSERT_EQ(a.schemes.size(), b.schemes.size());
    for (size_t i = 0; i < a.schemes.size(); ++i) {
      EXPECT_EQ(a.schemes[i].separator_bits, b.schemes[i].separator_bits);
      EXPECT_EQ(a.schemes[i].bag_bits, b.schemes[i].bag_bits);
      ExpectBitEqual(a.schemes[i].j_measure, b.schemes[i].j_measure);
    }
  }
}

TEST(FitModelTest, ProducesConsistentBundle) {
  const relation::Relation rel = TestRelation();
  const ModelBundle bundle = FittedBundle();
  EXPECT_EQ(bundle.num_rows, rel.NumTuples());
  EXPECT_EQ(bundle.schema.Names(), rel.schema().Names());
  EXPECT_EQ(bundle.dictionary.NumValues(), rel.NumValues());
  ASSERT_FALSE(bundle.representatives.empty());
  ASSERT_EQ(bundle.assignments.size(), rel.NumTuples());
  ASSERT_EQ(bundle.assignment_loss.size(), rel.NumTuples());
  for (uint32_t label : bundle.assignments) {
    EXPECT_LT(label, bundle.representatives.size());
  }
  EXPECT_GT(bundle.mutual_information, 0.0);
  EXPECT_GT(bundle.threshold, 0.0);
  EXPECT_FALSE(bundle.value_groups.empty());
}

TEST(FitModelTest, RejectsEmptyRelation) {
  auto schema = relation::Schema::Create({"A"});
  ASSERT_TRUE(schema.ok());
  relation::RelationBuilder builder(std::move(schema).value());
  auto bundle = FitModel(std::move(builder).Build(), FitOptions());
  ASSERT_FALSE(bundle.ok());
  EXPECT_EQ(bundle.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ModelBundleTest, RoundTripIsFieldExact) {
  const ModelBundle bundle = FittedBundle();
  const std::string bytes = SerializeBundle(bundle);
  auto parsed = ParseBundle(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectEqualBundles(bundle, *parsed);
}

TEST(ModelBundleTest, SerializationIsDeterministic) {
  const ModelBundle bundle = FittedBundle();
  EXPECT_EQ(SerializeBundle(bundle), SerializeBundle(bundle));
}

// Fit and refit store the derived structure through StoreStructure, and
// a refit that keeps its parent's dendrogram reads it back through
// StoredGrouping: storing what was read back rewrites the same bytes,
// and a null grouping leaves the stored dendrogram in place.
TEST(ModelBundleTest, StoreStructureAndStoredGroupingAreInverses) {
  const ModelBundle fit = FittedBundle();
  ASSERT_TRUE(fit.has_grouping);
  const core::AttributeGroupingResult grouping = StoredGrouping(fit);
  core::ValueClusteringResult values;
  values.groups = fit.value_groups;
  values.duplicate_groups.assign(fit.duplicate_groups.begin(),
                                 fit.duplicate_groups.end());
  values.mutual_information = fit.value_mutual_information;
  values.threshold = fit.value_threshold;

  ModelBundle stored = fit;
  stored.value_mutual_information = 0.0;
  stored.value_threshold = 0.0;
  stored.value_groups.clear();
  stored.duplicate_groups.clear();
  stored.has_grouping = false;
  stored.grouping_attributes.clear();
  stored.grouping_num_objects = 0;
  stored.grouping_merges.clear();
  stored.grouping_cluster_members.clear();
  stored.max_merge_loss = 0.0;
  StoreStructure(values, &grouping, &stored);
  EXPECT_EQ(SerializeBundle(stored), SerializeBundle(fit));

  ModelBundle kept = fit;
  StoreStructure(values, nullptr, &kept);
  EXPECT_EQ(SerializeBundle(kept), SerializeBundle(fit));
}

TEST(ModelBundleTest, FileRoundTrip) {
  const ModelBundle bundle = FittedBundle();
  const std::string path = testing::TempDir() + "/round_trip.limbo";
  ASSERT_TRUE(Save(bundle, path).ok());
  auto loaded = Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectEqualBundles(bundle, *loaded);
}

TEST(ModelBundleTest, LoadRejectsMissingFile) {
  auto loaded = Load(testing::TempDir() + "/definitely_not_there.limbo");
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIoError);
}

TEST(ModelBundleTest, RejectsEveryTruncation) {
  const std::string bytes = SerializeBundle(FittedBundle());
  // Every header prefix, then a sweep through the payload: a truncated
  // file must never parse and never crash.
  for (size_t len = 0; len < bytes.size(); len += (len < 64 ? 1 : 97)) {
    auto parsed = ParseBundle(bytes.substr(0, len));
    EXPECT_FALSE(parsed.ok()) << "prefix of " << len << " bytes parsed";
  }
}

TEST(ModelBundleTest, RejectsTrailingGarbage) {
  std::string bytes = SerializeBundle(FittedBundle());
  bytes += "extra";
  auto parsed = ParseBundle(bytes);
  ASSERT_FALSE(parsed.ok());
}

TEST(ModelBundleTest, RejectsBadMagic) {
  std::string bytes = SerializeBundle(FittedBundle());
  bytes[0] = 'X';
  auto parsed = ParseBundle(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(ModelBundleTest, RejectsVersionBump) {
  std::string bytes = SerializeBundle(FittedBundle());
  // The format version is the u32 right after the 8-byte magic; the
  // checksum covers only the payload, so the bumped header is otherwise
  // intact — the version check alone must reject it.
  uint32_t version = 0;
  std::memcpy(&version, bytes.data() + 8, sizeof(version));
  ASSERT_EQ(version, kFormatVersion);
  version = kFormatVersion + 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  auto parsed = ParseBundle(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().message().find("version"), std::string::npos);
}

TEST(ModelBundleTest, BitFlipFuzzAlwaysYieldsTypedError) {
  const std::string bytes = SerializeBundle(FittedBundle());
  // Any single-bit flip lands in the header (structural checks fail) or
  // in the payload (the FNV-1a checksum fails). Either way the result is
  // a clean error — never a crash, never a silently different bundle.
  std::mt19937 rng(20260806);
  std::uniform_int_distribution<size_t> pick_byte(0, bytes.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  for (int i = 0; i < 400; ++i) {
    std::string corrupt = bytes;
    corrupt[pick_byte(rng)] ^= static_cast<char>(1 << pick_bit(rng));
    auto parsed = ParseBundle(corrupt);
    EXPECT_FALSE(parsed.ok()) << "bit-flipped bundle parsed on iteration "
                              << i;
  }
}

TEST(ModelBundleTest, MultiByteCorruptionFuzz) {
  const std::string bytes = SerializeBundle(FittedBundle());
  std::mt19937 rng(987654321);
  std::uniform_int_distribution<size_t> pick_byte(0, bytes.size() - 1);
  std::uniform_int_distribution<int> pick_value(0, 255);
  for (int i = 0; i < 200; ++i) {
    std::string corrupt = bytes;
    for (int j = 0; j < 8; ++j) {
      corrupt[pick_byte(rng)] = static_cast<char>(pick_value(rng));
    }
    auto parsed = ParseBundle(corrupt);
    if (parsed.ok()) {
      // Astronomically unlikely (the random rewrite must preserve the
      // checksum), but if it happens the bundle must be the original.
      ExpectEqualBundles(*ParseBundle(bytes), *parsed);
    }
  }
}

TEST(ModelBundleTest, FitCarriesRefitState) {
  const ModelBundle bundle = FittedBundle();
  ASSERT_TRUE(bundle.has_phase1_tree);
  EXPECT_EQ(bundle.phase1_tree.stats.num_inserts, bundle.num_rows);
  ASSERT_EQ(bundle.row_entry_ids.size(), bundle.num_rows);
  for (uint32_t id : bundle.row_entry_ids) {
    EXPECT_LT(id, bundle.phase1_tree.stats.num_leaf_entries);
  }
  EXPECT_FALSE(bundle.has_lineage);
}

TEST(ModelBundleTest, NoRefitStateOptOut) {
  FitOptions options;
  options.k = 3;
  options.refit_state = false;
  auto bundle = FitModel(TestRelation(), options);
  ASSERT_TRUE(bundle.ok());
  EXPECT_FALSE(bundle->has_phase1_tree);
  EXPECT_TRUE(bundle->row_entry_ids.empty());
}

// Backward compat: a version-1 file (no refit sections) must still load.
// A v1 fixture is crafted by fitting without refit state and patching the
// header's version word — the checksum covers only the payload, so the
// header edit is otherwise invisible.
TEST(ModelBundleTest, ReadsVersion1Files) {
  FitOptions options;
  options.k = 3;
  options.refit_state = false;
  auto bundle = FitModel(TestRelation(), options);
  ASSERT_TRUE(bundle.ok());
  std::string bytes = SerializeBundle(*bundle);
  uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  auto parsed = ParseBundle(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->format_version, 1u);
  EXPECT_FALSE(parsed->has_phase1_tree);
  EXPECT_FALSE(parsed->has_lineage);
  ExpectEqualBundles(*bundle, *parsed);
}

// A v1 header over a payload that carries the v2-only refit sections is
// structurally inconsistent and must be rejected, not silently accepted.
TEST(ModelBundleTest, RejectsRefitSectionsUnderVersion1Header) {
  std::string bytes = SerializeBundle(FittedBundle());
  uint32_t version = 1;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  auto parsed = ParseBundle(bytes);
  ASSERT_FALSE(parsed.ok());
}

TEST(ModelBundleTest, SchemesSectionRoundTrips) {
  const ModelBundle bundle = FittedBundle();
  ASSERT_TRUE(bundle.has_schemes);
  EXPECT_GT(bundle.schemes_total_entropy, 0.0);
  for (const BundleScheme& s : bundle.schemes) {
    EXPECT_GE(s.bag_bits.size(), 2u);
    EXPECT_GE(s.j_measure, 0.0);
  }
  auto parsed = ParseBundle(SerializeBundle(bundle));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ExpectEqualBundles(bundle, *parsed);
}

// A pre-v3 bundle (no schemes section) must still load — and the schemes
// fields come back empty, which is what routes the serve-side `schemes`
// query to its typed no_schemes error instead of a crash.
TEST(ModelBundleTest, ReadsVersion2FilesWithoutSchemes) {
  const ModelBundle bundle = FittedBundle(/*mine_schemes=*/false);
  ASSERT_FALSE(bundle.has_schemes);
  std::string bytes = SerializeBundle(bundle);
  uint32_t version = 2;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  auto parsed = ParseBundle(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->format_version, 2u);
  EXPECT_FALSE(parsed->has_schemes);
  EXPECT_TRUE(parsed->schemes.empty());
}

// A v2 header over a payload carrying the v3-only schemes section is
// structurally inconsistent: tag 11 exceeds v2's maximum known tag.
TEST(ModelBundleTest, RejectsSchemesSectionUnderVersion2Header) {
  std::string bytes = SerializeBundle(FittedBundle());
  uint32_t version = 2;
  std::memcpy(bytes.data() + 8, &version, sizeof(version));
  auto parsed = ParseBundle(bytes);
  ASSERT_FALSE(parsed.ok());
}

TEST(Fnv1aTest, MatchesKnownVectors) {
  // Reference values from the FNV specification.
  EXPECT_EQ(Fnv1a("", 0), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a("a", 1), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a("foobar", 6), 0x85944171f73967e8ull);
}

// The dictionary re-hydration satellite: interning the fit-time rows into
// a fresh builder over the loaded bundle's schema reproduces the original
// value ids in row-major order — so a served bundle and the CSV it was
// fitted on agree on every id without shipping the id map separately.
TEST(ModelBundleTest, DictionaryRehydrationReproducesValueIds) {
  const relation::Relation rel = TestRelation();
  const std::string path = testing::TempDir() + "/rehydrate.limbo";
  {
    FitOptions options;
    options.k = 3;
    auto bundle = FitModel(rel, options);
    ASSERT_TRUE(bundle.ok());
    ASSERT_TRUE(Save(*bundle, path).ok());
  }
  auto loaded = Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Loaded dictionary answers Find() with the original ids.
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    for (relation::AttributeId a = 0; a < rel.NumAttributes(); ++a) {
      auto found = loaded->dictionary.Find(a, rel.TextAt(t, a));
      ASSERT_TRUE(found.ok());
      EXPECT_EQ(*found, rel.At(t, a));
    }
  }

  // And re-interning the same rows in row-major order assigns the same
  // ids from scratch (RelationBuilder's intern order is deterministic).
  relation::RelationBuilder builder(loaded->schema);
  for (const auto& row : TestRows()) {
    ASSERT_TRUE(builder.AddRow(row).ok());
  }
  const relation::Relation rebuilt = std::move(builder).Build();
  ASSERT_EQ(rebuilt.NumValues(), loaded->dictionary.NumValues());
  for (relation::ValueId v = 0; v < rebuilt.NumValues(); ++v) {
    EXPECT_EQ(rebuilt.dictionary().Text(v), loaded->dictionary.Text(v));
    EXPECT_EQ(rebuilt.dictionary().Attribute(v),
              loaded->dictionary.Attribute(v));
    EXPECT_EQ(rebuilt.dictionary().Support(v),
              loaded->dictionary.Support(v));
  }
}


// ---- Wire-level fixtures for the rejection table and the resealed fuzz.
// The layout is restated here on purpose: a test must not trust the codec
// it checks. ----

constexpr size_t kHeaderBytes = 32;  // magic, version, reserved, length, sum
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
// An element count that no section of these fixtures could hold.
constexpr uint64_t kHugeCount = uint64_t{1} << 40;

enum Tag : uint32_t {
  kMeta = 1,
  kSchema = 2,
  kDictionary = 3,
  kRepresentatives = 4,
  kAssignments = 5,
  kValueGroups = 6,
  kGrouping = 7,
  kRankedFds = 8,
  kPhase1Tree = 9,
  kLineage = 10,
  kSchemes = 11,
};

template <class T>
T Peek(const std::string& bytes, size_t at) {
  T v{};
  if (at + sizeof(T) > bytes.size()) {
    ADD_FAILURE() << "peek past the end at " << at;
    return v;
  }
  std::memcpy(&v, bytes.data() + at, sizeof(T));
  return v;
}

template <class T>
void Poke(std::string* bytes, size_t at, T v) {
  if (at + sizeof(T) > bytes->size()) {
    ADD_FAILURE() << "poke past the end at " << at;
    return;
  }
  std::memcpy(bytes->data() + at, &v, sizeof(T));
}

template <class T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

void PutStr(std::string* out, const std::string& s) {
  Put<uint64_t>(out, s.size());
  out->append(s);
}

/// Rewrites the header's payload length (bytes 16..24) and its FNV-1a
/// checksum (bytes 24..32) for the payload as it now stands.
void Reseal(std::string* bytes) {
  const size_t len = bytes->size() - kHeaderBytes;
  Poke<uint64_t>(bytes, 16, len);
  Poke<uint64_t>(bytes, 24, Fnv1a(bytes->data() + kHeaderBytes, len));
}

struct SectionSpan {
  size_t header = 0;  // offset of the section's tag word
  size_t body = 0;
  uint64_t len = 0;
};

SectionSpan FindSection(const std::string& bytes, uint32_t tag) {
  for (size_t at = kHeaderBytes; at + 16 <= bytes.size();) {
    const uint64_t len = Peek<uint64_t>(bytes, at + 8);
    if (Peek<uint32_t>(bytes, at) == tag) return {at, at + 16, len};
    at += 16 + len;
  }
  ADD_FAILURE() << "no section " << tag;
  return {};
}

/// Replaces `erase` bytes at `at`, inside section `tag`, with `insert`,
/// then fixes the section length and reseals.
void Splice(std::string* bytes, uint32_t tag, size_t at, size_t erase,
            const std::string& insert) {
  const SectionSpan s = FindSection(*bytes, tag);
  bytes->replace(at, erase, insert);
  Poke<uint64_t>(bytes, s.header + 8, s.len - erase + insert.size());
  Reseal(bytes);
}

void ReplaceBody(std::string* bytes, uint32_t tag, const std::string& body) {
  const SectionSpan s = FindSection(*bytes, tag);
  Splice(bytes, tag, s.body, s.len, body);
}

/// Wire size of a DCF: mass, support count, (u32 id, f64 mass) entries,
/// count-row length, counts.
size_t DcfBytes(const core::Dcf& d) {
  return 8 + 8 + 12 * d.cond.SupportSize() + 8 + 8 * d.attr_counts.size();
}

/// Offset of the first leaf, in write order, of a phase-1 node written at
/// `at`: an internal node is its is_leaf byte and child count, then per
/// child the mass, the accumulator count and its (id, mass) entries.
size_t FirstLeafOffset(const core::FrozenDcfNode& node, size_t at) {
  if (node.is_leaf) return at;
  const core::FrozenDcfChild& c = node.children[0];
  return FirstLeafOffset(c.node, at + 1 + 8 + 8 + 8 + 12 * c.acc_ids.size());
}

template <class Node>
Node& FirstLeaf(Node& node) {
  return node.is_leaf ? node : FirstLeaf(node.children[0].node);
}

/// The first leaf, in write order, holding at least `min_entries`.
core::FrozenDcfNode* LeafWith(core::FrozenDcfNode& node, size_t min_entries) {
  if (node.is_leaf) {
    return node.entries.size() >= min_entries ? &node : nullptr;
  }
  for (core::FrozenDcfChild& c : node.children) {
    if (core::FrozenDcfNode* leaf = LeafWith(c.node, min_entries)) return leaf;
  }
  return nullptr;
}

std::string RowsCsv() {
  std::string csv = "City,State,Zip,Name\n";
  for (const auto& row : TestRows()) {
    for (size_t a = 0; a < row.size(); ++a) {
      csv += (a > 0 ? "," : "") + row[a];
    }
    csv += "\n";
  }
  return csv;
}

/// A refit child of `parent` over `csv`, so the fixture carries lineage.
ModelBundle RefitChild(const ModelBundle& parent, const std::string& csv) {
  auto source = relation::CsvStringSource::Open(csv);
  EXPECT_TRUE(source.ok()) << source.status().ToString();
  if (!source.ok()) return {};
  auto result = RefitModel(parent, *source);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok()) return {};
  EXPECT_TRUE(result->bundle.has_lineage);
  return std::move(result->bundle);
}

void ExpectTypedBundleError(const util::Status& status) {
  EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
      << status.ToString();
  EXPECT_EQ(status.message().rfind("model bundle:", 0), 0u)
      << status.ToString();
}

// ---- Per-check rejection table: one case per check of the section
// bodies, each a fitted bundle with one violation. In-memory edits go
// through the writer; what the writer cannot express (a boolean byte of
// 2, an oversized count, a malformed offset, a bad DCF entry) is patched
// into the bytes, which are then resealed so the payload checksum passes
// and the section validator is what must refuse. ----

struct Rejection {
  std::string name;
  std::string needle;  // a phrase the error message must contain
  std::string bytes;
};

class Cases {
 public:
  void Edit(const std::string& name, const std::string& needle,
            const ModelBundle& base,
            const std::function<void(ModelBundle&)>& edit) {
    ModelBundle b = base;
    edit(b);
    list_.push_back({name, needle, SerializeBundle(b)});
  }

  void Patch(const std::string& name, const std::string& needle,
             const ModelBundle& base,
             const std::function<void(std::string*)>& patch) {
    std::string bytes = SerializeBundle(base);
    patch(&bytes);
    Reseal(&bytes);
    list_.push_back({name, needle, std::move(bytes)});
  }

  /// Overwrites the u64 count at `offset` bytes into section `tag`.
  void HugeCount(const std::string& name, const ModelBundle& base,
                 uint32_t tag, size_t offset) {
    Patch(name + " count oversized", "element count exceeds section size",
          base, [tag, offset](std::string* bytes) {
            Poke<uint64_t>(bytes, FindSection(*bytes, tag).body + offset,
                           kHugeCount);
          });
  }

  const std::vector<Rejection>& list() const { return list_; }

 private:
  std::vector<Rejection> list_;
};

void MetaCases(const ModelBundle& fit, Cases* c) {
  c->Edit("meta num_rows zero", "num_rows is zero", fit,
          [](ModelBundle& b) { b.num_rows = 0; });
  const std::pair<const char*, double ModelBundle::*> fields[] = {
      {"phi_t", &ModelBundle::phi_t},
      {"phi_v", &ModelBundle::phi_v},
      {"psi", &ModelBundle::psi},
      {"mutual_information", &ModelBundle::mutual_information},
      {"threshold", &ModelBundle::threshold},
      {"association_margin", &ModelBundle::association_margin},
      {"value_mutual_information", &ModelBundle::value_mutual_information},
      {"value_threshold", &ModelBundle::value_threshold},
  };
  for (const auto& [name, field] : fields) {
    c->Edit(std::string("meta ") + name + " NaN", "non-finite meta field", fit,
            [field = field](ModelBundle& b) { b.*field = kNaN; });
    c->Edit(std::string("meta ") + name + " negative", "negative meta field",
            fit, [field = field](ModelBundle& b) { b.*field = -1.0; });
  }
}

/// The dictionary section body of `d` with `edit` applied to each entry.
std::string DictionaryBody(
    const relation::ValueDictionary& d,
    const std::function<void(relation::ValueId, uint32_t*, std::string*)>&
        edit) {
  std::string out;
  Put<uint64_t>(&out, d.NumValues());
  for (relation::ValueId v = 0; v < d.NumValues(); ++v) {
    uint32_t attribute = d.Attribute(v);
    std::string text = d.Text(v);
    edit(v, &attribute, &text);
    Put<uint32_t>(&out, attribute);
    Put<uint32_t>(&out, d.Support(v));
    PutStr(&out, text);
  }
  return out;
}

void SchemaAndDictionaryCases(const ModelBundle& fit, Cases* c) {
  c->HugeCount("schema", fit, kSchema, 0);
  c->Patch("schema name length past the section", "truncated string", fit,
           [](std::string* bytes) {
             Poke<uint64_t>(bytes, FindSection(*bytes, kSchema).body + 8,
                            kHugeCount);
           });
  const auto schema_body = [](const std::vector<std::string>& names) {
    std::string body;
    Put<uint64_t>(&body, names.size());
    for (const std::string& n : names) PutStr(&body, n);
    return body;
  };
  c->Patch("schema duplicate name", "duplicate attribute name", fit,
           [&](std::string* bytes) {
             ReplaceBody(bytes, kSchema,
                         schema_body({"City", "City", "Zip", "Name"}));
           });
  c->Patch("schema empty", "attribute", fit, [&](std::string* bytes) {
    ReplaceBody(bytes, kSchema, schema_body({}));
  });
  c->Patch("schema over 64 attributes", "max is 64", fit,
           [&](std::string* bytes) {
             std::vector<std::string> names;
             for (int a = 0; a < 65; ++a) {
               names.push_back("a" + std::to_string(a));
             }
             ReplaceBody(bytes, kSchema, schema_body(names));
           });

  // "dictionary too large" (more than 2^32 values) needs a section of
  // over 64 GiB to pass the count bound first, so no case reaches it.
  c->HugeCount("dictionary", fit, kDictionary, 0);
  c->Patch("dictionary text length past the section", "truncated string",
           fit, [](std::string* bytes) {
             Poke<uint64_t>(bytes, FindSection(*bytes, kDictionary).body + 16,
                            kHugeCount);
           });
  const uint32_t m = static_cast<uint32_t>(fit.schema.NumAttributes());
  c->Patch("dictionary attribute out of range",
           "dictionary attribute out of range", fit, [&](std::string* bytes) {
             ReplaceBody(bytes, kDictionary,
                         DictionaryBody(fit.dictionary,
                                        [m](relation::ValueId v, uint32_t* a,
                                            std::string*) {
                                          if (v == 0) *a = m;
                                        }));
           });
  c->Patch("dictionary duplicate entry", "duplicate dictionary entry", fit,
           [&](std::string* bytes) {
             ReplaceBody(
                 bytes, kDictionary,
                 DictionaryBody(fit.dictionary, [&](relation::ValueId v,
                                                    uint32_t* a,
                                                    std::string* text) {
                   if (v == 1) {
                     *a = fit.dictionary.Attribute(0);
                     *text = fit.dictionary.Text(0);
                   }
                 }));
           });
}

/// Cases for a DCF written `dcf_at` bytes into section `tag` (`d` is the
/// in-memory DCF there). `bounded` is whether its ids are value ids.
void DcfPatchCases(const std::string& where, const ModelBundle& fit,
                   uint32_t tag, size_t dcf_at, const core::Dcf& d,
                   bool bounded, Cases* c) {
  const size_t s = d.cond.SupportSize();
  const auto poke = [tag, dcf_at](size_t offset, auto value) {
    return [tag, dcf_at, offset, value](std::string* bytes) {
      Poke(bytes, FindSection(*bytes, tag).body + dcf_at + offset, value);
    };
  };
  c->Patch(where + " dcf mass NaN", "non-finite dcf mass", fit, poke(0, kNaN));
  c->Patch(where + " dcf mass zero", "dcf mass not > 0", fit, poke(0, 0.0));
  c->HugeCount(where + " dcf support", fit, tag, dcf_at + 8);
  c->Patch(where + " dcf conditional mass NaN", "non-finite", fit,
           poke(16 + 4, kNaN));
  c->Patch(where + " dcf conditional mass negative", "not > 0", fit,
           poke(16 + 4, -0.5));
  c->Patch(where + " dcf conditional ids repeat", "not strictly increasing",
           fit, poke(16 + 12, d.cond.entries()[0].id));
  if (bounded) {
    c->Patch(where + " dcf conditional id out of range", "out of range", fit,
             poke(16 + 12 * (s - 1),
                  static_cast<uint32_t>(fit.dictionary.NumValues())));
  }
  c->HugeCount(where + " dcf attribute counts", fit, tag, dcf_at + 16 + 12 * s);
}

void ClusteringCases(const ModelBundle& fit, Cases* c) {
  const size_t n = fit.representatives.size();
  const uint32_t num_values = static_cast<uint32_t>(fit.dictionary.NumValues());
  c->HugeCount("representatives", fit, kRepresentatives, 0);
  c->Edit("representative mass NaN", "non-finite representative mass", fit,
          [](ModelBundle& b) { b.representatives[0].p = kNaN; });
  c->Edit("representative mass zero", "representative mass not > 0", fit,
          [](ModelBundle& b) { b.representatives[0].p = 0.0; });
  c->Edit("representative with empty support",
          "representative with empty support", fit, [](ModelBundle& b) {
            b.representatives[1].cond = core::SparseDistribution{};
          });
  // Offsets follow the n priors; the entry slab follows the n+1 offsets.
  const size_t offsets_at = 8 + 8 * n;
  const size_t slab_at = offsets_at + 8 * (n + 1);
  const auto poke = [](size_t offset, auto value) {
    return [offset, value](std::string* bytes) {
      Poke(bytes, FindSection(*bytes, kRepresentatives).body + offset, value);
    };
  };
  const uint64_t first_end = fit.representatives[0].cond.SupportSize();
  c->Patch("representative offsets not monotone", "not monotone", fit,
           poke(offsets_at + 8,
                first_end + fit.representatives[1].cond.SupportSize() + 1));
  c->Patch("representative first offset nonzero", "slab size mismatch", fit,
           poke(offsets_at, uint64_t{1}));
  uint64_t total = 0;
  for (const core::Dcf& r : fit.representatives) total += r.cond.SupportSize();
  c->Patch("representative slab shorter than the offsets", "slab size mismatch",
           fit, poke(offsets_at + 8 * n, total + 1));
  c->Patch("representative entry mass NaN", "non-finite", fit,
           poke(slab_at + 4, kNaN));
  c->Patch("representative entry mass zero", "not > 0", fit,
           poke(slab_at + 4, 0.0));
  c->Patch("representative entry id out of range", "out of range", fit,
           poke(slab_at + 12 * (first_end - 1), num_values));
  c->Patch("representative entry ids repeat", "not strictly increasing", fit,
           poke(slab_at + 12, fit.representatives[0].cond.entries()[0].id));

  c->HugeCount("assignments", fit, kAssignments, 0);
  c->Edit("assignment count below num_rows", "assignment count != num_rows",
          fit, [](ModelBundle& b) {
            b.assignments.pop_back();
            b.assignment_loss.pop_back();
          });
  c->Edit("assignment label out of range", "assignment label out of range",
          fit, [n](ModelBundle& b) {
            b.assignments[0] = static_cast<uint32_t>(n);
          });
  c->Edit("assignment loss NaN", "non-finite assignment loss", fit,
          [](ModelBundle& b) { b.assignment_loss[0] = kNaN; });
}

void ValueGroupCases(const ModelBundle& fit, Cases* c) {
  const core::ValueGroup& g0 = fit.value_groups[0];
  const size_t dcf_at = 8 + 8 + 4 * g0.values.size();
  c->HugeCount("value groups", fit, kValueGroups, 0);
  c->HugeCount("value-group members", fit, kValueGroups, 8);
  c->Edit("value-group member out of range", "value-group member out of range",
          fit, [](ModelBundle& b) {
            b.value_groups[0].values[0] =
                static_cast<relation::ValueId>(b.dictionary.NumValues());
          });
  DcfPatchCases("value group", fit, kValueGroups, dcf_at, g0.dcf,
                /*bounded=*/false, c);
  c->Patch("value-group duplicate flag of 2", "boolean field out of range", fit,
           [&](std::string* bytes) {
             Poke<uint8_t>(bytes,
                           FindSection(*bytes, kValueGroups).body + dcf_at +
                               DcfBytes(g0.dcf),
                           2);
           });
  c->Edit("duplicate-group index out of range",
          "duplicate-group index out of range", fit, [](ModelBundle& b) {
            b.duplicate_groups.push_back(
                static_cast<uint32_t>(b.value_groups.size()));
          });
  c->Patch("duplicate groups count oversized",
           "element count exceeds section size", fit,
           [&](std::string* bytes) {
             const SectionSpan s = FindSection(*bytes, kValueGroups);
             const size_t dups = fit.duplicate_groups.size();
             Poke<uint64_t>(bytes, s.body + s.len - 8 - 4 * dups, kHugeCount);
           });
}

void GroupingAndFdCases(const ModelBundle& fit, Cases* c) {
  const uint32_t m = static_cast<uint32_t>(fit.schema.NumAttributes());
  const size_t q = fit.grouping_attributes.size();
  const size_t merges_at = 8 + 4 * q + 8;
  c->HugeCount("grouping attributes", fit, kGrouping, 0);
  c->Edit("grouping attribute out of range", "grouping attribute out of range",
          fit, [m](ModelBundle& b) { b.grouping_attributes[0] = m; });
  c->Edit("grouping leaf count mismatch", "grouping leaf count mismatch", fit,
          [](ModelBundle& b) { b.grouping_num_objects += 1; });
  c->HugeCount("grouping merges", fit, kGrouping, merges_at);
  c->Edit("merge loss NaN", "non-finite merge loss", fit,
          [](ModelBundle& b) { b.grouping_merges[0].delta_i = kNaN; });
  c->Edit("merge cumulative loss NaN", "non-finite merge loss", fit,
          [](ModelBundle& b) { b.grouping_merges[0].cumulative_loss = kNaN; });
  c->Edit("merge mass NaN", "non-finite merge mass", fit,
          [](ModelBundle& b) { b.grouping_merges[0].p_merged = kNaN; });
  c->Edit("merge creates the wrong cluster id", "linkage convention", fit,
          [](ModelBundle& b) { b.grouping_merges[0].merged += 1; });
  c->Edit("merge joins a cluster with itself", "linkage convention", fit,
          [](ModelBundle& b) {
            b.grouping_merges[0].right = b.grouping_merges[0].left;
          });
  c->Edit("merge names a cluster not yet made", "linkage convention", fit,
          [](ModelBundle& b) {
            b.grouping_merges[0].left = b.grouping_merges[0].merged;
          });
  c->Edit("cluster-member table short", "cluster-member table size mismatch",
          fit, [](ModelBundle& b) { b.grouping_cluster_members.pop_back(); });
  c->HugeCount("cluster members", fit, kGrouping,
               merges_at + 8 + 36 * fit.grouping_merges.size());
  c->Edit("max merge loss NaN", "non-finite max merge loss", fit,
          [](ModelBundle& b) { b.max_merge_loss = kNaN; });

  c->HugeCount("ranked FDs", fit, kRankedFds, 8);
  c->Edit("FD lhs bits outside the schema", "FD attribute bits out of range",
          fit, [m](ModelBundle& b) {
            b.ranked_fds[0].fd.lhs =
                fd::AttributeSet(b.ranked_fds[0].fd.lhs.bits() | 1ull << m);
          });
  c->Edit("FD rhs bits outside the schema", "FD attribute bits out of range",
          fit, [](ModelBundle& b) {
            b.ranked_fds[0].fd.rhs =
                fd::AttributeSet(b.ranked_fds[0].fd.rhs.bits() | 1ull << 63);
          });
  c->Edit("FD rank NaN", "non-finite FD rank", fit,
          [](ModelBundle& b) { b.ranked_fds[0].rank = kNaN; });
  c->Patch("FD anchored flag of 2", "boolean field out of range", fit,
           [](std::string* bytes) {
             // num_fds, count, then lhs, rhs and rank before the flag.
             Poke<uint8_t>(bytes, FindSection(*bytes, kRankedFds).body + 40, 2);
           });
}

void Phase1TreeCases(const ModelBundle& fit, Cases* c) {
  const core::FrozenDcfTree& t = fit.phase1_tree;
  const auto tree = [&](const std::string& name, const std::string& needle,
                        const std::function<void(core::FrozenDcfTree&)>& f) {
    c->Edit(name, needle, fit, [&f](ModelBundle& b) { f(b.phase1_tree); });
  };
  const std::string options = "phase-1 tree options out of range";
  tree("phase-1 branching 1", options, [](auto& t) { t.branching = 1; });
  tree("phase-1 branching 65537", options,
       [](auto& t) { t.branching = 65537; });
  tree("phase-1 leaf capacity 0", options,
       [](auto& t) { t.leaf_capacity = 0; });
  tree("phase-1 leaf capacity 65537", options,
       [](auto& t) { t.leaf_capacity = 65537; });
  tree("phase-1 threshold negative", options,
       [](auto& t) { t.threshold = -1.0; });
  tree("phase-1 threshold NaN", "non-finite phase-1 threshold",
       [](auto& t) { t.threshold = kNaN; });

  const std::string stats = "phase-1 tree stats inconsistent";
  tree("phase-1 height 0", stats, [](auto& t) { t.stats.height = 0; });
  tree("phase-1 height 65", stats, [](auto& t) { t.stats.height = 65; });
  tree("phase-1 no nodes", stats, [](auto& t) { t.stats.num_nodes = 0; });
  tree("phase-1 more leaf entries than inserts", stats, [](auto& t) {
    t.stats.num_leaf_entries = t.stats.num_inserts + 1;
  });
  tree("phase-1 merge count off", stats,
       [](auto& t) { t.stats.num_merges += 1; });
  tree("phase-1 inserts != num_rows", stats, [](auto& t) {
    t.stats.num_inserts += 1;
    t.stats.num_merges += 1;
  });
  tree("phase-1 node count off", "does not match its stats",
       [](auto& t) { t.stats.num_nodes += 1; });
  tree("phase-1 height off", "does not match its stats",
       [](auto& t) { t.stats.height += 1; });
  tree("phase-1 deeper than 64", "deeper than the format allows",
       [](auto& t) {
         t.stats.height = 64;
         for (int i = 0; i < 64; ++i) {
           core::FrozenDcfNode up;
           up.is_leaf = false;
           up.children.emplace_back();
           up.children[0].p = 1.0;
           up.children[0].node = std::move(t.root);
           t.root = std::move(up);
         }
       });

  // Root node shape (the fixture's root is internal).
  constexpr size_t kRootAt = 56;  // after options and the five stats words
  c->Patch("phase-1 is_leaf of 2", "boolean field out of range", fit,
           [](std::string* bytes) {
             const size_t tree = FindSection(*bytes, kPhase1Tree).body;
             Poke<uint8_t>(bytes, tree + kRootAt, 2);
           });
  c->HugeCount("phase-1 children", fit, kPhase1Tree, kRootAt + 1);
  tree("phase-1 internal node without children",
       "phase-1 internal fan-out out of range", [](auto& t) {
         core::FrozenDcfNode empty;
         empty.is_leaf = false;
         t.root.children[0].node = std::move(empty);
       });
  tree("phase-1 fan-out over branching",
       "phase-1 internal fan-out out of range", [](auto& t) {
         while (t.root.children.size() <= static_cast<size_t>(t.branching)) {
           t.root.children.push_back(t.root.children[0]);
         }
       });
  tree("phase-1 child mass NaN", "non-finite phase-1 child mass",
       [](auto& t) { t.root.children[0].p = kNaN; });
  tree("phase-1 child mass zero", "phase-1 child mass not > 0",
       [](auto& t) { t.root.children[0].p = 0.0; });
  c->HugeCount("phase-1 accumulator", fit, kPhase1Tree, kRootAt + 1 + 8 + 8);
  tree("phase-1 accumulator mass NaN", "non-finite",
       [](auto& t) { t.root.children[0].acc_masses[0] = kNaN; });
  tree("phase-1 accumulator mass zero", "not > 0",
       [](auto& t) { t.root.children[0].acc_masses[0] = 0.0; });
  tree("phase-1 accumulator id out of range", "out of range",
       [&](auto& t) {
         t.root.children[0].acc_ids.back() =
             static_cast<uint32_t>(fit.dictionary.NumValues());
       });
  tree("phase-1 accumulator ids repeat", "not strictly increasing",
       [](auto& t) {
         auto& ids = t.root.children[0].acc_ids;
         ids[1] = ids[0];
       });

  // Leaves.
  tree("phase-1 leaf over capacity", "phase-1 leaf over capacity",
       [](auto& t) { t.leaf_capacity = 1; });
  tree("phase-1 leaf-entry id repeated", "out of range or repeated",
       [](auto& t) {
         core::FrozenDcfNode* leaf = LeafWith(t.root, 2);
         leaf->entry_ids[1] = leaf->entry_ids[0];
       });
  tree("phase-1 leaf-entry id out of range", "out of range or repeated",
       [](auto& t) {
         FirstLeaf(t.root).entry_ids[0] =
             static_cast<uint32_t>(t.stats.num_leaf_entries);
       });
  tree("phase-1 leaf-entry id missing", "phase-1 leaf-entry id missing",
       [](auto& t) {
         core::FrozenDcfNode* leaf = LeafWith(t.root, 2);
         leaf->entries.pop_back();
         leaf->entry_ids.pop_back();
       });
  const size_t leaf_at = FirstLeafOffset(t.root, kRootAt);
  c->HugeCount("phase-1 leaf entries", fit, kPhase1Tree, leaf_at + 1);
  // A leaf entry is its u32 id, then its DCF.
  DcfPatchCases("phase-1 leaf", fit, kPhase1Tree, leaf_at + 1 + 8 + 4,
                FirstLeaf(t.root).entries[0], /*bounded=*/true, c);

  c->Edit("phase-1 row-entry count below num_rows",
          "phase-1 row-entry count != num_rows", fit,
          [](ModelBundle& b) { b.row_entry_ids.pop_back(); });
  c->Patch("phase-1 row-entry count oversized",
           "element count exceeds section size", fit,
           [&](std::string* bytes) {
             const SectionSpan s = FindSection(*bytes, kPhase1Tree);
             Poke<uint64_t>(bytes, s.body + s.len - 8 - 4 * fit.num_rows,
                            kHugeCount);
           });
  c->Edit("phase-1 row-entry id out of range",
          "phase-1 row-entry id out of range", fit, [](ModelBundle& b) {
            b.row_entry_ids[0] =
                static_cast<uint32_t>(b.phase1_tree.stats.num_leaf_entries);
          });
}

void LineageCases(const ModelBundle& child, Cases* c) {
  const auto lineage = [&](const std::string& name, const std::string& needle,
                           const std::function<void(BundleLineage&)>& f) {
    c->Edit(name, needle, child, [&f](ModelBundle& b) { f(b.lineage); });
  };
  lineage("lineage drift class 3", "drift class out of range",
          [](auto& l) { l.drift_class = static_cast<DriftClass>(3); });
  lineage("lineage drift score NaN", "non-finite lineage field",
          [](auto& l) { l.drift_score = kNaN; });
  lineage("lineage drift score negative", "negative lineage field",
          [](auto& l) { l.drift_score = -1.0; });
  lineage("lineage moderate threshold negative", "negative lineage field",
          [](auto& l) { l.drift_moderate = -1.0; });
  lineage("lineage severe threshold NaN", "non-finite lineage field",
          [](auto& l) { l.drift_severe = kNaN; });
  lineage("lineage entropy drift negative", "negative lineage field",
          [](auto& l) { l.entropy_drift = -1.0; });
  lineage("lineage entropy drift NaN", "non-finite lineage field",
          [](auto& l) { l.entropy_drift = kNaN; });
  const std::string rows = "lineage row accounting inconsistent";
  lineage("lineage generation 0", rows,
          [](auto& l) { l.refit_generation = 0; });
  lineage("lineage base rows 0", rows, [](auto& l) {
    l.total_rows_absorbed += l.base_rows;
    l.base_rows = 0;
  });
  lineage("lineage absorbed more than the chain", rows,
          [](auto& l) { l.rows_absorbed = l.total_rows_absorbed + 1; });
  lineage("lineage rows do not sum to num_rows", rows,
          [](auto& l) { l.base_rows += 1; });
}

void SchemeCases(const ModelBundle& fit, Cases* c) {
  const uint32_t m = static_cast<uint32_t>(fit.schema.NumAttributes());
  const std::string header = "schemes header field out of range";
  c->Edit("schemes epsilon NaN", "non-finite schemes epsilon", fit,
          [](ModelBundle& b) { b.schemes_epsilon = kNaN; });
  c->Edit("schemes epsilon negative", header, fit,
          [](ModelBundle& b) { b.schemes_epsilon = -1.0; });
  c->Edit("schemes entropy NaN", "non-finite schemes entropy", fit,
          [](ModelBundle& b) { b.schemes_total_entropy = kNaN; });
  c->Edit("schemes entropy negative", header, fit,
          [](ModelBundle& b) { b.schemes_total_entropy = -1.0; });
  c->Edit("schemes max separator 65", header, fit,
          [](ModelBundle& b) { b.schemes_max_separator = 65; });
  c->HugeCount("schemes", fit, kSchemes, 24);
  c->Edit("scheme separator outside the schema", "scheme separator", fit,
          [m](ModelBundle& b) { b.schemes[0].separator_bits |= 1ull << m; });
  c->Edit("scheme j-measure NaN", "j-measure", fit,
          [](ModelBundle& b) { b.schemes[0].j_measure = kNaN; });
  c->Edit("scheme j-measure negative", "j-measure", fit,
          [](ModelBundle& b) { b.schemes[0].j_measure = -1.0; });
  c->Edit("scheme with one bag", "fewer than two bags", fit,
          [](ModelBundle& b) { b.schemes[0].bag_bits.resize(1); });
  // Separator, j-measure, then the bag count.
  c->HugeCount("scheme bags", fit, kSchemes, 24 + 8 + 8 + 8);
  c->Edit("scheme bag outside the schema", "scheme bag", fit,
          [m](ModelBundle& b) { b.schemes[0].bag_bits.back() |= 1ull << m; });
  c->Edit("scheme bag without the separator", "scheme bags malformed", fit,
          [](ModelBundle& b) {
            BundleScheme& s = b.schemes[0];
            const uint64_t only_in_second = s.bag_bits[1] & ~s.bag_bits[0];
            s.separator_bits |= only_in_second & (~only_in_second + 1);
            for (size_t g = 1; g < s.bag_bits.size(); ++g) {
              s.bag_bits[g] |= s.separator_bits;
            }
          });
  c->Edit("scheme bags unsorted", "scheme bags malformed", fit,
          [](ModelBundle& b) {
            std::swap(b.schemes[0].bag_bits[0], b.schemes[0].bag_bits[1]);
          });
  c->Edit("scheme bags overlap outside the separator", "scheme bags malformed",
          fit, [](ModelBundle& b) {
            b.schemes[0].bag_bits[1] |= b.schemes[0].bag_bits[0];
          });
  c->Edit("scheme bags leave an attribute out", "do not cover the schema", fit,
          [](ModelBundle& b) {
            BundleScheme& s = b.schemes[0];
            const uint64_t own = s.bag_bits[0] & ~s.separator_bits;
            s.bag_bits[0] &= ~(own & (~own + 1));
          });
}

void StructureCases(const ModelBundle& fit, const ModelBundle& child,
                    Cases* c) {
  const std::pair<uint32_t, const char*> sections[] = {
      {kMeta, "meta"},
      {kSchema, "schema"},
      {kDictionary, "dictionary"},
      {kRepresentatives, "representatives"},
      {kAssignments, "assignments"},
      {kValueGroups, "value groups"},
      {kGrouping, "grouping"},
      {kRankedFds, "ranked FDs"},
      {kPhase1Tree, "phase-1 tree"},
      {kLineage, "lineage"},
      {kSchemes, "schemes"},
  };
  for (const auto& [tag, name] : sections) {
    c->Patch(std::string("trailing byte in ") + name,
             std::string("trailing bytes in ") + name + " section",
             tag == kLineage ? child : fit, [tag = tag](std::string* bytes) {
               const SectionSpan s = FindSection(*bytes, tag);
               Splice(bytes, tag, s.body + s.len, 0, std::string(1, '\0'));
             });
  }
  c->Patch("section reserved word nonzero", "nonzero reserved section field",
           fit, [](std::string* bytes) {
             Poke<uint32_t>(bytes, kHeaderBytes + 4, 1);
           });
  c->Patch("section tags out of order", "out-of-order section tag", fit,
           [](std::string* bytes) {
             Poke<uint32_t>(bytes, FindSection(*bytes, kSchema).header, kMeta);
           });
  c->Patch("unknown section tag", "out-of-order section tag", fit,
           [](std::string* bytes) {
             Poke<uint32_t>(bytes, FindSection(*bytes, kSchemes).header, 12);
           });
  c->Patch("section longer than the payload", "truncated section", fit,
           [](std::string* bytes) {
             const SectionSpan s = FindSection(*bytes, kSchemes);
             Poke<uint64_t>(bytes, s.header + 8, s.len + 1);
           });
  c->Patch("required section missing", "missing section 5", fit,
           [](std::string* bytes) {
             const SectionSpan s = FindSection(*bytes, kAssignments);
             bytes->erase(s.header, 16 + s.len);
           });
}

TEST(BundleRejectionTable, EveryCheckRejectsItsViolation) {
  const ModelBundle fit = FittedBundle();
  const ModelBundle child = RefitChild(fit, RowsCsv());
  // Every case below indexes into these shapes; a fixture without them
  // could not reach the check a case is named for.
  ASSERT_TRUE(ParseBundle(SerializeBundle(fit)).ok());
  ASSERT_TRUE(ParseBundle(SerializeBundle(child)).ok());
  ASSERT_TRUE(fit.has_grouping && fit.has_phase1_tree && fit.has_schemes);
  ASSERT_TRUE(child.has_lineage);
  ASSERT_GE(fit.representatives.size(), 2u);
  ASSERT_GE(fit.representatives[0].cond.SupportSize(), 2u);
  ASSERT_GE(fit.value_groups[0].dcf.cond.SupportSize(), 2u);
  ASSERT_FALSE(fit.grouping_merges.empty());
  ASSERT_FALSE(fit.ranked_fds.empty());
  ASSERT_FALSE(fit.schemes.empty());
  ASSERT_GE(fit.schemes[0].bag_bits.size(), 2u);
  const core::FrozenDcfNode& root = fit.phase1_tree.root;
  ASSERT_FALSE(root.is_leaf);
  ASSERT_GE(root.children[0].acc_ids.size(), 2u);
  ASSERT_GE(FirstLeaf(root).entries[0].cond.SupportSize(), 2u);
  core::FrozenDcfTree tree = fit.phase1_tree;
  ASSERT_NE(LeafWith(tree.root, 2), nullptr);
  ASSERT_LT(fit.phase1_tree.stats.height, 64u);

  Cases cases;
  MetaCases(fit, &cases);
  SchemaAndDictionaryCases(fit, &cases);
  ClusteringCases(fit, &cases);
  ValueGroupCases(fit, &cases);
  GroupingAndFdCases(fit, &cases);
  Phase1TreeCases(fit, &cases);
  LineageCases(child, &cases);
  SchemeCases(fit, &cases);
  StructureCases(fit, child, &cases);
  for (const Rejection& r : cases.list()) {
    SCOPED_TRACE(r.name);
    auto parsed = ParseBundle(r.bytes);
    ASSERT_FALSE(parsed.ok()) << "accepted: " << r.name;
    ExpectTypedBundleError(parsed.status());
    EXPECT_NE(parsed.status().message().find(r.needle), std::string::npos)
        << parsed.status().message() << " (expected \"" << r.needle << "\")";
  }
}

// A bundle whose checksum is valid must not be able to name an attribute
// outside its schema: `attrs` in the server prints each dendrogram
// cluster's members by name.
TEST(ModelBundleTest, RejectsGroupingMembersOutsideTheSchema) {
  ModelBundle bundle = FittedBundle();
  ASSERT_TRUE(bundle.has_grouping);
  bundle.grouping_cluster_members[0] |= 1ull << 63;
  auto parsed = ParseBundle(SerializeBundle(bundle));
  ASSERT_FALSE(parsed.ok());
  ExpectTypedBundleError(parsed.status());
}

// Phase-1 leaf entries are tuple DCFs and never carry an ADCF count row;
// one that does would abort refit when it merges with a fresh row.
TEST(ModelBundleTest, RejectsAttributeCountsOnPhase1LeafEntries) {
  ModelBundle bundle = FittedBundle();
  ASSERT_TRUE(bundle.has_phase1_tree);
  for (core::Dcf& entry : FirstLeaf(bundle.phase1_tree.root).entries) {
    entry.attr_counts = {1, 2, 3};
  }
  auto parsed = ParseBundle(SerializeBundle(bundle));
  ASSERT_FALSE(parsed.ok());
  ExpectTypedBundleError(parsed.status());
}

// A missing assignments section is reported only once every section is
// read, so until then num_rows is bounded by nothing in the file. The
// phase-1 stats must still not size the leaf-entry id table past what the
// section could hold.
TEST(ModelBundleTest, RejectsLeafEntryCountBeyondTheSection) {
  ModelBundle bundle = FittedBundle();
  const uint64_t rows = uint64_t{1} << 27;
  bundle.num_rows = rows;
  bundle.phase1_tree.stats.num_inserts = rows;
  bundle.phase1_tree.stats.num_leaf_entries = rows;
  bundle.phase1_tree.stats.num_merges = 0;
  bundle.row_entry_ids.clear();
  std::string bytes = SerializeBundle(bundle);
  const SectionSpan assignments = FindSection(bytes, kAssignments);
  bytes.erase(assignments.header, 16 + assignments.len);
  Reseal(&bytes);
  auto parsed = ParseBundle(bytes);
  ASSERT_FALSE(parsed.ok());
  ExpectTypedBundleError(parsed.status());
  EXPECT_NE(parsed.status().message().find("phase-1 tree stats inconsistent"),
            std::string::npos)
      << parsed.status().message();
}

/// Drives an accepted bundle through everything that reads it: the serve
/// engine's every op, on every fixture row, and a refit over those rows.
void ExerciseAccepted(const ModelBundle& bundle) {
  auto engine = serve::Engine::FromBundle(bundle);
  if (engine.ok()) {
    std::vector<std::string> queries = {
        "{\"op\":\"attrs\"}", "{\"op\":\"fds\"}", "{\"op\":\"schemes\"}",
        "{\"op\":\"info\"}"};
    const std::vector<std::string> names = {"City", "State", "Zip", "Name"};
    for (const auto& row : TestRows()) {
      std::string list;
      for (size_t a = 0; a < row.size(); ++a) {
        list += (a > 0 ? ",\"" : "\"") + row[a] + "\"";
        queries.push_back("{\"op\":\"valuegroup\",\"attr\":\"" + names[a] +
                          "\",\"value\":\"" + row[a] + "\"}");
      }
      queries.push_back("{\"op\":\"assign\",\"row\":[" + list + "]}");
      queries.push_back("{\"op\":\"duplicates\",\"row\":[" + list + "]}");
    }
    for (const std::string& q : queries) {
      EXPECT_FALSE(engine->HandleLine(q).empty()) << q;
    }
  }
  const std::string csv = RowsCsv();  // the source reads it in place
  auto source = relation::CsvStringSource::Open(csv);
  ASSERT_TRUE(source.ok());
  (void)RefitModel(bundle, *source);
}

// Bit flips that keep the checksum valid: the header is resealed after
// each mutation, so the section validators, not the checksum, are what
// stand between the bytes and the server. Whatever parses must then serve
// every op and refit without a crash (CI runs this suite under ASan).
TEST(ModelBundleTest, ResealedPayloadFuzzReachesServeAndRefit) {
  const std::string bytes = SerializeBundle(FittedBundle());
  std::mt19937 rng(1);
  std::uniform_int_distribution<size_t> pick_byte(kHeaderBytes,
                                                   bytes.size() - 1);
  std::uniform_int_distribution<int> pick_bit(0, 7);
  std::uniform_int_distribution<int> pick_flips(1, 3);
  constexpr int kIterations = 2000;
  int accepted = 0;
  for (int i = 0; i < kIterations; ++i) {
    std::string corrupt = bytes;
    for (int f = pick_flips(rng); f > 0; --f) {
      corrupt[pick_byte(rng)] ^= static_cast<char>(1 << pick_bit(rng));
    }
    Reseal(&corrupt);
    auto parsed = ParseBundle(corrupt);
    if (!parsed.ok()) {
      ExpectTypedBundleError(parsed.status());
      continue;
    }
    ++accepted;
    ExerciseAccepted(*parsed);
  }
  // Flips in a double's low mantissa bits pass every check, so part of
  // the loop must reach the engine and refit; most flips must not parse.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kIterations / 2);
}

// A version-2 refit child: its lineage body ends after the drift
// thresholds. It must read with entropy_drift 0, and re-saving it must
// write a version-3 file that reads back to the same lineage.
TEST(ModelBundleTest, ReadsVersion2LineageWithoutEntropyDrift) {
  const ModelBundle parent = FittedBundle(/*mine_schemes=*/false);
  // Rows skewed to one city shift the marginals, so the v3 child carries
  // a nonzero entropy drift for the v2 fixture to drop.
  const ModelBundle child = RefitChild(
      parent, "City,State,Zip,Name\nDenver,CO,80201,bob\n"
              "Denver,CO,80201,bob\nDenver,CO,80201,bob\n");
  ASSERT_TRUE(child.has_lineage);
  ASSERT_FALSE(child.has_schemes);
  EXPECT_GT(child.lineage.entropy_drift, 0.0);
  std::string bytes = SerializeBundle(child);
  Poke<uint32_t>(&bytes, 8, 2);
  const SectionSpan lineage = FindSection(bytes, kLineage);
  Splice(&bytes, kLineage, lineage.body + lineage.len - 8, 8, "");

  auto v2 = ParseBundle(bytes);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2->format_version, 2u);
  EXPECT_EQ(v2->lineage.entropy_drift, 0.0);
  BundleLineage expected = child.lineage;
  expected.entropy_drift = 0.0;
  ModelBundle with_expected = child;
  with_expected.lineage = expected;
  ExpectEqualBundles(with_expected, *v2);

  auto v3 = ParseBundle(SerializeBundle(*v2));
  ASSERT_TRUE(v3.ok()) << v3.status().ToString();
  EXPECT_EQ(v3->format_version, 3u);
  ExpectEqualBundles(*v2, *v3);
}

}  // namespace
}  // namespace limbo::model
