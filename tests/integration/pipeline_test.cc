// Integration tests: the full Section-8.2 DBLP pipeline at reduced scale,
// exercising the same module composition as the reproduction drivers —
// generation, projection, horizontal partitioning, per-cluster Double
// Clustering, attribute grouping, FD mining and ranking.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/attribute_grouping.h"
#include "core/fd_rank.h"
#include "core/structure_summary.h"
#include "core/horizontal_partition.h"
#include "core/limbo.h"
#include "core/measures.h"
#include "core/tuple_clustering.h"
#include "core/value_clustering.h"
#include "datagen/dblp.h"
#include "fd/min_cover.h"
#include "fd/tane.h"
#include "relation/ops.h"

namespace limbo {
namespace {

constexpr size_t kTuples = 4000;

relation::Relation SmallDblpProjection() {
  datagen::DblpOptions gen;
  gen.target_tuples = kTuples;
  const relation::Relation full = datagen::GenerateDblp(gen);
  auto projected = relation::ProjectNames(
      full, {"Author", "Pages", "BookTitle", "Year", "Volume", "Journal",
             "Number"});
  EXPECT_TRUE(projected.ok());
  return std::move(projected).value();
}

std::vector<uint32_t> SummaryLabels(const relation::Relation& rel,
                                    double phi_t, size_t* num_clusters) {
  const auto objects = core::BuildTupleObjects(rel);
  core::LimboOptions options;
  options.phi = phi_t;
  core::VectorDcfStream stream(objects);
  auto phase1 = core::SummarizePhase1(stream, options);
  EXPECT_TRUE(phase1.ok());
  *num_clusters = phase1->leaves.size();
  auto labels = core::LimboPhase3(objects, phase1->leaves);
  EXPECT_TRUE(labels.ok());
  return std::move(labels).value();
}

TEST(DblpPipelineTest, PartitionSeparatesConferenceFromJournal) {
  const auto rel = SmallDblpProjection();
  core::HorizontalPartitionOptions options;
  options.phi = 0.5;
  options.k = 2;
  auto partition = core::HorizontallyPartition(rel, options);
  ASSERT_TRUE(partition.ok());

  const auto journal = rel.schema().Find("Journal").value();
  const auto book_title = rel.schema().Find("BookTitle").value();
  // Each cluster is pure in its kind: journal tuples have Journal set,
  // conference tuples have BookTitle set.
  size_t impure = 0;
  std::vector<size_t> journal_count(2, 0);
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    const bool is_journal = !rel.TextAt(t, journal).empty();
    journal_count[partition->assignments[t]] += is_journal;
  }
  const uint32_t journal_label = journal_count[1] > journal_count[0];
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    const bool is_journal = !rel.TextAt(t, journal).empty();
    const bool is_conference = !rel.TextAt(t, book_title).empty();
    if (is_journal && partition->assignments[t] != journal_label) ++impure;
    if (is_conference && partition->assignments[t] == journal_label) ++impure;
  }
  EXPECT_LT(static_cast<double>(impure) / rel.NumTuples(), 0.01);
}

TEST(DblpPipelineTest, ConferenceClusterHasMaxRedundancyNullFds) {
  const auto rel = SmallDblpProjection();
  // Ground-truth conference subset (Volume is NULL).
  const auto volume = rel.schema().Find("Volume").value();
  const auto journal = rel.schema().Find("Journal").value();
  std::vector<relation::TupleId> conf_ids;
  for (relation::TupleId t = 0; t < rel.NumTuples(); ++t) {
    if (rel.TextAt(t, volume).empty() && rel.TextAt(t, journal).empty()) {
      conf_ids.push_back(t);
    }
  }
  const relation::Relation conf = relation::SelectRows(rel, conf_ids);

  fd::TaneOptions tane_options;
  tane_options.min_lhs = 1;
  auto fds = fd::Tane::Mine(conf, tane_options);
  ASSERT_TRUE(fds.ok());
  const auto cover = fd::MinimumCover(*fds, /*merge_same_lhs=*/false);

  size_t num_clusters = 0;
  const auto labels = SummaryLabels(conf, 0.5, &num_clusters);
  core::ValueClusteringOptions value_options;
  value_options.phi_v = 1.0;
  value_options.tuple_labels = &labels;
  value_options.num_tuple_clusters = num_clusters;
  auto values = core::ClusterValues(conf, value_options);
  ASSERT_TRUE(values.ok());
  auto grouping = core::GroupAttributes(conf, *values);
  ASSERT_TRUE(grouping.ok());
  auto ranked = core::RankFds(cover, *grouping);
  ASSERT_TRUE(ranked.ok());
  ASSERT_FALSE(ranked->empty());

  // The paper's Table-5 shape: the top-ranked FD covers only the all-NULL
  // journal columns and has RAD = RTR = 1.
  const auto& top = ranked->front();
  const auto attrs = top.fd.lhs.Union(top.fd.rhs);
  fd::AttributeSet null_columns;
  for (const char* name : {"Volume", "Journal", "Number"}) {
    null_columns = null_columns.With(conf.schema().Find(name).value());
  }
  EXPECT_TRUE(attrs.IsSubsetOf(null_columns))
      << top.fd.ToString(conf.schema());
  EXPECT_DOUBLE_EQ(core::Rad(conf, attrs.ToList()), 1.0);
  EXPECT_DOUBLE_EQ(core::Rtr(conf, attrs.ToList()),
                   1.0 - 1.0 / conf.NumTuples());
}

TEST(DblpPipelineTest, StructureSummaryLargePath) {
  // SummarizeStructure switches to Double Clustering above the
  // large-relation threshold (2,000 tuples); the whole pipeline must still
  // run and find the NULL-block duplicate groups.
  datagen::DblpOptions gen;
  gen.target_tuples = 3000;
  const relation::Relation full = datagen::GenerateDblp(gen);
  core::StructureSummaryOptions options;
  options.phi_v = 1.0;
  auto summary = core::SummarizeStructure(full, options);
  ASSERT_TRUE(summary.ok());
  EXPECT_TRUE(summary->has_grouping);
  EXPECT_GT(summary->num_fds, 0u);
  EXPECT_FALSE(summary->values.duplicate_groups.empty());
  EXPECT_FALSE(summary->ranked_cover.empty());
  const std::string text = summary->ToString(full);
  EXPECT_NE(text.find("Value groups"), std::string::npos);
}

TEST(DblpPipelineTest, NullBlockEmergesInFullRelationGrouping) {
  datagen::DblpOptions gen;
  gen.target_tuples = kTuples;
  const relation::Relation full = datagen::GenerateDblp(gen);
  size_t num_clusters = 0;
  const auto labels = SummaryLabels(full, 0.5, &num_clusters);
  core::ValueClusteringOptions value_options;
  value_options.phi_v = 1.0;
  value_options.tuple_labels = &labels;
  value_options.num_tuple_clusters = num_clusters;
  auto values = core::ClusterValues(full, value_options);
  ASSERT_TRUE(values.ok());
  auto grouping = core::GroupAttributes(full, *values);
  ASSERT_TRUE(grouping.ok());

  // Figure-15 property: the NULL-heavy attributes complete their own
  // block strictly before the dendrogram's costliest merges.
  fd::AttributeSet null_block;
  for (const char* name :
       {"Publisher", "ISBN", "Editor", "Series", "School", "Month"}) {
    null_block = null_block.With(full.schema().Find(name).value());
  }
  double block_loss = -1.0;
  for (const core::Merge& m : grouping->aib.merges()) {
    if (null_block.IsSubsetOf(grouping->cluster_members[m.merged])) {
      block_loss = m.delta_i;
      break;
    }
  }
  ASSERT_GE(block_loss, 0.0);
  EXPECT_LT(block_loss, 0.1 * grouping->max_merge_loss);
}

}  // namespace
}  // namespace limbo
