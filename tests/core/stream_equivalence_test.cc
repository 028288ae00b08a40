// The bit-identity contract of the streaming refactor: RunLimboStreamed
// over a TupleObjectStream (chunked CSV decode, frozen stats) must equal
// RunLimbo over the materialized tuple objects in every output bit —
// mutual information, threshold, leaf DCFs, merge sequence,
// representatives, labels, losses — and in every work counter, at 1 and
// 4 worker lanes and at adversarially small chunk sizes. The horizontal
// partition entry point carries the same contract.

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/dcf_stream.h"
#include "core/horizontal_partition.h"
#include "core/limbo.h"
#include "core/tuple_clustering.h"
#include "datagen/dblp.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "relation/source_stats.h"
#include "testing/make_relation.h"

namespace limbo::core {
namespace {

relation::Relation DblpRelation() {
  datagen::DblpOptions options;
  options.target_tuples = 400;
  return datagen::GenerateDblp(options);
}

void ExpectSameDcfs(const std::vector<Dcf>& a, const std::vector<Dcf>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].p, b[i].p) << "dcf " << i;
    ASSERT_EQ(a[i].cond.entries().size(), b[i].cond.entries().size())
        << "dcf " << i;
    for (size_t e = 0; e < a[i].cond.entries().size(); ++e) {
      EXPECT_EQ(a[i].cond.entries()[e].id, b[i].cond.entries()[e].id);
      EXPECT_EQ(a[i].cond.entries()[e].mass, b[i].cond.entries()[e].mass);
    }
  }
}

void ExpectSameResult(const LimboResult& streamed,
                      const LimboResult& materialized) {
  EXPECT_EQ(streamed.mutual_information, materialized.mutual_information);
  EXPECT_EQ(streamed.threshold, materialized.threshold);
  ExpectSameDcfs(streamed.leaves, materialized.leaves);
  const auto& sm = streamed.aib.merges();
  const auto& mm = materialized.aib.merges();
  ASSERT_EQ(sm.size(), mm.size());
  for (size_t i = 0; i < sm.size(); ++i) {
    EXPECT_EQ(sm[i].left, mm[i].left) << "merge " << i;
    EXPECT_EQ(sm[i].right, mm[i].right) << "merge " << i;
    EXPECT_EQ(sm[i].delta_i, mm[i].delta_i) << "merge " << i;
    EXPECT_EQ(sm[i].cumulative_loss, mm[i].cumulative_loss) << "merge " << i;
  }
  ExpectSameDcfs(streamed.representatives, materialized.representatives);
  EXPECT_EQ(streamed.assignments, materialized.assignments);
  EXPECT_EQ(streamed.assignment_loss, materialized.assignment_loss);
  EXPECT_EQ(streamed.tree_stats.num_inserts,
            materialized.tree_stats.num_inserts);
  EXPECT_EQ(streamed.tree_stats.num_merges, materialized.tree_stats.num_merges);
  EXPECT_EQ(streamed.tree_stats.num_nodes, materialized.tree_stats.num_nodes);
  EXPECT_EQ(streamed.aib.stats().distance_evals,
            materialized.aib.stats().distance_evals);
}

std::map<std::string, uint64_t> WorkCounters() {
  std::map<std::string, uint64_t> work;
  for (const obs::CounterValue& c : obs::SnapshotCounters()) {
    if (!c.scheduling) work[c.name] = c.value;
  }
  return work;
}

class StreamEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(StreamEquivalenceTest, CsvStreamMatchesMaterializedRun) {
  const size_t threads = GetParam();
  for (const relation::Relation& rel :
       {testing::PaperFigure4(), DblpRelation()}) {
    const std::string csv = relation::ToCsvString(rel);
    LimboOptions options;
    options.phi = 0.5;
    options.k = 3;
    options.threads = threads;

    obs::SetEnabled(true);
    obs::ResetCounters();
    const std::vector<Dcf> objects = BuildTupleObjects(rel);
    auto materialized = RunLimbo(objects, options);
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
    const auto materialized_work = WorkCounters();
    // Two I(V;T) scans, the insert scan and the Phase-3 scan.
    EXPECT_EQ(materialized_work.at("dcf_stream.scans"), 4u);

    // Chunk sizes straddling the row count, including a pathological 1.
    for (size_t chunk : {size_t{1}, size_t{3}, size_t{4096}}) {
      auto source = relation::CsvStringSource::Open(csv, /*chunk_bytes=*/16);
      ASSERT_TRUE(source.ok());
      auto stats = relation::CollectSourceStats(*source);
      ASSERT_TRUE(stats.ok()) << stats.status().ToString();
      TupleObjectStream stream(*source, *stats);
      options.stream_chunk = chunk;
      obs::ResetCounters();
      auto streamed = RunLimboStreamed(stream, options);
      ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
      ExpectSameResult(*streamed, *materialized);
      // Per-chunk counter increments must sum to the materialized totals,
      // and the scan count must not depend on the chunk size.
      EXPECT_EQ(WorkCounters(), materialized_work) << "chunk " << chunk;
    }
  }
}

TEST_P(StreamEquivalenceTest, RelationSourceWithSavedStatsMatches) {
  // The sidecar path: stats frozen by one pass, saved, reloaded, and used
  // to stream a RelationRowSource. Still bit-identical.
  const relation::Relation rel = DblpRelation();
  LimboOptions options;
  options.phi = 0.3;
  options.k = 5;
  options.threads = GetParam();
  auto materialized = RunLimbo(BuildTupleObjects(rel), options);
  ASSERT_TRUE(materialized.ok());

  const std::string path = ::testing::TempDir() + "/stream_equiv.stats";
  ASSERT_TRUE(
      relation::SaveSourceStats(relation::SourceStats::FromRelation(rel), path)
          .ok());
  auto stats = relation::LoadSourceStats(path);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  relation::RelationRowSource source(rel);
  TupleObjectStream stream(source, *stats);
  auto streamed = RunLimboStreamed(stream, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ExpectSameResult(*streamed, *materialized);
}

TEST_P(StreamEquivalenceTest, PartitionStreamMatchesMaterialized) {
  const relation::Relation rel = DblpRelation();
  HorizontalPartitionOptions options;
  options.phi = 0.5;
  options.k = 4;
  options.threads = GetParam();
  obs::SetEnabled(true);
  obs::ResetCounters();
  auto materialized = HorizontallyPartition(rel, options);
  ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();
  const auto materialized_work = WorkCounters();
  // The k = 0 LIMBO run's three scans, the Phase-3 scan and the
  // statistics scan.
  EXPECT_EQ(materialized_work.at("dcf_stream.scans"), 5u);

  const std::string csv = relation::ToCsvString(rel);
  auto source = relation::CsvStringSource::Open(csv);
  ASSERT_TRUE(source.ok());
  auto stats = relation::CollectSourceStats(*source);
  ASSERT_TRUE(stats.ok());
  TupleObjectStream stream(*source, *stats);
  options.stream_chunk = 37;  // force many chunks per scan
  obs::ResetCounters();
  auto streamed = HorizontallyPartitionStream(stream, options);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_EQ(WorkCounters(), materialized_work);

  EXPECT_EQ(streamed->chosen_k, materialized->chosen_k);
  EXPECT_EQ(streamed->candidate_ks, materialized->candidate_ks);
  EXPECT_EQ(streamed->assignments, materialized->assignments);
  EXPECT_EQ(streamed->cluster_sizes, materialized->cluster_sizes);
  EXPECT_EQ(streamed->cluster_value_counts,
            materialized->cluster_value_counts);
  EXPECT_EQ(streamed->info_loss_fraction, materialized->info_loss_fraction);
  EXPECT_EQ(streamed->info_loss_vs_leaves,
            materialized->info_loss_vs_leaves);
  EXPECT_EQ(streamed->mutual_information, materialized->mutual_information);
  EXPECT_EQ(streamed->num_leaves, materialized->num_leaves);
  ASSERT_EQ(streamed->stats.size(), materialized->stats.size());
  for (size_t i = 0; i < streamed->stats.size(); ++i) {
    EXPECT_EQ(streamed->stats[i].delta_i, materialized->stats[i].delta_i);
    EXPECT_EQ(streamed->stats[i].info_retained,
              materialized->stats[i].info_retained);
  }
}

INSTANTIATE_TEST_SUITE_P(Lanes, StreamEquivalenceTest,
                         ::testing::Values(1, 4));

TEST(StreamScanCountTest, SkippedPhase3ScansTheSourceThreeTimes) {
  // k = 0 skips Phase 3: two I(V;T) scans and the insert scan, whether
  // the objects are streamed or materialized.
  const relation::Relation rel = testing::PaperFigure4();
  const std::string csv = relation::ToCsvString(rel);
  auto source = relation::CsvStringSource::Open(csv);
  ASSERT_TRUE(source.ok());
  auto stats = relation::CollectSourceStats(*source);
  ASSERT_TRUE(stats.ok());
  TupleObjectStream stream(*source, *stats);
  LimboOptions options;
  options.phi = 0.0;
  options.k = 0;
  obs::SetEnabled(true);
  obs::ResetCounters();
  ASSERT_TRUE(RunLimboStreamed(stream, options).ok());
  EXPECT_EQ(obs::GetCounter("dcf_stream.scans").Value(), 3u);
  EXPECT_EQ(obs::GetCounter("phase3.distance_evals").Value(), 0u);

  obs::ResetCounters();
  ASSERT_TRUE(RunLimbo(BuildTupleObjects(rel), options).ok());
  EXPECT_EQ(obs::GetCounter("dcf_stream.scans").Value(), 3u);
}

TEST(StreamStaleStatsTest, RowCountMismatchIsAnError) {
  // A stats sidecar from a different (shorter) source must be rejected,
  // not silently produce wrong priors.
  const relation::Relation rel = testing::PaperFigure4();
  relation::SourceStats stats = relation::SourceStats::FromRelation(rel);
  stats.num_rows = 3;  // stale: source actually yields 5
  relation::RelationRowSource source(rel);
  TupleObjectStream stream(source, stats);
  LimboOptions options;
  auto result = RunLimboStreamed(stream, options);
  EXPECT_FALSE(result.ok());
}

}  // namespace
}  // namespace limbo::core
