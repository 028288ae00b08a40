// Persisting and reusing Phase-1 summaries: the expensive tuple-summary
// pass is built once, saved to disk, and reloaded to answer a different
// question (Double-Clustered value groups) without touching the raw
// tuples again — the data-browser workflow the paper targets.
//
// Build & run:  ./build/examples/reuse_summaries

#include <cstdio>

#include "core/limbo.h"
#include "core/summary_io.h"
#include "core/tuple_clustering.h"
#include "core/value_clustering.h"
#include "datagen/dblp.h"

namespace {

using namespace limbo;  // NOLINT

int Run() {
  datagen::DblpOptions gen;
  gen.target_tuples = 5000;
  const relation::Relation rel = datagen::GenerateDblp(gen);
  std::printf("Relation: %zu tuples x %zu attributes\n", rel.NumTuples(),
              rel.NumAttributes());

  // Session 1: build and persist the tuple summaries.
  const auto objects = core::BuildTupleObjects(rel);
  core::LimboOptions options;
  options.phi = 0.5;
  core::VectorDcfStream stream(objects);
  auto phase1 = core::SummarizePhase1(stream, options);
  if (!phase1.ok()) return 1;
  const std::string path = "/tmp/limbo_example_summaries.dcf";
  if (!core::SaveDcfs(phase1->leaves, path).ok()) return 1;
  std::printf("Session 1: built %zu summaries (I = %.3f bits), saved to %s\n",
              phase1->leaves.size(), phase1->mutual_information, path.c_str());

  // Session 2: reload and use them for Double Clustering.
  auto reloaded = core::LoadDcfs(path);
  if (!reloaded.ok()) return 1;
  auto labels = core::LimboPhase3(objects, *reloaded);
  if (!labels.ok()) return 1;
  core::ValueClusteringOptions value_options;
  value_options.phi_v = 1.0;
  value_options.tuple_labels = &labels.value();
  value_options.num_tuple_clusters = reloaded->size();
  auto values = core::ClusterValues(rel, value_options);
  if (!values.ok()) return 1;
  std::printf(
      "Session 2: reloaded %zu summaries and found %zu duplicate value "
      "groups over them (of %zu groups total).\n",
      reloaded->size(), values->duplicate_groups.size(),
      values->groups.size());
  return 0;
}

}  // namespace

int main() { return Run(); }
