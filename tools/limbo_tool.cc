// limbo-tool: command-line front end for the library.
//
//   limbo-tool profile    data.csv
//   limbo-tool summary    data.csv [--phi-t=0.1] [--phi-v=0] [--psi=0.5]
//   limbo-tool duplicates data.csv [--phi-t=0.1]
//   limbo-tool values     data.csv [--phi-v=0]
//   limbo-tool fds        data.csv [--min-cover]
//   limbo-tool approx-fds data.csv [--epsilon=0.05] [--max-lhs=3]
//   limbo-tool mvds       data.csv [--max-lhs=2]
//   limbo-tool keys       data.csv [--max-size=4]
//   limbo-tool rank       data.csv [--psi=0.5]
//   limbo-tool schemes    data.csv [--epsilon=0.05] [--max-sep=2]
//                                  [--max-schemes=16]
//   limbo-tool partition  data.csv [--k=0] [--phi=0.5] [--stream]
//   limbo-tool decompose  data.csv [--psi=0.5] [--out=prefix]
//   limbo-tool generate   db2|dblp [--out=data.csv] [--tuples=N] [--seed=S]
//   limbo-tool summaries  data.csv [--phi-t=0.5] [--out=data.dcf] [--stream]
//   limbo-tool report     data.csv [--out=report.md] [--psi=0.5]
//   limbo-tool fit        data.csv [--phi-t=0.1] [--phi-v=0] [--psi=0.5]
//                                  [--k=10] [--model-out=data.limbo]
//                                  [--no-refit-state] [--schemes]
//                                  [--schemes-epsilon=0.05]
//                                  [--schemes-max-sep=2]
//   limbo-tool refit      data.limbo --input=new_rows.csv
//                                  [--model-out=child.limbo]
//                                  [--drift-moderate=2.0] [--drift-severe=8.0]
//                                  [--chunk=4096]
//   limbo-tool inspect    data.limbo
//
// Input: CSV with a header row; empty fields are NULLs. refit and
// inspect take a .limbo bundle as their positional argument instead;
// refit exits 3 on severe drift (no bundle written -- run a full fit).
//
// partition and summaries additionally accept the streaming-ingest knobs:
//
//   --stream          changes only how the input is read: the CSV is
//                     pulled in chunks through the RowSource pipeline
//                     instead of materialized, so peak memory is the DCF
//                     tree plus one chunk of objects. Output is
//                     bit-identical to the in-memory path.
//   --stats=<path>    sidecar stats file (schema + value dictionary + row
//                     count). Loaded when it exists, else written after
//                     the counting pass so later runs skip that pass.
//   --chunk=<n>       objects per stream chunk (default 4096; memory knob
//                     only — every value is bit-identical).
//
// Every command accepts --threads=N, N in [0, 4096], to set the
// worker-lane count of the clustering hot paths (default: LIMBO_THREADS
// env var, else hardware concurrency; results are bit-identical for any
// value), plus:
//
//   --report=<path>   write a structured run report (trace spans, work
//                     counters, and command-specific sections such as the
//                     AIB merge trajectory and RAD/RTR measures) after
//                     the command finishes. ".md" renders Markdown,
//                     anything else JSON (schema_version in the file).
//   --trace           echo every trace span to stderr as it closes.
//
// Value flags take their value as --flag=value; the switches --stream,
// --min-cover, --no-refit-state, --schemes and --trace take none.
// Unknown flags, a value flag without a value and a switch given one are
// rejected with exit code 2 — the doc-consistency check
// (tools/doc_check.py) relies on that.

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/decompose.h"
#include "core/horizontal_partition.h"
#include "core/measures.h"
#include "core/run_report.h"
#include "core/structure_summary.h"
#include "obs/counters.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "core/summary_io.h"
#include "core/dendrogram.h"
#include "util/parallel.h"
#include "util/strings.h"
#include "core/measures.h"
#include <fstream>
#include "core/tuple_clustering.h"
#include "fd/approx.h"
#include "fd/min_cover.h"
#include "fd/keys.h"
#include "fd/mvd.h"
#include "fd/tane.h"
#include "model/fit.h"
#include "model/model_bundle.h"
#include "model/refit.h"
#include "relation/csv_io.h"
#include "relation/row_source.h"
#include "relation/source_stats.h"
#include "relation/stats.h"
#include "schemes/entropy_oracle.h"
#include "schemes/mine.h"
#include "datagen/db2_sample.h"
#include "datagen/dblp.h"

namespace {

using namespace limbo;  // NOLINT

/// Flags whose values are real numbers or sizes; ValidateFlags rejects a
/// value these parsers refuse, so the getters below never see one.
const std::set<std::string> kRealFlags = {
    "phi",     "phi-t",           "phi-v",          "psi",
    "epsilon", "schemes-epsilon", "drift-moderate", "drift-severe"};
const std::set<std::string> kSizeFlags = {
    "k",           "max-k",           "chunk",  "max-lhs", "max-size",
    "max-sep",     "max-schemes",     "tuples", "seed",    "threads",
    "schemes-max-sep"};
/// Flags that switch a behaviour on by their presence; they take no
/// value. Every other flag must be given as --flag=value.
const std::set<std::string> kBoolFlags = {"stream", "min-cover",
                                          "no-refit-state", "schemes",
                                          "trace"};

struct Args {
  std::string command;
  std::string input;
  std::map<std::string, std::string> flags;
  /// Flags given without "=value".
  std::set<std::string> bare;

  double GetDouble(const std::string& key, double fallback) const {
    auto it = flags.find(key);
    double value = fallback;
    if (it != flags.end()) util::ParseReal(it->second, &value);
    return value;
  }
  size_t GetSize(const std::string& key, size_t fallback) const {
    auto it = flags.find(key);
    size_t value = fallback;
    if (it != flags.end()) util::ParseSize(it->second, &value);
    return value;
  }
  std::string GetString(const std::string& key,
                        const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

// Command-specific sections contributed to the --report output. Commands
// only pay for report-building work while a report was requested.
bool g_collect_report = false;
std::vector<limbo::obs::ReportSection> g_report_sections;

void AddReportSection(limbo::obs::ReportSection section) {
  if (g_collect_report) g_report_sections.push_back(std::move(section));
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: limbo-tool <profile|summary|duplicates|values|fds|approx-fds|"
      "mvds|keys|rank|schemes|partition|decompose|summaries|report|fit|refit|"
      "inspect|generate> data.csv [--flag=value ...]\n");
  return 2;
}

/// Rejects flags the selected command does not understand and numeric
/// flags whose value does not parse (exit code 2). Every command
/// additionally accepts the global flags --threads, --report and --trace.
int ValidateFlags(const Args& args) {
  static const std::map<std::string, std::vector<const char*>> kCommandFlags = {
      {"profile", {}},
      {"summary", {"phi-t", "phi-v", "psi"}},
      {"duplicates", {"phi-t"}},
      {"values", {"phi-v"}},
      {"fds", {"min-cover"}},
      {"approx-fds", {"epsilon", "max-lhs"}},
      {"mvds", {"max-lhs"}},
      {"keys", {"max-size"}},
      {"rank", {"psi"}},
      {"schemes", {"epsilon", "max-sep", "max-schemes"}},
      {"partition", {"k", "phi", "max-k", "stream", "stats", "chunk"}},
      {"decompose", {"psi", "out"}},
      {"summaries", {"phi-t", "out", "stream", "stats", "chunk"}},
      {"report", {"phi-t", "phi-v", "psi", "out"}},
      {"fit",
       {"phi-t", "phi-v", "psi", "k", "model-out", "no-refit-state", "schemes",
        "schemes-epsilon", "schemes-max-sep"}},
      {"refit",
       {"input", "model-out", "drift-moderate", "drift-severe", "chunk"}},
      {"inspect", {}},
      {"generate", {"out", "tuples", "seed"}},
  };
  auto it = kCommandFlags.find(args.command);
  if (it == kCommandFlags.end()) return Usage();
  for (const auto& [flag, value] : args.flags) {
    bool known = flag == "threads" || flag == "report" || flag == "trace";
    for (const char* f : it->second) known |= (flag == f);
    if (!known) {
      std::fprintf(stderr, "limbo-tool %s: unknown flag --%s\n",
                   args.command.c_str(), flag.c_str());
      return 2;
    }
    const bool boolean = kBoolFlags.count(flag) > 0;
    if (boolean != (args.bare.count(flag) > 0)) {
      if (boolean) {
        std::fprintf(stderr,
                     "limbo-tool %s: --%s takes no value, got \"%s\"\n",
                     args.command.c_str(), flag.c_str(), value.c_str());
      } else {
        std::fprintf(stderr,
                     "limbo-tool %s: --%s needs a value (--%s=...)\n",
                     args.command.c_str(), flag.c_str(), flag.c_str());
      }
      return 2;
    }
    double real = 0.0;
    size_t size = 0;
    const char* expected = nullptr;
    if (kRealFlags.count(flag) > 0 && !util::ParseReal(value, &real)) {
      expected = "a finite number";
    } else if (kSizeFlags.count(flag) > 0 && !util::ParseSize(value, &size)) {
      expected = "a non-negative integer";
    }
    // --threads becomes LIMBO_THREADS, which sizes every worker pool.
    if (flag == "threads" &&
        (expected != nullptr || size > util::kMaxThreads)) {
      expected = "an integer in [0, 4096]";
    }
    if (expected != nullptr) {
      std::fprintf(stderr, "limbo-tool %s: --%s must be %s, got \"%s\"\n",
                   args.command.c_str(), flag.c_str(), expected,
                   value.c_str());
      return 2;
    }
  }
  return 0;
}

/// RAD/RTR measures for the top ranked-cover entries as a report table.
obs::ReportSection MeasuresSection(const relation::Relation& rel,
                                   const std::vector<core::RankedFd>& ranked) {
  obs::ReportSection section("measures");
  section.AddField("ranked_fds", static_cast<uint64_t>(ranked.size()));
  section.table.columns = {"fd", "rank", "anchored", "rad", "rtr"};
  size_t shown = 0;
  for (const auto& r : ranked) {
    if (++shown > 15) break;
    const auto attrs = r.fd.lhs.Union(r.fd.rhs).ToList();
    section.table.rows.push_back(
        {obs::ReportValue::String(r.fd.ToString(rel.schema())),
         obs::ReportValue::Number(r.rank),
         obs::ReportValue::Boolean(r.anchored),
         obs::ReportValue::Number(core::Rad(rel, attrs)),
         obs::ReportValue::Number(core::Rtr(rel, attrs))});
  }
  return section;
}

/// Writes the --report file assembled from the command's sections plus the
/// trace/counter snapshot. Markdown when the path ends in ".md", else JSON.
int WriteRunReport(const Args& args) {
  const std::string path = args.GetString("report", "");
  obs::RunReport report = core::AssembleRunReport(
      "limbo-tool " + args.command, std::move(g_report_sections));
  const bool markdown =
      path.size() >= 3 && path.compare(path.size() - 3, 3, ".md") == 0;
  const std::string body = markdown ? report.ToMarkdown() : report.ToJson();
  std::ofstream file(path, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  file << body;
  std::printf("wrote run report %s (%zu bytes)\n", path.c_str(), body.size());
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc < 3) return false;
  args->command = argv[1];
  args->input = argv[2];
  for (int i = 3; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--", 2) != 0) return false;
    const char* eq = std::strchr(arg, '=');
    if (eq != nullptr) {
      args->flags[std::string(arg + 2, eq - arg - 2)] = eq + 1;
    } else {
      args->flags[arg + 2] = "";
      args->bare.insert(arg + 2);
    }
  }
  return true;
}

int CmdProfile(const relation::Relation& rel, const Args&) {
  std::printf("%s", relation::Profile(rel).ToString().c_str());
  return 0;
}

int CmdSummary(const relation::Relation& rel, const Args& args) {
  core::StructureSummaryOptions options;
  options.phi_t = args.GetDouble("phi-t", options.phi_t);
  options.phi_v = args.GetDouble("phi-v", options.phi_v);
  options.psi = args.GetDouble("psi", options.psi);
  auto summary = core::SummarizeStructure(rel, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("%s", summary->ToString(rel).c_str());
  if (g_collect_report) {
    if (summary->has_grouping) {
      AddReportSection(core::TrajectorySection(
          summary->grouping.aib.merges(), "attribute_grouping_trajectory"));
    }
    AddReportSection(MeasuresSection(rel, summary->ranked_cover));
  }
  return 0;
}

int CmdDuplicates(const relation::Relation& rel, const Args& args) {
  core::DuplicateTupleOptions options;
  options.phi_t = args.GetDouble("phi-t", options.phi_t);
  auto report = core::FindDuplicateTuples(rel, options);
  if (!report.ok()) {
    std::fprintf(stderr, "%s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("summaries: %zu leaves (%zu heavy); candidate groups: %zu\n",
              report->num_leaves, report->num_heavy_leaves,
              report->groups.size());
  for (const auto& group : report->groups) {
    std::printf("group (%zu tuples):\n", group.tuples.size());
    for (relation::TupleId t : group.tuples) {
      std::printf("  t%-6u", t);
      for (size_t a = 0; a < rel.NumAttributes() && a < 8; ++a) {
        std::printf(" %s", rel.TextAt(t, a).c_str());
      }
      std::printf("\n");
    }
  }
  return 0;
}

int CmdValues(const relation::Relation& rel, const Args& args) {
  core::ValueClusteringOptions options;
  options.phi_v = args.GetDouble("phi-v", options.phi_v);
  auto result = core::ClusterValues(rel, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu value groups, %zu duplicate (CV_D)\n",
              result->groups.size(), result->duplicate_groups.size());
  for (size_t gi : result->duplicate_groups) {
    std::printf("  {");
    const auto& group = result->groups[gi];
    for (size_t i = 0; i < group.values.size(); ++i) {
      if (i) std::printf(", ");
      std::printf("%s", rel.dictionary()
                            .QualifiedName(rel.schema(), group.values[i])
                            .c_str());
    }
    std::printf("}\n");
  }
  return 0;
}

int CmdFds(const relation::Relation& rel, const Args& args) {
  auto fds = fd::Tane::Mine(rel);
  if (!fds.ok()) {
    std::fprintf(stderr, "%s\n", fds.status().ToString().c_str());
    return 1;
  }
  std::vector<fd::FunctionalDependency> shown = *fds;
  if (args.Has("min-cover")) {
    shown = fd::MinimumCover(shown);
    std::printf("# %zu minimal FDs; minimum cover of %zu:\n", fds->size(),
                shown.size());
  } else {
    std::printf("# %zu minimal FDs:\n", shown.size());
  }
  for (const auto& f : shown) {
    std::printf("%s\n", f.ToString(rel.schema()).c_str());
  }
  return 0;
}

int CmdApproxFds(const relation::Relation& rel, const Args& args) {
  fd::ApproxMinerOptions options;
  options.epsilon = args.GetDouble("epsilon", options.epsilon);
  options.max_lhs = args.GetSize("max-lhs", options.max_lhs);
  auto fds = fd::MineApproximateFds(rel, options);
  if (!fds.ok()) {
    std::fprintf(stderr, "%s\n", fds.status().ToString().c_str());
    return 1;
  }
  std::printf("# %zu approximate FDs (g3 <= %.3f, LHS <= %zu):\n",
              fds->size(), options.epsilon, options.max_lhs);
  for (const auto& f : *fds) {
    std::printf("g3=%.4f  %s\n", f.g3, f.fd.ToString(rel.schema()).c_str());
  }
  return 0;
}

int CmdMvds(const relation::Relation& rel, const Args& args) {
  fd::MvdMinerOptions options;
  options.max_lhs = args.GetSize("max-lhs", options.max_lhs);
  auto mvds = fd::MineMvds(rel, options);
  if (!mvds.ok()) {
    std::fprintf(stderr, "%s\n", mvds.status().ToString().c_str());
    return 1;
  }
  std::printf("# %zu non-FD multi-valued dependencies (LHS <= %zu):\n",
              mvds->size(), options.max_lhs);
  for (const auto& mvd : *mvds) {
    std::printf("%s\n", mvd.ToString(rel.schema()).c_str());
  }
  return 0;
}

int CmdKeys(const relation::Relation& rel, const Args& args) {
  fd::KeyMinerOptions options;
  options.max_size = args.GetSize("max-size", 4);
  auto keys = fd::MineMinimalKeys(rel, options);
  if (!keys.ok()) {
    std::fprintf(stderr, "%s\n", keys.status().ToString().c_str());
    return 1;
  }
  const std::string width =
      options.max_size == 0 ? "any width"
                            : util::StrFormat("width <= %zu", options.max_size);
  std::printf("# %zu minimal keys (%s):\n", keys->size(), width.c_str());
  for (fd::AttributeSet key : *keys) {
    std::printf("%s\n", key.ToString(rel.schema()).c_str());
  }
  return 0;
}

int CmdRank(const relation::Relation& rel, const Args& args) {
  core::StructureSummaryOptions options;
  options.psi = args.GetDouble("psi", options.psi);
  auto summary = core::SummarizeStructure(rel, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::printf("# ranked minimum cover (lower rank = more redundancy):\n");
  for (const auto& r : summary->ranked_cover) {
    const auto attrs = r.fd.lhs.Union(r.fd.rhs).ToList();
    std::printf("rank=%.4f%s %s  RAD=%.3f RTR=%.3f\n", r.rank,
                r.anchored ? "*" : " ", r.fd.ToString(rel.schema()).c_str(),
                core::Rad(rel, attrs), core::Rtr(rel, attrs));
  }
  if (g_collect_report) {
    if (summary->has_grouping) {
      AddReportSection(core::TrajectorySection(
          summary->grouping.aib.merges(), "attribute_grouping_trajectory"));
    }
    AddReportSection(MeasuresSection(rel, summary->ranked_cover));
  }
  return 0;
}

/// Mines approximate acyclic schemes: a partition-product entropy oracle
/// over the relation feeds the J-measure search. The printed error per
/// scheme is its J-measure — the KL cost in bits of pretending the
/// relation joins losslessly from the scheme's bags.
int CmdSchemes(const relation::Relation& rel, const Args& args) {
  relation::RelationRowSource source(rel);
  schemes::EntropyOracle oracle(source);
  schemes::MineOptions options;
  options.epsilon = args.GetDouble("epsilon", options.epsilon);
  options.max_separator = args.GetSize("max-sep", options.max_separator);
  options.max_schemes = args.GetSize("max-schemes", options.max_schemes);
  auto result = schemes::MineAcyclicSchemes(oracle, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("# H(Omega) = %.4f bits over %" PRIu64
              " rows; %zu approximate acyclic schemes (J <= %.4f):\n",
              result->total_entropy, result->num_rows,
              result->schemes.size(), options.epsilon);
  for (const auto& scheme : result->schemes) {
    std::printf("%s\n", scheme.ToString(rel.schema()).c_str());
  }
  std::printf("# separators tried: %" PRIu64 "; pairs pruned %" PRIu64
              " / evaluated %" PRIu64 "; oracle passes %" PRIu64
              " (%" PRIu64 " sets, %" PRIu64 " memo hits)\n",
              result->separators_tried, result->pairs_pruned,
              result->pairs_evaluated, oracle.stats().passes,
              oracle.stats().sets_counted, oracle.stats().memo_hits);
  if (g_collect_report) {
    obs::ReportSection section("schemes");
    section.AddField("total_entropy", result->total_entropy);
    section.AddField("epsilon", options.epsilon);
    section.AddField("separators_tried", result->separators_tried);
    section.AddField("pairs_pruned", result->pairs_pruned);
    section.AddField("pairs_evaluated", result->pairs_evaluated);
    section.AddField("oracle_passes", oracle.stats().passes);
    section.AddField("oracle_sets", oracle.stats().sets_counted);
    section.table.columns = {"scheme", "bags", "j_measure"};
    for (const auto& scheme : result->schemes) {
      section.table.rows.push_back(
          {obs::ReportValue::String(scheme.ToString(rel.schema())),
           obs::ReportValue::Integer(scheme.bags.size()),
           obs::ReportValue::Number(scheme.j_measure)});
    }
    AddReportSection(std::move(section));
  }
  return 0;
}

core::HorizontalPartitionOptions PartitionOptions(const Args& args) {
  core::HorizontalPartitionOptions options;
  options.k = args.GetSize("k", 0);
  options.phi = args.GetDouble("phi", options.phi);
  options.max_k = args.GetSize("max-k", options.max_k);
  options.stream_chunk = args.GetSize("chunk", 0);
  return options;
}

/// Horizontal partitioning of the tuples. The output is byte-identical
/// with and without --stream.
int CmdPartition(core::DcfStream& objects, const Args& args) {
  auto partition =
      core::HorizontallyPartitionStream(objects, PartitionOptions(args));
  if (!partition.ok()) {
    std::fprintf(stderr, "%s\n", partition.status().ToString().c_str());
    return 1;
  }
  const core::HorizontalPartitionResult& result = *partition;
  std::printf("k = %zu (%zu Phase-1 summaries); candidate ks:",
              result.chosen_k, result.num_leaves);
  for (size_t k : result.candidate_ks) std::printf(" %zu", k);
  std::printf("\n");
  for (size_t c = 0; c < result.cluster_sizes.size(); ++c) {
    std::printf("  cluster %zu: %zu tuples, %zu distinct values\n", c + 1,
                result.cluster_sizes[c], result.cluster_value_counts[c]);
  }
  std::printf("choice-of-k statistics:\n");
  for (const auto& s : result.stats) {
    std::printf("  k=%-4zu deltaI=%.5f H(C|V)=%.5f\n", s.k, s.delta_i,
                s.conditional_entropy);
  }
  if (g_collect_report) {
    obs::ReportSection choice("choice_of_k");
    choice.AddField("chosen_k", static_cast<uint64_t>(result.chosen_k));
    choice.AddField("num_leaves", static_cast<uint64_t>(result.num_leaves));
    choice.table.columns = {"k", "delta_i", "h_c_given_v"};
    for (const auto& s : result.stats) {
      choice.table.rows.push_back(
          {obs::ReportValue::Integer(s.k), obs::ReportValue::Number(s.delta_i),
           obs::ReportValue::Number(s.conditional_entropy)});
    }
    AddReportSection(choice);
  }
  return 0;
}

/// Source stats for a streamed command: loads the --stats sidecar when one
/// exists, otherwise runs the counting pass (and writes the sidecar when
/// --stats named a path, so the next run skips the pass).
util::Result<relation::SourceStats> LoadOrCollectStats(
    relation::RowSource& source, const Args& args) {
  const std::string stats_path = args.GetString("stats", "");
  if (!stats_path.empty() && std::ifstream(stats_path).good()) {
    return relation::LoadSourceStats(stats_path);
  }
  auto stats = relation::CollectSourceStats(source);
  if (stats.ok() && !stats_path.empty()) {
    util::Status saved = relation::SaveSourceStats(*stats, stats_path);
    if (!saved.ok()) return saved;
    std::printf("wrote stats sidecar %s (%zu rows, %zu values)\n",
                stats_path.c_str(), stats->num_rows,
                stats->dictionary.NumValues());
  }
  return stats;
}

/// Runs `command` over the input's tuple objects. --stream only changes
/// how they are read: a TupleObjectStream pulls them from the CSV one
/// chunk at a time (stats from the --stats sidecar or a counting pass), so
/// the relation is never materialized; otherwise they are built from the
/// whole relation and served zero-copy. Results are bit-identical.
int WithTupleObjects(const Args& args,
                     int (*command)(core::DcfStream&, const Args&)) {
  if (args.Has("stream")) {
    auto source = relation::CsvFileSource::Open(args.input);
    if (!source.ok()) {
      std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
      return 1;
    }
    auto stats = LoadOrCollectStats(*source, args);
    if (!stats.ok()) {
      std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
      return 1;
    }
    core::TupleObjectStream objects(*source, *stats);
    return command(objects, args);
  }
  auto rel = relation::ReadCsv(args.input);
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }
  const std::vector<core::Dcf> tuples = core::BuildTupleObjects(*rel);
  core::VectorDcfStream objects(tuples);
  return command(objects, args);
}

/// Phase-1 summaries of the tuples, saved with the φ_T, I(V;T) and
/// threshold they were built at.
int CmdSummaries(core::DcfStream& objects, const Args& args) {
  core::LimboOptions options;
  options.phi = args.GetDouble("phi-t", 0.5);
  options.stream_chunk = args.GetSize("chunk", 0);
  auto phase1 = core::SummarizePhase1(objects, options);
  if (!phase1.ok()) {
    std::fprintf(stderr, "%s\n", phase1.status().ToString().c_str());
    return 1;
  }
  const std::string out = args.GetString("out", args.input + ".dcf");
  core::DcfMeta meta;
  meta.has_clustering = true;
  meta.phi = options.phi;
  meta.mutual_information = phase1->mutual_information;
  meta.threshold = phase1->threshold;
  util::Status s = core::SaveDcfs(phase1->leaves, meta, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu Phase-1 summaries (phi_T=%.2f, I=%.4f bits) to %s\n",
              phase1->leaves.size(), options.phi, phase1->mutual_information,
              out.c_str());
  return 0;
}

int CmdDecompose(const relation::Relation& rel, const Args& args) {
  core::StructureSummaryOptions options;
  options.psi = args.GetDouble("psi", options.psi);
  auto summary = core::SummarizeStructure(rel, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::vector<fd::FunctionalDependency> anchored;
  for (const auto& r : summary->ranked_cover) {
    if (r.anchored) anchored.push_back(r.fd);
  }
  fd::KeyMinerOptions key_options;
  key_options.max_size = 3;
  auto keys = fd::MineMinimalKeys(rel, key_options);
  if (keys.ok()) {
    for (const auto& f : anchored) {
      std::printf("%s %s\n",
                  fd::ViolatesBcnf(f, *keys) ? "BCNF-violating:" : "in BCNF: ",
                  f.ToString(rel.schema()).c_str());
    }
  }
  auto fragments = core::DecomposeGreedily(rel, anchored);
  if (!fragments.ok()) {
    std::fprintf(stderr, "%s\n", fragments.status().ToString().c_str());
    return 1;
  }
  size_t original_cells = rel.NumTuples() * rel.NumAttributes();
  size_t cells = 0;
  for (const auto& fragment : *fragments) {
    cells += fragment.NumTuples() * fragment.NumAttributes();
  }
  std::printf("decomposed into %zu fragments using %zu anchored FDs; "
              "cells %zu -> %zu (%.1f%% saved)\n",
              fragments->size(), anchored.size(), original_cells, cells,
              100.0 * (1.0 - static_cast<double>(cells) /
                                 static_cast<double>(original_cells)));
  const std::string prefix = args.GetString("out", "");
  for (size_t i = 0; i < fragments->size(); ++i) {
    const auto& fragment = (*fragments)[i];
    std::printf("fragment %zu: %zu tuples x %zu attributes (", i + 1,
                fragment.NumTuples(), fragment.NumAttributes());
    for (size_t a = 0; a < fragment.NumAttributes(); ++a) {
      std::printf("%s%s", a ? "," : "", fragment.schema().Name(a).c_str());
    }
    std::printf(")\n");
    if (!prefix.empty()) {
      const std::string path =
          prefix + "_fragment" + std::to_string(i + 1) + ".csv";
      util::Status s = relation::WriteCsv(fragment, path);
      if (!s.ok()) {
        std::fprintf(stderr, "write %s: %s\n", path.c_str(),
                     s.ToString().c_str());
        return 1;
      }
      std::printf("  wrote %s\n", path.c_str());
    }
  }
  return 0;
}

}  // namespace

int CmdReport(const relation::Relation& rel, const Args& args) {
  core::StructureSummaryOptions options;
  options.phi_t = args.GetDouble("phi-t", options.phi_t);
  options.phi_v = args.GetDouble("phi-v", options.phi_v);
  options.psi = args.GetDouble("psi", options.psi);
  auto summary = core::SummarizeStructure(rel, options);
  if (!summary.ok()) {
    std::fprintf(stderr, "%s\n", summary.status().ToString().c_str());
    return 1;
  }
  std::string md = "# Structure report: " + args.input + "\n\n";
  md += util::StrFormat(
      "%zu tuples x %zu attributes, %zu distinct values.\n\n",
      summary->profile.tuples, summary->profile.attributes,
      summary->profile.distinct_values);
  md += "## Column profile\n\n";
  md += "| attribute | distinct | null % | entropy | flags |\n";
  md += "|---|---|---|---|---|\n";
  for (const auto& col : summary->profile.columns) {
    md += util::StrFormat(
        "| %s | %zu | %.1f | %.3f | %s |\n", col.name.c_str(),
        col.distinct_values, 100.0 * col.null_fraction, col.entropy,
        col.is_key ? "key" : (col.is_constant ? "constant" : ""));
  }
  md += util::StrFormat(
      "\n## Duplicate tuple candidates\n\n%zu group(s) from %zu "
      "summaries.\n",
      summary->duplicates.groups.size(), summary->duplicates.num_leaves);
  for (size_t g = 0; g < summary->duplicates.groups.size() && g < 10; ++g) {
    md += "- rows:";
    for (relation::TupleId t : summary->duplicates.groups[g].tuples) {
      md += util::StrFormat(" %u", t);
    }
    md += "\n";
  }
  md += util::StrFormat(
      "\n## Duplicate value groups (CV_D)\n\n%zu of %zu groups:\n\n",
      summary->values.duplicate_groups.size(), summary->values.groups.size());
  size_t shown = 0;
  for (size_t gi : summary->values.duplicate_groups) {
    if (++shown > 15) break;
    md += "- {";
    const auto& group = summary->values.groups[gi];
    for (size_t i = 0; i < group.values.size() && i < 6; ++i) {
      if (i) md += ", ";
      md += rel.dictionary().QualifiedName(rel.schema(), group.values[i]);
    }
    if (group.values.size() > 6) md += ", ...";
    md += "}\n";
  }
  if (summary->has_grouping) {
    std::vector<std::string> leaf_labels;
    for (relation::AttributeId a : summary->grouping.attributes) {
      leaf_labels.push_back(rel.schema().Name(a));
    }
    md += "\n## Attribute dendrogram\n\n```\n";
    md += core::RenderDendrogram(summary->grouping.aib, leaf_labels);
    md += "```\n";
  }
  md += util::StrFormat("\n## Ranked dependencies (%zu mined)\n\n",
                        summary->num_fds);
  md += "| rank | anchored | FD | RAD | RTR |\n|---|---|---|---|---|\n";
  shown = 0;
  for (const auto& r : summary->ranked_cover) {
    if (++shown > 15) break;
    const auto attrs = r.fd.lhs.Union(r.fd.rhs).ToList();
    md += util::StrFormat("| %.4f | %s | `%s` | %.3f | %.3f |\n", r.rank,
                          r.anchored ? "yes" : "", 
                          r.fd.ToString(rel.schema()).c_str(),
                          core::Rad(rel, attrs), core::Rtr(rel, attrs));
  }
  const std::string out = args.GetString("out", args.input + ".report.md");
  std::ofstream file(out, std::ios::binary);
  if (!file) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  file << md;
  std::printf("wrote %s (%zu bytes)\n", out.c_str(), md.size());
  return 0;
}

/// Freezes a full LIMBO run into a .limbo model bundle for limbo-serve.
int CmdFit(const relation::Relation& rel, const Args& args) {
  model::FitOptions options;
  options.phi_t = args.GetDouble("phi-t", options.phi_t);
  options.phi_v = args.GetDouble("phi-v", options.phi_v);
  options.psi = args.GetDouble("psi", options.psi);
  options.k = args.GetSize("k", options.k);
  options.refit_state = !args.Has("no-refit-state");
  options.mine_schemes = args.Has("schemes");
  options.schemes_epsilon =
      args.GetDouble("schemes-epsilon", options.schemes_epsilon);
  options.schemes_max_separator =
      args.GetSize("schemes-max-sep", options.schemes_max_separator);
  auto bundle = model::FitModel(rel, options);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }
  const std::string out = args.GetString("model-out", args.input + ".limbo");
  util::Status s = model::Save(*bundle, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf(
      "wrote model bundle %s (%" PRIu64 " rows, %zu clusters, %zu value "
      "groups, %zu ranked FDs)\n",
      out.c_str(), bundle->num_rows, bundle->representatives.size(),
      bundle->value_groups.size(), bundle->ranked_fds.size());
  if (bundle->has_schemes) {
    std::printf("mined %zu acyclic schemes (epsilon %.4f, H(Omega) %.4f "
                "bits)\n",
                bundle->schemes.size(), bundle->schemes_epsilon,
                bundle->schemes_total_entropy);
  }
  return 0;
}

using model::DriftClassName;

/// Absorbs new rows into a fitted bundle via the rehydrated Phase-1 tree.
/// Exit codes: 0 = child written, 2 = usage, 3 = severe drift (nothing
/// written — run a full fit), 1 = any other error.
int CmdRefit(const Args& args) {
  const std::string rows_path = args.GetString("input", "");
  if (rows_path.empty()) {
    std::fprintf(stderr,
                 "limbo-tool refit: --input=<new_rows.csv> is required\n");
    return 2;
  }
  auto parent = model::Load(args.input);
  if (!parent.ok()) {
    std::fprintf(stderr, "%s\n", parent.status().ToString().c_str());
    return 1;
  }
  auto source = relation::CsvFileSource::Open(rows_path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  model::RefitOptions options;
  options.drift_moderate =
      args.GetDouble("drift-moderate", options.drift_moderate);
  options.drift_severe = args.GetDouble("drift-severe", options.drift_severe);
  options.chunk_rows = args.GetSize("chunk", options.chunk_rows);
  auto result = model::RefitModel(*parent, *source, options);
  if (!result.ok()) {
    std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
    return 1;
  }
  std::printf("absorbed %" PRIu64
              " rows: drift %.4f (new mean loss %.6f / fit mean loss %.6f) "
              "-> %s\n",
              result->rows_absorbed, result->drift_score,
              result->new_rows_mean_loss, result->fit_mean_loss,
              DriftClassName(result->drift_class));
  if (result->drift_class == model::DriftClass::kSevere) {
    std::fprintf(stderr,
                 "severe drift (score %.4f >= %.4f): refusing to patch; run "
                 "a full fit on the combined data\n",
                 result->drift_score, options.drift_severe);
    return 3;
  }
  const std::string out = args.GetString("model-out", args.input);
  util::Status s = model::Save(result->bundle, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote refitted bundle %s (generation %u, %" PRIu64
              " rows, parent %016" PRIx64 ")\n",
              out.c_str(), result->bundle.lineage.refit_generation,
              result->bundle.num_rows, result->bundle.lineage.parent_checksum);
  return 0;
}

/// Prints a bundle's header, section inventory, and lineage.
int CmdInspect(const Args& args) {
  auto bundle = model::Load(args.input);
  if (!bundle.ok()) {
    std::fprintf(stderr, "%s\n", bundle.status().ToString().c_str());
    return 1;
  }
  std::printf("bundle: %s\n", args.input.c_str());
  std::printf("format version: %u\n", bundle->format_version);
  std::printf("payload checksum: %016" PRIx64 "\n", bundle->payload_checksum);
  std::printf("rows: %" PRIu64 "\n", bundle->num_rows);
  std::printf("attributes: %zu\n", bundle->schema.NumAttributes());
  std::printf("values: %zu\n", bundle->dictionary.NumValues());
  std::printf("clusters: %zu\n", bundle->representatives.size());
  std::printf("value groups: %zu (%zu duplicate)\n",
              bundle->value_groups.size(), bundle->duplicate_groups.size());
  std::printf("ranked FDs: %zu\n", bundle->ranked_fds.size());
  std::printf("grouping: %s\n", bundle->has_grouping ? "yes" : "no");
  if (bundle->has_schemes) {
    std::printf("schemes: %zu (epsilon %.4f, max separator %" PRIu64
                ", H(Omega) %.4f bits)\n",
                bundle->schemes.size(), bundle->schemes_epsilon,
                bundle->schemes_max_separator,
                bundle->schemes_total_entropy);
    for (const model::BundleScheme& s : bundle->schemes) {
      std::printf("  sep=%016" PRIx64 " bags=%zu j=%.6f\n", s.separator_bits,
                  s.bag_bits.size(), s.j_measure);
    }
  } else {
    std::printf("schemes: none\n");
  }
  if (bundle->has_phase1_tree) {
    const core::DcfTree::Stats& t = bundle->phase1_tree.stats;
    std::printf("refit state: yes (%" PRIu64 " leaf entries, %" PRIu64
                " nodes, height %" PRIu64 ")\n",
                static_cast<uint64_t>(t.num_leaf_entries),
                static_cast<uint64_t>(t.num_nodes),
                static_cast<uint64_t>(t.height));
  } else {
    std::printf("refit state: no\n");
  }
  if (bundle->has_lineage) {
    const model::BundleLineage& l = bundle->lineage;
    std::printf("lineage: generation %u, parent %016" PRIx64 "\n",
                l.refit_generation, l.parent_checksum);
    std::printf("  base rows %" PRIu64 ", absorbed %" PRIu64 " (chain total %"
                PRIu64 ")\n",
                l.base_rows, l.rows_absorbed, l.total_rows_absorbed);
    std::printf("  drift %.4f [%s] (thresholds %.2f / %.2f)\n", l.drift_score,
                DriftClassName(l.drift_class), l.drift_moderate,
                l.drift_severe);
    std::printf("  entropy drift %.4f bits (largest per-attribute |dH|, "
                "absorbed vs parent)\n",
                l.entropy_drift);
  } else {
    std::printf("lineage: none (original fit)\n");
  }
  return 0;
}

int CmdGenerate(const Args& args) {
  util::Result<relation::Relation> rel =
      util::Status::InvalidArgument("unknown dataset: " + args.input);
  if (args.input == "db2") {
    rel = datagen::Db2Sample::JoinedRelation();
  } else if (args.input == "dblp") {
    datagen::DblpOptions options;
    options.target_tuples = args.GetSize("tuples", 50000);
    options.seed = args.GetSize("seed", options.seed);
    rel = datagen::GenerateDblp(options);
  }
  if (!rel.ok()) {
    std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
    return 1;
  }
  const std::string out = args.GetString("out", args.input + ".csv");
  util::Status s = relation::WriteCsv(*rel, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s (%zu tuples x %zu attributes)\n", out.c_str(),
              rel->NumTuples(), rel->NumAttributes());
  return 0;
}

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  if (int rc = ValidateFlags(args); rc != 0) return rc;
  // --threads=N applies to every command: publish it as LIMBO_THREADS so
  // all thread-count resolution (util::DefaultThreadCount) sees it. Must
  // happen before any clustering call caches the value.
  if (args.Has("threads")) {
    setenv("LIMBO_THREADS", args.GetString("threads", "1").c_str(), 1);
  }
  if (args.Has("trace")) obs::SetTraceEcho(true);
  g_collect_report = args.Has("report");
  if (g_collect_report) {
    // The report should describe this run only, not whatever the process
    // accumulated before the command dispatch.
    obs::ResetTrace();
    obs::ResetCounters();
    obs::ReportSection run("run");
    run.AddField("command", args.command);
    run.AddField("input", args.input);
    run.AddField("threads", static_cast<uint64_t>(util::DefaultThreadCount()));
    g_report_sections.push_back(std::move(run));
  }
  int rc = 2;
  if (args.command == "generate") {
    rc = CmdGenerate(args);
  } else if (args.command == "refit") {
    // The positional input is a .limbo bundle, not a CSV; the new rows
    // arrive via --input.
    rc = CmdRefit(args);
  } else if (args.command == "inspect") {
    rc = CmdInspect(args);
  } else if (args.command == "partition") {
    rc = WithTupleObjects(args, CmdPartition);
  } else if (args.command == "summaries") {
    rc = WithTupleObjects(args, CmdSummaries);
  } else {
    auto rel = relation::ReadCsv(args.input);
    if (!rel.ok()) {
      std::fprintf(stderr, "%s\n", rel.status().ToString().c_str());
      return 1;
    }
    if (args.command == "profile") rc = CmdProfile(*rel, args);
    if (args.command == "summary") rc = CmdSummary(*rel, args);
    if (args.command == "duplicates") rc = CmdDuplicates(*rel, args);
    if (args.command == "values") rc = CmdValues(*rel, args);
    if (args.command == "fds") rc = CmdFds(*rel, args);
    if (args.command == "approx-fds") rc = CmdApproxFds(*rel, args);
    if (args.command == "mvds") rc = CmdMvds(*rel, args);
    if (args.command == "keys") rc = CmdKeys(*rel, args);
    if (args.command == "rank") rc = CmdRank(*rel, args);
    if (args.command == "schemes") rc = CmdSchemes(*rel, args);
    if (args.command == "decompose") rc = CmdDecompose(*rel, args);
    if (args.command == "report") rc = CmdReport(*rel, args);
    if (args.command == "fit") rc = CmdFit(*rel, args);
  }
  if (rc == 0 && g_collect_report) rc = WriteRunReport(args);
  return rc;
}
