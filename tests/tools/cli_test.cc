// Integration tests for the limbo-tool CLI: every subcommand is executed
// as a subprocess against generated data, asserting exit codes and key
// output fragments. The binary path is injected by CMake as
// LIMBO_TOOL_PATH.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#ifndef LIMBO_TOOL_PATH
#error "LIMBO_TOOL_PATH must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

RunResult RunTool(const std::string& args) {
  const std::string command =
      std::string(LIMBO_TOOL_PATH) + " " + args + " 2>&1";
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  while (fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    result.output += buffer;
  }
  const int status = pclose(pipe);
  result.exit_code = WEXITSTATUS(status);
  return result;
}

std::string TempCsv() {
  // Per-process path: gtest_discover_tests runs every TEST as its own
  // process, and ctest may run them concurrently — a shared filename
  // would let one process read the sample while another regenerates it.
  static std::string path = [] {
    std::string p = ::testing::TempDir() + "/limbo_cli_db2." +
                    std::to_string(getpid()) + ".csv";
    const RunResult r = RunTool("generate db2 --out=" + p);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    return p;
  }();
  return path;
}

TEST(CliTest, UsageOnBadInvocation) {
  EXPECT_EQ(RunTool("").exit_code, 2);
  const RunResult r = RunTool("profile");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownSubcommandPrintsUsageAndExits2) {
  const RunResult r = RunTool("bogus-command somewhere.csv");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
  // The usage line enumerates the real subcommands, so a typo points the
  // user at the right spelling.
  EXPECT_NE(r.output.find("fit"), std::string::npos);
  EXPECT_NE(r.output.find("summaries"), std::string::npos);
}

TEST(CliTest, MissingFileFailsCleanly) {
  const RunResult r = RunTool("profile /nonexistent/nope.csv");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("IoError"), std::string::npos);
}

TEST(CliTest, GenerateAndProfile) {
  const RunResult r = RunTool("profile " + TempCsv());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("90 tuples x 19 attributes"), std::string::npos);
  EXPECT_NE(r.output.find("DeptName"), std::string::npos);
}

TEST(CliTest, Duplicates) {
  const RunResult r = RunTool("duplicates " + TempCsv() + " --phi-t=0.1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("candidate groups"), std::string::npos);
}

TEST(CliTest, Values) {
  const RunResult r = RunTool("values " + TempCsv());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("duplicate (CV_D)"), std::string::npos);
  // The department triple co-occurs perfectly.
  EXPECT_NE(r.output.find("DeptNo=D01"), std::string::npos);
}

TEST(CliTest, FdsWithMinCover) {
  const RunResult r = RunTool("fds " + TempCsv() + " --min-cover");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("minimum cover"), std::string::npos);
  EXPECT_NE(r.output.find("->"), std::string::npos);
}

TEST(CliTest, FdsReportsAConstantColumnAsEmptyLhsPastTwoThousandRows) {
  // A constant column C is ∅ → C at any size, including past the
  // 2,000-row Double-Clustering threshold (not [A]->[C] and [B]->[C]).
  const std::string csv = ::testing::TempDir() + "/limbo_cli_const." +
                          std::to_string(getpid()) + ".csv";
  FILE* f = std::fopen(csv.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("A,B,C\n", f);
  for (int i = 0; i < 2001; ++i) std::fprintf(f, "%d,%d,k\n", i, i % 7);
  std::fclose(f);
  const RunResult r = RunTool("fds " + csv);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "# 2 minimal FDs:\n[]->[C]\n[A]->[B]\n");
}

TEST(CliTest, ApproxFds) {
  const RunResult r = RunTool("approx-fds " + TempCsv() +
                          " --epsilon=0.05 --max-lhs=1");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("approximate FDs"), std::string::npos);
}

TEST(CliTest, Keys) {
  const RunResult r = RunTool("keys " + TempCsv() + " --max-size=2");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("[EmpNo,ProjNo]"), std::string::npos);
  EXPECT_NE(r.output.find("(width <= 2):"), std::string::npos) << r.output;
}

TEST(CliTest, KeysWithoutAWidthBoundSaysSo) {
  // --max-size=0 means no bound, so the header must not claim width <= 0
  // above the width-1 key [C].
  const std::string csv = ::testing::TempDir() + "/limbo_cli_keys." +
                          std::to_string(getpid()) + ".csv";
  FILE* f = std::fopen(csv.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("A,B,C\n1,2,3\n1,2,4\n", f);
  std::fclose(f);
  const RunResult r = RunTool("keys " + csv + " --max-size=0");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_EQ(r.output, "# 1 minimal keys (any width):\n[C]\n");
}

TEST(CliTest, RankShowsAnchoredDeptFd) {
  const RunResult r = RunTool("rank " + TempCsv());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("rank="), std::string::npos);
  EXPECT_NE(r.output.find("DeptName"), std::string::npos);
}

TEST(CliTest, Partition) {
  const RunResult r = RunTool("partition " + TempCsv() + " --k=2 --phi=0.3");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("cluster 1"), std::string::npos);
  EXPECT_NE(r.output.find("cluster 2"), std::string::npos);
}

TEST(CliTest, DecomposeWritesFragments) {
  const std::string prefix = ::testing::TempDir() + "/limbo_cli_frag";
  const RunResult r =
      RunTool("decompose " + TempCsv() + " --out=" + prefix);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("BCNF"), std::string::npos);
  EXPECT_NE(r.output.find("fragment 1"), std::string::npos);
  const std::string frag1 = prefix + "_fragment1.csv";
  FILE* f = std::fopen(frag1.c_str(), "r");
  ASSERT_NE(f, nullptr) << frag1;
  std::fclose(f);
}

TEST(CliTest, SummariesRoundTrip) {
  const std::string dcf = ::testing::TempDir() + "/limbo_cli.dcf";
  const RunResult r =
      RunTool("summaries " + TempCsv() + " --phi-t=0.5 --out=" + dcf);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Phase-1 summaries"), std::string::npos);
  FILE* f = std::fopen(dcf.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char magic[10] = {};
  ASSERT_EQ(std::fread(magic, 1, 9, f), 9u);
  std::fclose(f);
  EXPECT_EQ(std::string(magic), "limbo-dcf");
}

TEST(CliTest, ReportProducesMarkdown) {
  const std::string out = ::testing::TempDir() + "/limbo_cli_report.md";
  const RunResult r = RunTool("report " + TempCsv() + " --out=" + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  FILE* f = std::fopen(out.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char head[20] = {};
  ASSERT_GT(std::fread(head, 1, 18, f), 0u);
  std::fclose(f);
  EXPECT_EQ(std::string(head, 18), "# Structure report");
}

TEST(CliTest, SummaryRunsWholePipeline) {
  const RunResult r = RunTool("summary " + TempCsv());
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("=== Profile ==="), std::string::npos);
  EXPECT_NE(r.output.find("=== Dependencies"), std::string::npos);
}

TEST(CliTest, UnknownFlagIsRejected) {
  struct Case {
    std::string args;
    std::string flag;
  };
  const std::string csv = TempCsv();
  const std::vector<Case> cases = {
      {"summary " + csv + " --no-such-flag", "--no-such-flag"},
      // fds has one miner, TANE, and no flag to pick another.
      {"fds " + csv + " --miner=tane", "--miner"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args);
    const std::string command = c.args.substr(0, c.args.find(' '));
    const RunResult r = RunTool(c.args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("limbo-tool " + command + ": unknown flag " +
                            c.flag),
              std::string::npos)
        << r.output;
  }
  // A flag valid for one command is still rejected on another.
  EXPECT_EQ(RunTool("profile " + csv + " --psi=0.5").exit_code, 2);
}

std::string ReadFile(const std::string& path) {
  std::string content;
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return content;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof(buffer), f)) > 0) {
    content.append(buffer, n);
  }
  std::fclose(f);
  return content;
}

TEST(CliTest, RunReportJsonHasExpectedSections) {
  const std::string out = ::testing::TempDir() + "/limbo_cli_run_report.json";
  const RunResult r = RunTool("summary " + TempCsv() + " --report=" + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("wrote run report"), std::string::npos);
  const std::string json = ReadFile(out);
  ASSERT_FALSE(json.empty());
  // Envelope + the sections the summary command contributes. String
  // checks keep this test parser-free; the obs tests own round-tripping.
  EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"title\": \"limbo-tool summary\""),
            std::string::npos);
  EXPECT_NE(json.find("\"attribute_grouping_trajectory\""),
            std::string::npos);
  EXPECT_NE(json.find("\"delta_i\""), std::string::npos);
  EXPECT_NE(json.find("\"measures\""), std::string::npos);
  EXPECT_NE(json.find("\"rad\""), std::string::npos);
  EXPECT_NE(json.find("\"rtr\""), std::string::npos);
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("dcf_tree.inserts"), std::string::npos);
}

TEST(CliTest, RunReportMarkdownByExtension) {
  const std::string out = ::testing::TempDir() + "/limbo_cli_run_report.md";
  const RunResult r =
      RunTool("partition " + TempCsv() + " --k=2 --report=" + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string md = ReadFile(out);
  EXPECT_NE(md.find("# limbo-tool partition"), std::string::npos);
  EXPECT_NE(md.find("## spans"), std::string::npos);
  EXPECT_NE(md.find("## choice_of_k"), std::string::npos);
  EXPECT_NE(md.find("## counters"), std::string::npos);
}

TEST(CliTest, TraceFlagEchoesSpans) {
  const RunResult r = RunTool("partition " + TempCsv() + " --k=2 --trace");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("[trace]"), std::string::npos);
  EXPECT_NE(r.output.find("horizontal_partition:"), std::string::npos);
}

TEST(CliTest, FitWritesAModelBundle) {
  const std::string out = ::testing::TempDir() + "/limbo_cli_fit." +
                          std::to_string(getpid()) + ".limbo";
  const RunResult r =
      RunTool("fit " + TempCsv() + " --k=5 --model-out=" + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("wrote model bundle"), std::string::npos);
  EXPECT_NE(r.output.find("5 clusters"), std::string::npos);
  FILE* f = std::fopen(out.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char magic[9] = {};
  ASSERT_EQ(std::fread(magic, 1, 8, f), 8u);
  std::fclose(f);
  EXPECT_EQ(std::string(magic, 8), "LIMBOMDL");
}

TEST(CliTest, FitReportStatesPeakRss) {
  const std::string id = std::to_string(getpid());
  const std::string model = ::testing::TempDir() + "/limbo_cli_rss." + id +
                            ".limbo";
  const std::string out = ::testing::TempDir() + "/limbo_cli_rss." + id +
                          ".json";
  const RunResult r = RunTool("fit " + TempCsv() + " --k=5 --model-out=" +
                              model + " --report=" + out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  const std::string json = ReadFile(out);
  EXPECT_NE(json.find("\"process\""), std::string::npos);
  const std::string key = "\"peak_rss_mb\": ";
  const size_t at = json.find(key);
  ASSERT_NE(at, std::string::npos) << json;
  EXPECT_GT(std::strtod(json.c_str() + at + key.size(), nullptr), 0.0);
}

std::string DblpCsv() {
  static std::string path = [] {
    std::string p = ::testing::TempDir() + "/limbo_cli_dblp." +
                    std::to_string(getpid()) + ".csv";
    const RunResult r = RunTool("generate dblp --tuples=600 --out=" + p);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    return p;
  }();
  return path;
}

std::string PidPath(const std::string& stem) {
  return ::testing::TempDir() + "/" + stem + "." + std::to_string(getpid());
}

TEST(CliTest, SummariesWriteTheSameBytesWithAndWithoutStream) {
  // --stream changes how the CSV is read, never what is written.
  for (const std::string& csv : {TempCsv(), DblpCsv()}) {
    SCOPED_TRACE(csv);
    std::string first;
    for (const char* arm : {"", " --stream", " --stream --chunk=37"}) {
      SCOPED_TRACE(arm);
      const std::string out = PidPath("limbo_cli_summaries.dcf");
      const RunResult r = RunTool("summaries " + csv + " --phi-t=0.5 --out=" +
                                  out + arm);
      ASSERT_EQ(r.exit_code, 0) << r.output;
      const std::string bytes = ReadFile(out);
      ASSERT_FALSE(bytes.empty());
      if (first.empty()) first = bytes;
      EXPECT_EQ(bytes, first);
    }
  }
}

TEST(CliTest, PartitionPrintsTheSameLinesWithAndWithoutStream) {
  for (const std::string& csv : {TempCsv(), DblpCsv()}) {
    SCOPED_TRACE(csv);
    const RunResult materialized = RunTool("partition " + csv + " --k=3");
    const RunResult streamed =
        RunTool("partition " + csv + " --k=3 --stream --chunk=37");
    ASSERT_EQ(materialized.exit_code, 0) << materialized.output;
    ASSERT_EQ(streamed.exit_code, 0) << streamed.output;
    EXPECT_EQ(streamed.output, materialized.output);
  }
}

/// The integer after `"key", ` or `"key": ` in a JSON report, or -1.
long JsonInteger(const std::string& json, const std::string& key) {
  for (const char* sep : {"\", ", "\": "}) {
    const std::string needle = "\"" + key + sep;
    const size_t at = json.find(needle);
    if (at != std::string::npos) {
      return std::strtol(json.c_str() + at + needle.size(), nullptr, 10);
    }
  }
  return -1;
}

TEST(CliTest, PartitionReportCountsTheSameScansWithAndWithoutStream) {
  // The k = 0 LIMBO run's three scans, the Phase-3 scan and the
  // statistics scan, whichever way the rows are read.
  for (const char* arm : {"", " --stream --chunk=37"}) {
    SCOPED_TRACE(arm);
    const std::string out = PidPath("limbo_cli_scans") + ".json";
    const RunResult r = RunTool("partition " + DblpCsv() +
                                " --k=3 --report=" + out + arm);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(JsonInteger(ReadFile(out), "dcf_stream.scans"), 5);
  }
}

TEST(CliTest, ReportStatesABoundedLaneCount) {
  // An out-of-range LIMBO_THREADS counts as unset. profile starts no
  // worker pool, so no threads are started whatever the value.
  const std::string out = PidPath("limbo_cli_lanes") + ".json";
  setenv("LIMBO_THREADS", "1000000", 1);
  const RunResult r = RunTool("profile " + TempCsv() + " --report=" + out);
  unsetenv("LIMBO_THREADS");
  ASSERT_EQ(r.exit_code, 0) << r.output;
  const long threads = JsonInteger(ReadFile(out), "threads");
  EXPECT_GE(threads, 1);
  EXPECT_LE(threads, 4096);
}

TEST(CliTest, SummariesOnAHeaderOnlyCsvFailsWithATypedError) {
  const std::string csv = PidPath("limbo_cli_header_only") + ".csv";
  FILE* f = std::fopen(csv.c_str(), "w");
  ASSERT_NE(f, nullptr);
  std::fputs("A,B,C\n", f);
  std::fclose(f);
  for (const char* arm : {"", " --stream"}) {
    SCOPED_TRACE(arm);
    const RunResult r = RunTool("summaries " + csv + " --out=" +
                                PidPath("limbo_cli_empty.dcf") + arm);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find("InvalidArgument"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("needs >= 1 object"), std::string::npos)
        << r.output;
  }
}

TEST(CliTest, MalformedNumericFlagsExit2) {
  struct Case {
    std::string args;
    std::string flag;
  };
  const std::string csv = TempCsv();
  const std::vector<Case> cases = {
      {"summaries " + csv + " --phi-t=abc", "--phi-t"},
      {"summaries " + csv + " --phi-t=0.5x", "--phi-t"},
      {"summaries " + csv + " --phi-t=", "--phi-t"},
      {"summaries " + csv + " --stream --chunk=-5", "--chunk"},
      {"partition " + csv + " --k=-1", "--k"},
      {"partition " + csv + " --k=2.5", "--k"},
      {"partition " + csv + " --phi=nan", "--phi"},
      {"partition " + csv + " --phi=1e999", "--phi"},
      {"partition " + csv + " --max-k=99999999999999999999999", "--max-k"},
      {"partition " + csv + " --threads=lots", "--threads"},
      {"partition " + csv + " --threads=4097", "--threads"},
      {"fit " + csv + " --threads=18446744073709551615", "--threads"},
      {"approx-fds " + csv + " --epsilon=inf", "--epsilon"},
      {"keys " + csv + " --max-size=+2", "--max-size"},
      {"fit " + csv + " --k=ten", "--k"},
      {"generate dblp --tuples=1e3 --out=" + PidPath("limbo_cli_gen.csv"),
       "--tuples"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args);
    const std::string command = c.args.substr(0, c.args.find(' '));
    const RunResult r = RunTool(c.args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("limbo-tool " + command + ": " + c.flag + " "),
              std::string::npos)
        << r.output;
  }
}

TEST(CliTest, ValueFlagsNeedAValueAndSwitchesRefuseOne) {
  struct Case {
    std::string args;
    std::string message;
  };
  const std::string csv = TempCsv();
  const std::string bundle = PidPath("limbo_cli_flags.limbo");
  const std::vector<Case> cases = {
      // A value flag given bare used to read as "1": fit ran at k = 1,
      // and summaries --out wrote a file named "1".
      {"fit " + csv + " --k --model-out=" + bundle, "--k needs a value"},
      {"fit " + csv + " --model-out", "--model-out needs a value"},
      {"summaries " + csv + " --out", "--out needs a value"},
      {"rank " + csv + " --report", "--report needs a value"},
      {"partition " + csv + " --threads", "--threads needs a value"},
      // A switch given a value used to ignore it: --schemes=0 mined
      // schemes and --no-refit-state=false dropped the refit state.
      {"fit " + csv + " --schemes=0 --model-out=" + bundle,
       "--schemes takes no value"},
      {"fit " + csv + " --no-refit-state=false --model-out=" + bundle,
       "--no-refit-state takes no value"},
      {"summaries " + csv + " --stream=1", "--stream takes no value"},
      {"fds " + csv + " --min-cover=no", "--min-cover takes no value"},
      {"profile " + csv + " --trace=0", "--trace takes no value"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.args);
    const std::string command = c.args.substr(0, c.args.find(' '));
    const RunResult r = RunTool(c.args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find("limbo-tool " + command + ": " + c.message),
              std::string::npos)
        << r.output;
  }
  EXPECT_EQ(ReadFile(bundle), "");  // no fit ran
}

}  // namespace
