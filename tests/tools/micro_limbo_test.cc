// micro_limbo run as a subprocess: a mode rejects a flag it does not take
// and a number that does not parse (exit 2) rather than running with the
// gate that flag names switched off, the retired modes are gone, and
// each remaining mode prints one RunReport. The binary path is injected
// by CMake as MICRO_LIMBO_PATH.

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/report.h"

#ifndef MICRO_LIMBO_PATH
#error "MICRO_LIMBO_PATH must be defined by the build"
#endif

namespace {

struct RunResult {
  int exit_code = -1;
  std::string out;  // stdout only; stderr goes to the test log
};

RunResult RunMicroLimbo(const std::string& args) {
  const std::string command = std::string(MICRO_LIMBO_PATH) + " " + args;
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buffer[4096];
  size_t n;
  while ((n = std::fread(buffer, 1, sizeof buffer, pipe)) > 0) {
    result.out.append(buffer, n);
  }
  result.exit_code = WEXITSTATUS(pclose(pipe));
  return result;
}

/// The section titled `title` of `report`, or null.
const limbo::obs::ReportSection* FindSection(
    const limbo::obs::RunReport& report, const std::string& title) {
  for (const auto& section : report.sections) {
    if (section.title == title) return &section;
  }
  return nullptr;
}

TEST(MicroLimboTest, StreamRejectsAnUnknownFlag) {
  // --stream takes --tuples alone; a flag of a retired mode must not run.
  EXPECT_EQ(RunMicroLimbo("--stream --tuples=300 --p99-limit-us=1").exit_code,
            2);
}

TEST(MicroLimboTest, StreamRejectsAMalformedNumber) {
  EXPECT_EQ(RunMicroLimbo("--stream --tuples=2x").exit_code, 2);
}

TEST(MicroLimboTest, RetiredModesExit2) {
  for (const char* mode : {"--serve", "--refit", "--schemes",
                           "--thread-scaling", "--report", "--load",
                           "--refit-tuples=300"}) {
    EXPECT_EQ(RunMicroLimbo(std::string(mode) + " --tuples=300").exit_code, 2)
        << mode;
  }
}

TEST(MicroLimboTest, StreamPrintsARunReportWithEquivalentArms) {
  const RunResult r = RunMicroLimbo("--stream --tuples=300");
  ASSERT_EQ(r.exit_code, 0);
  auto report = limbo::obs::RunReport::FromJson(r.out);
  ASSERT_TRUE(report.ok()) << report.status().ToString() << "\n" << r.out;
  const limbo::obs::ReportSection* stream = FindSection(*report, "stream");
  ASSERT_NE(stream, nullptr);
  ASSERT_EQ(stream->table.rows.size(), 2u);
  EXPECT_NE(FindSection(*report, "process"), nullptr);
  bool equivalent = false;
  for (const auto& [key, value] : stream->fields) {
    if (key == "equivalent") equivalent = value.boolean;
  }
  EXPECT_TRUE(equivalent);
}

TEST(MicroLimboTest, KernelPrintsARunReport) {
  const RunResult r = RunMicroLimbo("--kernel");
  ASSERT_EQ(r.exit_code, 0);
  auto report = limbo::obs::RunReport::FromJson(r.out);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_FALSE(report->sections.empty());
  EXPECT_EQ(report->sections[0].title, "kernel");
}

}  // namespace
