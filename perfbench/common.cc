#include "common.h"

#include <malloc.h>
#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>

#include "obs/counters.h"
#include "obs/report.h"
#include "util/json.h"

namespace limbo::perfbench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    const char* eq = std::strchr(arg, '=');
    if (std::strncmp(arg, "--", 2) != 0 || eq == nullptr) {
      std::fprintf(stderr, "limbo-perf: expected --key=value, got %s\n", arg);
      std::exit(2);
    }
    values_[std::string(arg + 2, eq)] = std::string(eq + 1);
  }
}

std::string Args::Require(const std::string& key) const {
  auto it = values_.find(key);
  if (it == values_.end()) {
    std::fprintf(stderr, "limbo-perf: missing --%s\n", key.c_str());
    std::exit(2);
  }
  return it->second;
}

double Args::RequireDouble(const std::string& key) const {
  const std::string text = Require(key);
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || *end != '\0') {
    std::fprintf(stderr, "limbo-perf: --%s is not a number\n", key.c_str());
    std::exit(2);
  }
  return value;
}

uint64_t Args::RequireInt(const std::string& key) const {
  const std::string text = Require(key);
  char* end = nullptr;
  const uint64_t value = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] == '-' || *end != '\0') {
    std::fprintf(stderr, "limbo-perf: --%s is not a count\n", key.c_str());
    std::exit(2);
  }
  return value;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(values.size() - 1, static_cast<size_t>(rank) - 1);
  return values[index];
}

double TrimmedMean(std::vector<double> values, double trim) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto cut = static_cast<size_t>(trim * static_cast<double>(values.size()));
  double sum = 0.0;
  for (size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

void Outcome::Set(const std::string& name, double value) {
  for (auto& [key, v] : metrics) {
    if (key == name) {
      v = value;
      return;
    }
  }
  metrics.emplace_back(name, value);
}

void Outcome::Check(bool ok, const std::string& what) {
  Tally(1, ok ? 0 : 1, what);
}

void Outcome::Tally(uint64_t attempted_ops, uint64_t failed_ops,
                    const std::string& what) {
  attempted += attempted_ops;
  if (failed_ops == 0) return;
  if (failed < 20) {
    std::fprintf(stderr, "limbo-perf: check failed (%llu of %llu): %s\n",
                 static_cast<unsigned long long>(failed_ops),
                 static_cast<unsigned long long>(attempted_ops), what.c_str());
  }
  failed += failed_ops;
}

std::string Outcome::ToJson() const {
  std::string out = "{\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out.push_back(',');
    util::AppendJsonString(metrics[i].first, &out);
    out.push_back(':');
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g",
                  std::isfinite(metrics[i].second) ? metrics[i].second : 0.0);
    out += buf;
  }
  out += "}}";
  return out;
}

void MustOk(const util::Status& status, const std::string& what) {
  if (status.ok()) return;
  std::fprintf(stderr, "limbo-perf: %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::exit(1);
}

uint64_t CounterNow(const std::string& name) {
  for (const obs::CounterValue& c : obs::SnapshotCounters()) {
    if (c.name == name) return c.value;
  }
  return 0;
}

double SpanSecondsNamed(const obs::SpanStats& node, const std::string& name) {
  double total = node.name == name ? node.total_seconds : 0.0;
  for (const obs::SpanStats& child : node.children) {
    total += SpanSecondsNamed(child, name);
  }
  return total;
}

void WriteObsSnapshot(const std::string& path, const std::string& title) {
  obs::RunReport report;
  report.title = title;
  report.sections.push_back(obs::TraceSection(obs::SnapshotTrace()));
  report.sections.push_back(obs::CountersSection(obs::SnapshotCounters()));
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << report.ToJson();
  if (!out) {
    std::fprintf(stderr, "limbo-perf: could not write %s\n", path.c_str());
  }
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (::stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

namespace {

/// A "<field>: <n> kB" line of /proc/self/status, in MiB.
double StatusMib(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string prefix = std::string(field) + ":";
  for (std::string line; std::getline(status, line);) {
    if (line.compare(0, prefix.size(), prefix) == 0) {
      return std::strtod(line.c_str() + prefix.size(), nullptr) / 1024.0;
    }
  }
  std::fprintf(stderr, "limbo-perf: no %s in /proc/self/status\n", field);
  std::exit(1);
}

}  // namespace

double PeakRssMib() { return StatusMib("VmHWM"); }

double ResetPeakRss() {
  ::malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  if (!clear) {
    std::fprintf(stderr, "limbo-perf: cannot reset the peak RSS\n");
    std::exit(1);
  }
  return StatusMib("VmRSS");
}

}  // namespace limbo::perfbench
