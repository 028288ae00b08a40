#ifndef LIMBO_PERFBENCH_COMMON_H_
#define LIMBO_PERFBENCH_COMMON_H_

// Shared plumbing of the limbo-perf benchmark program: flags, timing,
// order statistics, the result record every workload fills, and helpers
// that read the library's obs counters and span tree.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "util/result.h"

namespace limbo::perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Lanes of every fit, refit and entropy oracle the workloads run.
constexpr size_t kThreads = 4;

/// `--key=value` flags after the subcommand. Every flag a workload reads
/// is required: perfbench/spec.json is the one place its value is set.
class Args {
 public:
  /// Parses argv[first..argc); exits 2 on anything that is not --key=value.
  Args(int argc, char** argv, int first);

  /// Each exits 2 when the key is missing or (numbers) does not parse.
  std::string Require(const std::string& key) const;
  double RequireDouble(const std::string& key) const;
  uint64_t RequireInt(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Sorted-copy order statistics. Percentile uses the nearest-rank rule on
/// q in [0, 1]; both return 0 for an empty sample.
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);
/// Mean of the values left when the lowest and the highest `trim` share
/// (in [0, 0.5)) are dropped; 0 for an empty sample. On a host whose speed
/// swings between states, it moves in proportion to the time spent in
/// each, where a median jumps from one state to the other.
double TrimmedMean(std::vector<double> values, double trim);

/// What one measure run reports: the correctness tally and its metrics,
/// in insertion order. Serialized as one JSON line for perfbench/run.py.
struct Outcome {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::pair<std::string, double>> metrics;

  void Set(const std::string& name, double value);
  /// Counts one attempted operation; a false `ok` also counts it failed
  /// and logs `what` to stderr (the first few only).
  void Check(bool ok, const std::string& what);
  /// Adds a batch of operations of which `failed_ops` failed.
  void Tally(uint64_t attempted_ops, uint64_t failed_ops,
             const std::string& what);
  std::string ToJson() const;
};

/// Prints `what: status` to stderr and exits 1 when `status` is an error.
void MustOk(const util::Status& status, const std::string& what);

template <typename T>
T Must(util::Result<T> result, const std::string& what) {
  MustOk(result.ok() ? util::Status::Ok() : result.status(), what);
  return std::move(result).value();
}

/// Current value of a named obs counter (0 if it never registered).
uint64_t CounterNow(const std::string& name);

/// Total seconds of every span node named `name`, anywhere in the tree.
double SpanSecondsNamed(const obs::SpanStats& node, const std::string& name);

/// Writes the current span tree and counter snapshot as a RunReport JSON
/// file, so a traced run leaves its full obs record next to its inputs.
void WriteObsSnapshot(const std::string& path, const std::string& title);

/// File size in bytes (0 when the file cannot be stat'ed).
uint64_t FileBytes(const std::string& path);

/// Peak resident set of this process so far (VmHWM), MiB.
double PeakRssMib();

/// Returns freed heap to the kernel and resets the peak resident set to
/// the current one, so a later PeakRssMib() covers only what follows;
/// returns that current resident set, MiB. Exits 1 when the kernel does
/// not allow the reset.
double ResetPeakRss();

}  // namespace limbo::perfbench

#endif  // LIMBO_PERFBENCH_COMMON_H_
