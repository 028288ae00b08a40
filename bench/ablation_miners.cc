// Ablation: FDEP vs TANE crossover. FDEP pays O(n^2) tuple-pair
// comparisons; TANE pays per-lattice-node partition products. The paper
// uses FDEP on its 90-tuple relation and notes "other methods could also
// be used" — this driver shows where each miner wins on synthetic data
// with planted FDs. Production mines with TANE at every size: FDEP's
// small-input lead is milliseconds, and one miner keeps one FD semantics.

#include <chrono>
#include <functional>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "fd/fdep.h"
#include "fd/tane.h"
#include "testing/make_relation.h"
#include "util/random.h"

namespace {

using namespace limbo;  // NOLINT

/// n tuples over 8 attributes with a planted key -> attribute structure
/// (K determines D1..D3; pairs of free attributes).
relation::Relation Synthetic(size_t n, uint64_t seed) {
  util::Random rng(seed);
  std::vector<std::vector<std::string>> rows;
  for (size_t t = 0; t < n; ++t) {
    const size_t key = rng.Uniform(n / 2 + 1);
    rows.push_back({
        "k" + std::to_string(key),
        "d" + std::to_string(key % 17),
        "e" + std::to_string(key % 5),
        "f" + std::to_string((key * 7) % 11),
        "x" + std::to_string(rng.Uniform(4)),
        "y" + std::to_string(rng.Uniform(6)),
        "z" + std::to_string(rng.Uniform(3)),
        "w" + std::to_string(rng.Uniform(9)),
    });
  }
  return limbo::testing::MakeRelation(
      {"K", "D1", "D2", "D3", "X", "Y", "Z", "W"}, rows);
}

double TimeMs(const std::function<void()>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace

int main() {
  bench::Banner("Ablation — FDEP vs TANE crossover",
                "Both miners return identical minimal FD sets; their "
                "costs scale differently with n.");

  std::printf("\n%-8s %-10s %-10s %-10s %-8s\n", "tuples", "FDEP ms",
              "TANE ms", "winner", "#FDs");
  for (size_t n : {100, 300, 1000, 3000, 10000}) {
    const auto rel = Synthetic(n, 7);
    std::vector<fd::FunctionalDependency> fdep_result;
    std::vector<fd::FunctionalDependency> tane_result;
    fd::FdepOptions fdep_options;
    fdep_options.max_tuples = 1u << 20;
    const double fdep_ms = TimeMs([&] {
      fdep_result = std::move(fd::Fdep::Mine(rel, fdep_options)).value();
    });
    const double tane_ms = TimeMs([&] {
      tane_result = std::move(fd::Tane::Mine(rel)).value();
    });
    if (fdep_result != tane_result) {
      std::fprintf(stderr, "MINERS DISAGREE at n=%zu\n", n);
      return 1;
    }
    std::printf("%-8zu %-10.1f %-10.1f %-10s %-8zu\n", n, fdep_ms, tane_ms,
                fdep_ms < tane_ms ? "FDEP" : "TANE", fdep_result.size());
  }
  std::printf(
      "\nShape check: FDEP wins on small relations; its O(n^2) pair scan "
      "loses to TANE's partition-based levelwise search as n grows. The "
      "small-input lead is milliseconds, so the library mines with TANE "
      "at every size.\n");
  return 0;
}
