#ifndef LIMBO_BENCH_BENCH_UTIL_H_
#define LIMBO_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <string>
#include <vector>

#include "core/limbo.h"
#include "core/tuple_clustering.h"
#include "datagen/error_inject.h"
#include "relation/relation.h"

namespace limbo::bench {

/// Prints a reproduction-driver banner.
inline void Banner(const char* experiment, const char* description) {
  std::printf("==============================================================\n");
  std::printf("%s\n%s\n", experiment, description);
  std::printf("==============================================================\n");
}

/// Prints one "paper vs measured" row.
inline void PaperVsMeasured(const std::string& label, double paper,
                            double measured) {
  std::printf("  %-44s paper=%-8.3f measured=%-8.3f\n", label.c_str(), paper,
              measured);
}

/// How many injected dirty tuples ended up grouped with their source.
inline size_t CountRecoveredTuples(
    const core::DuplicateTupleReport& report,
    const std::vector<datagen::DirtyRecord>& records) {
  size_t found = 0;
  for (const auto& record : records) {
    for (const auto& group : report.groups) {
      bool has_dirty = false;
      bool has_source = false;
      for (relation::TupleId t : group.tuples) {
        has_dirty |= (t == record.dirty_id);
        has_source |= (t == record.source_id);
      }
      if (has_dirty && has_source) {
        ++found;
        break;
      }
    }
  }
  return found;
}

/// One row of a thread-scaling sweep: the lane count and the phase
/// timings a LIMBO run produced with it.
struct ThreadScalingRow {
  size_t threads = 1;
  core::PhaseTimings timings;
};

/// Emits a thread-scaling sweep as one JSON object on stdout:
/// {"benchmark": ..., "tuples": ..., "leaves": ..., "deterministic": ...,
///  "results": [{"threads": t, "phase1_seconds": ..., ...}, ...]}.
/// `deterministic` reports whether every run was bit-identical to the
/// serial baseline (merge sequence and Phase-3 assignments).
inline void PrintThreadScalingJson(const char* benchmark, size_t tuples,
                                   size_t leaves, bool deterministic,
                                   const std::vector<ThreadScalingRow>& rows) {
  std::printf("{\"benchmark\": \"%s\", \"tuples\": %zu, \"leaves\": %zu, "
              "\"deterministic\": %s, \"results\": [",
              benchmark, tuples, leaves, deterministic ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const core::PhaseTimings& t = rows[i].timings;
    std::printf(
        "%s{\"threads\": %zu, \"phase1_seconds\": %.6f, "
        "\"phase2_seconds\": %.6f, \"phase3_seconds\": %.6f, "
        "\"phase2_distance_evals\": %llu}",
        i == 0 ? "" : ", ", rows[i].threads, t.phase1_seconds,
        t.phase2_seconds, t.phase3_seconds,
        static_cast<unsigned long long>(t.phase2_distance_evals));
  }
  std::printf("]}\n");
}

/// One row of the `--kernel` microbenchmark: a support-size shape and
/// the measured per-evaluation cost of the per-pair reference
/// formulation vs the batch LossKernel.
struct KernelCaseRow {
  std::string name;
  size_t object_support = 0;
  size_t candidate_support = 0;
  double per_pair_ns_per_eval = 0.0;
  double batch_ns_per_eval = 0.0;
  double max_abs_diff = 0.0;  // batch vs per-pair, should be ~0
};

/// End-to-end Phase-2 + Phase-3 timings at one input size, single-
/// threaded, and whether both matched the per-pair reference bit for bit.
struct KernelEndToEndRow {
  size_t tuples = 0;
  size_t leaves = 0;
  double phase2_batch_seconds = 0.0;
  double phase3_batch_seconds = 0.0;
  bool bit_identical = false;
};

/// Emits the kernel benchmark as one JSON object on stdout.
inline void PrintKernelJson(const std::vector<KernelCaseRow>& micro,
                            const KernelEndToEndRow& e2e) {
  std::printf("{\"benchmark\": \"limbo_kernel\", \"micro\": [");
  for (size_t i = 0; i < micro.size(); ++i) {
    const KernelCaseRow& r = micro[i];
    const double speedup = r.batch_ns_per_eval > 0.0
                               ? r.per_pair_ns_per_eval / r.batch_ns_per_eval
                               : 0.0;
    std::printf(
        "%s{\"case\": \"%s\", \"object_support\": %zu, "
        "\"candidate_support\": %zu, \"per_pair_ns_per_eval\": %.1f, "
        "\"batch_ns_per_eval\": %.1f, \"speedup\": %.2f, "
        "\"max_abs_diff\": %.3g}",
        i == 0 ? "" : ", ", r.name.c_str(), r.object_support,
        r.candidate_support, r.per_pair_ns_per_eval, r.batch_ns_per_eval,
        speedup, r.max_abs_diff);
  }
  std::printf(
      "], \"end_to_end\": {\"tuples\": %zu, \"leaves\": %zu, "
      "\"phase2_batch_seconds\": %.6f, \"phase3_batch_seconds\": %.6f, "
      "\"bit_identical\": %s}}\n",
      e2e.tuples, e2e.leaves, e2e.phase2_batch_seconds,
      e2e.phase3_batch_seconds, e2e.bit_identical ? "true" : "false");
}

/// FNV-1a mixing helpers for the result checksum below.
inline void HashMix(uint64_t* h, const void* data, size_t bytes) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    *h ^= p[i];
    *h *= 1099511628211ull;
  }
}
inline void HashDouble(uint64_t* h, double v) { HashMix(h, &v, sizeof v); }
inline void HashU64(uint64_t* h, uint64_t v) { HashMix(h, &v, sizeof v); }

/// FNV-1a checksum over every semantically meaningful bit of a
/// LimboResult: I(V;T), the threshold, the leaf DCFs, the merge sequence,
/// the representatives, and the per-object labels and losses. Two runs
/// are bit-identical iff their checksums match, which lets the `--stream`
/// benchmark compare arms that ran in separate processes.
inline uint64_t HashLimboResult(const core::LimboResult& r) {
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  HashDouble(&h, r.mutual_information);
  HashDouble(&h, r.threshold);
  auto hash_dcfs = [&h](const std::vector<core::Dcf>& dcfs) {
    HashU64(&h, dcfs.size());
    for (const core::Dcf& d : dcfs) {
      HashDouble(&h, d.p);
      for (const auto& e : d.cond.entries()) {
        HashU64(&h, e.id);
        HashDouble(&h, e.mass);
      }
    }
  };
  hash_dcfs(r.leaves);
  HashU64(&h, r.aib.merges().size());
  for (const core::Merge& m : r.aib.merges()) {
    HashU64(&h, m.left);
    HashU64(&h, m.right);
    HashU64(&h, m.merged);
    HashDouble(&h, m.delta_i);
    HashDouble(&h, m.cumulative_loss);
  }
  hash_dcfs(r.representatives);
  for (uint32_t label : r.assignments) HashU64(&h, label);
  for (double loss : r.assignment_loss) HashDouble(&h, loss);
  return h;
}

/// One arm of the `--stream` benchmark, measured in its own child process
/// so ru_maxrss isolates that arm's peak instead of the process maximum
/// across both arms.
struct StreamArmRow {
  std::string arm;
  double seconds = 0.0;
  unsigned long long peak_rss_kb = 0;
  size_t leaves = 0;
  uint64_t checksum = 0;
};

/// Prints one arm as a single JSON line (the child-process protocol of
/// the `--stream` benchmark; the parent parses exactly this shape).
inline void PrintStreamArmJson(const StreamArmRow& r) {
  std::printf(
      "{\"arm\": \"%s\", \"seconds\": %.6f, \"peak_rss_kb\": %llu, "
      "\"leaves\": %zu, \"checksum\": \"%016llx\"}\n",
      r.arm.c_str(), r.seconds, r.peak_rss_kb, r.leaves,
      static_cast<unsigned long long>(r.checksum));
}

/// Emits the combined `--stream` benchmark record on stdout:
/// streamed-vs-materialized peak RSS and wall time plus the checksum
/// equivalence verdict. This is what BENCH_stream.json records.
inline void PrintStreamJson(size_t tuples, size_t k, bool equivalent,
                            const std::vector<StreamArmRow>& arms) {
  double streamed_rss = 0.0;
  double materialized_rss = 0.0;
  for (const StreamArmRow& r : arms) {
    if (r.arm == "streamed") streamed_rss = static_cast<double>(r.peak_rss_kb);
    if (r.arm == "materialized") {
      materialized_rss = static_cast<double>(r.peak_rss_kb);
    }
  }
  const double rss_ratio =
      streamed_rss > 0.0 ? materialized_rss / streamed_rss : 0.0;
  std::printf("{\"benchmark\": \"limbo_stream\", \"tuples\": %zu, "
              "\"k\": %zu, \"equivalent\": %s, \"rss_ratio\": %.2f, "
              "\"arms\": [",
              tuples, k, equivalent ? "true" : "false", rss_ratio);
  for (size_t i = 0; i < arms.size(); ++i) {
    const StreamArmRow& r = arms[i];
    std::printf(
        "%s{\"arm\": \"%s\", \"seconds\": %.6f, \"peak_rss_kb\": %llu, "
        "\"leaves\": %zu, \"checksum\": \"%016llx\"}",
        i == 0 ? "" : ", ", r.arm.c_str(), r.seconds, r.peak_rss_kb, r.leaves,
        static_cast<unsigned long long>(r.checksum));
  }
  std::printf("]}\n");
}

/// Tuple-cluster labels from a Phase-1 + Phase-3 run at the given φ_T
/// (used as the Double Clustering input of Section 6.2).
inline std::vector<uint32_t> TupleClusterLabels(const relation::Relation& rel,
                                                double phi_t,
                                                size_t* num_clusters) {
  const std::vector<core::Dcf> objects = core::BuildTupleObjects(rel);
  core::LimboOptions options;
  options.phi = phi_t;
  core::VectorDcfStream stream(objects);
  const core::Phase1Summary phase1 =
      core::SummarizePhase1(stream, options).value();
  *num_clusters = phase1.leaves.size();
  return core::LimboPhase3(objects, phase1.leaves).value();
}

}  // namespace limbo::bench

#endif  // LIMBO_BENCH_BENCH_UTIL_H_
