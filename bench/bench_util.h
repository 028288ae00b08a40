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
