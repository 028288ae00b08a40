#ifndef LIMBO_MODEL_MODEL_BUNDLE_H_
#define LIMBO_MODEL_MODEL_BUNDLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/aib.h"
#include "core/attribute_grouping.h"
#include "core/dcf.h"
#include "core/dcf_tree.h"
#include "core/fd_rank.h"
#include "core/value_clustering.h"
#include "relation/dictionary.h"
#include "relation/schema.h"
#include "util/result.h"

namespace limbo::model {

/// On-disk format version written by this build. Version 2 added the two
/// optional refit sections (phase-1 tree, lineage); version 3 added the
/// optional mined-schemes section and the lineage entropy-drift field.
/// Readers accept 1 through 3 — older files simply parse with the newer
/// state absent. Load rejects any other version.
inline constexpr uint32_t kFormatVersion = 3;
/// Oldest format version this build still reads.
inline constexpr uint32_t kMinFormatVersion = 1;

/// How a refit classified the drift of the new rows against the frozen
/// representatives. Recorded in the lineage section of the child bundle.
enum class DriftClass : uint32_t {
  kNone = 0,      // no-drift: assignments patched in place
  kModerate = 1,  // Phase 2/3 re-run from the updated tree
  kSevere = 2,    // full refit required (no child bundle is written)
};

/// Stable display name ("no-drift" / "moderate" / "severe") used by the
/// CLI and the serve layer's lineage reporting.
const char* DriftClassName(DriftClass c);

/// Provenance of a refitted bundle: which bundle it grew from and how
/// much data it has absorbed since the original fit. Absent on bundles
/// written by `limbo-tool fit` (generation 0).
struct BundleLineage {
  /// FNV-1a payload checksum of the immediate parent bundle.
  uint64_t parent_checksum = 0;
  /// 1 for the first refit child, incrementing per refit.
  uint32_t refit_generation = 0;
  /// Drift classification of the refit that produced this bundle.
  DriftClass drift_class = DriftClass::kNone;
  /// Rows the original (generation-0) fit was run on. Object masses in
  /// the frozen tree stay in units of 1/base_rows across refits.
  uint64_t base_rows = 0;
  /// Rows absorbed by the refit that produced this bundle.
  uint64_t rows_absorbed = 0;
  /// Rows absorbed across the whole chain (num_rows - base_rows).
  uint64_t total_rows_absorbed = 0;
  /// Mean new-row assignment loss / mean fit-time assignment loss.
  double drift_score = 0.0;
  /// The no-drift/moderate and moderate/severe thresholds the refit ran
  /// with, so the classification is reproducible from the bundle alone.
  double drift_moderate = 0.0;
  double drift_severe = 0.0;
  /// Second drift signal (version >= 3): the largest absolute change, in
  /// bits, between any attribute's value entropy over the absorbed rows
  /// and the same attribute's entropy over the parent's frozen Phase-1
  /// counts. Loss-based drift watches the clustering; entropy drift
  /// watches the marginals — a distribution can shift without moving the
  /// assignment loss, and this field catches that.
  double entropy_drift = 0.0;
};

/// One mined approximate acyclic scheme as persisted in the tag-11
/// section: attribute bitmasks (the fd::AttributeSet encoding already
/// used by ranked FDs) plus the scheme's J-measure approximation error.
struct BundleScheme {
  uint64_t separator_bits = 0;
  std::vector<uint64_t> bag_bits;  // ascending; each contains separator
  double j_measure = 0.0;
};

/// Everything a LIMBO run derives from one relation, frozen for online
/// serving: the paper's artifacts are computed once (tuple clustering,
/// value groups / CV_D, the attribute dendrogram Q, ranked FDs) and then
/// queried millions of times without touching the source CSV again.
///
/// The `.limbo` file layout (all integers and doubles host-endian, doubles
/// as raw 8-byte IEEE-754 so probabilities round-trip bit-exactly):
///
///   | bytes | field                                   |
///   |-------|-----------------------------------------|
///   | 8     | magic "LIMBOMDL"                        |
///   | 4     | format version (u32)                    |
///   | 4     | reserved (0)                            |
///   | 8     | payload length (u64)                    |
///   | 8     | FNV-1a checksum of the payload (u64)    |
///   | ...   | payload: sections in ascending tag order|
///
/// Each section is `u32 tag, u32 reserved, u64 byte length, body`.
///
/// The codec rule: each section body is one template over a writer and a
/// reader, so it is described once and both directions agree on every
/// field. The reader checks each field next to where it reads it (range,
/// finiteness, positivity, monotonicity; counts are bounded by the bytes
/// left). Version gating is the reader's alone: it reads a field only in
/// the versions that carry it, and the writer always writes the current
/// version. Any truncation, checksum mismatch, version bump, unknown tag,
/// or value out of range yields an InvalidArgument starting with
/// `model bundle:` — never a crash and never a silently-wrong bundle.
///
/// Sections (tags 9 and 10 exist only in version >= 2 files, tag 11 only
/// in version >= 3):
///
///   | tag | section         | presence                              |
///   |-----|-----------------|---------------------------------------|
///   | 1   | meta            | required                              |
///   | 2   | schema          | required                              |
///   | 3   | dictionary      | required                              |
///   | 4   | representatives | required                              |
///   | 5   | assignments     | required                              |
///   | 6   | value groups    | required                              |
///   | 7   | grouping        | optional (CV_D non-empty)             |
///   | 8   | ranked FDs      | required                              |
///   | 9   | phase-1 tree    | optional (fit --no-refit-state omits) |
///   | 10  | lineage         | optional (refit children only)        |
///   | 11  | mined schemes   | optional (fit --schemes)              |
struct ModelBundle {
  // ---- meta (run parameters; what thresholded queries re-use) ----
  uint64_t num_rows = 0;             // n: tuples the model was fitted on
  double phi_t = 0.0;                // tuple-clustering accuracy φ_T
  double phi_v = 0.0;                // value-clustering accuracy φ_V
  double psi = 0.0;                  // FD-RANK ψ
  double mutual_information = 0.0;   // I(V;T) of the tuple objects, bits
  double threshold = 0.0;            // Phase-1 merge threshold φ_T·I/n
  double association_margin = 2.0;   // duplicate association margin
  double value_mutual_information = 0.0;  // I of the value objects
  double value_threshold = 0.0;           // value-stage merge threshold

  // ---- schema + dictionary, in original intern order ----
  relation::Schema schema;
  relation::ValueDictionary dictionary;

  // ---- tuple clustering (Phase-2 representatives + Phase-3 labels) ----
  std::vector<core::Dcf> representatives;
  std::vector<uint32_t> assignments;     // one label per fitted tuple
  std::vector<double> assignment_loss;   // δI of each assignment

  // ---- value groups / CV_D ----
  std::vector<core::ValueGroup> value_groups;
  std::vector<uint32_t> duplicate_groups;  // indices into value_groups

  // ---- attribute dendrogram Q (present only when CV_D is non-empty) ----
  bool has_grouping = false;
  std::vector<relation::AttributeId> grouping_attributes;
  uint64_t grouping_num_objects = 0;
  std::vector<core::Merge> grouping_merges;
  std::vector<uint64_t> grouping_cluster_members;  // AttributeSet bits
  double max_merge_loss = 0.0;

  // ---- ranked dependencies ----
  uint64_t num_fds = 0;  // total FDs mined before cover/collapse
  std::vector<core::RankedFd> ranked_fds;

  // ---- refit state (optional; version >= 2) ----
  /// Frozen Phase-1 DCF tree, rehydratable into a Phase1Builder that
  /// accepts further incremental inserts.
  bool has_phase1_tree = false;
  core::FrozenDcfTree phase1_tree;
  /// Per fitted row, the id of the Phase-1 leaf entry it was absorbed
  /// into (parallel to `assignments`). Lets a refit re-derive labels for
  /// the original rows from an updated tree without the raw data.
  std::vector<uint32_t> row_entry_ids;
  /// Refit provenance (refit children only).
  bool has_lineage = false;
  BundleLineage lineage;

  // ---- mined acyclic schemes (optional; version >= 3) ----
  bool has_schemes = false;
  /// Mining knobs the schemes were found with, for reproducibility.
  double schemes_epsilon = 0.0;
  uint64_t schemes_max_separator = 0;
  /// H(Ω) of the fitted relation in bits (the J-measure baseline).
  double schemes_total_entropy = 0.0;
  std::vector<BundleScheme> schemes;

  // ---- runtime-only fields (never serialized) ----
  /// Format version of the file this bundle was parsed from; bundles
  /// built in memory default to the current version.
  uint32_t format_version = kFormatVersion;
  /// FNV-1a checksum of the payload this bundle was parsed from (0 for
  /// bundles built in memory). A child's lineage.parent_checksum equals
  /// the parent's payload_checksum.
  uint64_t payload_checksum = 0;
};

/// Serializes `bundle` to the .limbo wire format.
std::string SerializeBundle(const ModelBundle& bundle);

/// Parses a .limbo byte string, validating the header, checksum, section
/// structure and every cross-reference (labels < representative count,
/// value ids < dictionary size, ...).
util::Result<ModelBundle> ParseBundle(const std::string& bytes);

/// File convenience wrappers. Save is crash-safe: it writes to
/// `<path>.tmp`, fsyncs, then atomically renames over `path`, so a crash
/// mid-write can never leave a truncated `.limbo` behind.
util::Status Save(const ModelBundle& bundle, const std::string& path);
util::Result<ModelBundle> Load(const std::string& path);

/// Stores the value groups, CV_D and value-stage I(V;T) and threshold of
/// `values` in `bundle` and, when `grouping` is non-null, the attribute
/// dendrogram (setting has_grouping). A null `grouping` leaves the
/// bundle's dendrogram fields as they are. Fit and refit both store the
/// derived structure through it.
void StoreStructure(core::ValueClusteringResult values,
                    const core::AttributeGroupingResult* grouping,
                    ModelBundle* bundle);

/// The attribute dendrogram `bundle` stores (meaningful when
/// has_grouping): the inverse of StoreStructure's grouping half.
core::AttributeGroupingResult StoredGrouping(const ModelBundle& bundle);

/// FNV-1a 64-bit checksum (exposed for tests).
uint64_t Fnv1a(const void* data, size_t size);

}  // namespace limbo::model

#endif  // LIMBO_MODEL_MODEL_BUNDLE_H_
