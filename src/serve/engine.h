#ifndef LIMBO_SERVE_ENGINE_H_
#define LIMBO_SERVE_ENGINE_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/prob.h"
#include "model/model_bundle.h"
#include "util/json.h"
#include "util/result.h"

namespace limbo::serve {

/// What to do with attribute values the model never saw at fit time.
enum class OovPolicy {
  /// Drop unseen values from the row object's support (the uniform
  /// conditional spreads over the known values only) and report how many
  /// were dropped. A row with *no* known value is still an error.
  kDrop,
  /// Any unseen value fails the query with a typed error.
  kStrict,
};

struct EngineOptions {
  OovPolicy oov = OovPolicy::kDrop;
};

/// Outcome of assigning one row of a batch. Row-level failures (arity
/// mismatch, strict-OOV miss) are per-row statuses, never batch
/// failures: one bad row in a batch must not poison its neighbors.
struct RowAssignment {
  util::Status status;
  uint32_t label = 0;
  double loss = 0.0;
  size_t oov = 0;
};

/// Stateless query engine over one frozen model bundle. The bundle is
/// loaded once; every query after that touches only in-memory state, and
/// all of it is read-only after construction — concurrent HandleRequests
/// calls are safe as long as each caller passes its own LossKernel.
///
/// Queries and responses are newline-delimited JSON (one object per
/// line). Protocol errors come back as {"ok":false,...} responses, never
/// as crashes — no query can fail the call itself.
///
/// `assign` replicates Phase3Assigner bit for bit: the row object is
/// p = 1/n uniform over its dictionary ids, the representatives are
/// frozen into one core::CandidateSet, and the argmin is
/// core::FindNearestCandidate (lowest cluster index wins ties). A fitted
/// row therefore gets exactly the label and loss the batch run stored,
/// at any worker count.
class Engine {
 public:
  /// Loads a bundle file and freezes the serving state.
  static util::Result<Engine> Open(const std::string& path,
                                   const EngineOptions& options = {});

  /// Same, over an already-parsed bundle.
  static util::Result<Engine> FromBundle(model::ModelBundle bundle,
                                         const EngineOptions& options = {});

  /// Answers one query line: ParseJson, the object check, then
  /// HandleRequests on a batch of one. `kernel` is the caller's scratch
  /// evaluator — one per worker lane; the engine itself stays read-only.
  std::string HandleLine(const std::string& line,
                         core::LossKernel* kernel) const;

  /// The engine's evaluation entry: answers a batch of already-parsed
  /// query objects with one kernel, returning one response per request,
  /// in order. `assign` and `duplicates` rows across the whole batch are
  /// decoded first and evaluated through a single AssignBatch call (the
  /// candidate index stays cache-hot across rows); every other op
  /// answers in place. Each row's arithmetic is independent of its batch
  /// neighbours, so a request's response never depends on the batch it
  /// rides in. Unknown fields, including "model", are ignored.
  std::vector<std::string> HandleRequests(
      std::span<const util::JsonValue* const> requests,
      core::LossKernel* kernel) const;

  /// Single-threaded convenience using an engine-owned kernel.
  std::string HandleLine(const std::string& line) {
    return HandleLine(line, &own_kernel_);
  }

  const model::ModelBundle& bundle() const { return bundle_; }

  /// Assigns one decoded row (fields in schema order) to its nearest
  /// representative: AssignBatch on a batch of one, exposed for the
  /// bit-identity tests and the serve benchmark. `oov` receives the
  /// number of dropped values (kDrop only).
  util::Status AssignRow(const std::vector<std::string>& fields,
                         core::LossKernel* kernel, uint32_t* label,
                         double* loss, size_t* oov) const;

  /// Assigns a batch of decoded rows with one kernel. Each row is
  /// core::FindNearestCandidate over the frozen CandidateSet — Phase 3's
  /// bound-pruned argmin, with its scratch in the lane's kernel — so its
  /// label and loss do not depend on the batch; the batch exists to
  /// amortize the representative traversal (and, in the server, the
  /// queue rendezvous and socket writes) across rows.
  std::vector<RowAssignment> AssignBatch(
      std::span<const std::vector<std::string>> rows,
      core::LossKernel* kernel) const;

 private:
  Engine(model::ModelBundle bundle, const EngineOptions& options);

  util::Result<core::Dcf> RowObject(const std::vector<std::string>& fields,
                                    size_t* oov) const;
  util::Status ParseRowArg(const util::JsonValue& request,
                           std::vector<std::string>* fields) const;

  std::string FormatAssign(uint32_t label, double loss, size_t oov) const;
  std::string FormatDuplicates(uint32_t label, double loss,
                               size_t oov) const;
  util::Result<std::string> HandleValueGroup(
      const util::JsonValue& request) const;
  util::Result<std::string> HandleAttrs() const;
  util::Result<std::string> HandleFds(const util::JsonValue& request) const;
  util::Result<std::string> HandleSchemes(
      const util::JsonValue& request) const;
  util::Result<std::string> HandleInfo() const;

  model::ModelBundle bundle_;
  EngineOptions options_;
  // The representatives, frozen for Phase 3's nearest-candidate search.
  core::CandidateSet candidates_;
  // 1/base_rows — the mass unit the representatives were fitted in. A
  // refit chain keeps anchoring to the generation-0 row count, so a
  // refitted child serves losses byte-identical to its parent.
  double row_mass_ = 0.0;
  // value id -> value_groups index (kNoGroup when unassigned).
  static constexpr uint32_t kNoGroup = UINT32_MAX;
  std::vector<uint32_t> value_to_group_;
  core::LossKernel own_kernel_;
};

}  // namespace limbo::serve

#endif  // LIMBO_SERVE_ENGINE_H_
