#include "serve/engine.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dcf.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "relation/csv_scanner.h"
#include "serve/wire.h"
#include "util/json.h"

namespace limbo::serve {

namespace {

using util::JsonValue;

/// Optional non-negative integer "limit" field, clamped to `fallback`.
/// kInteger's payload is unsigned and the parser routes every '-'-leading
/// token to kNumber, so a negative literal lands in the kind check below —
/// it can never reach the uint64 and wrap through the cast. The clamp
/// against fallback runs in uint64 so over-size_t values on narrow
/// platforms saturate instead of truncating.
util::Result<size_t> ParseLimit(const JsonValue& request, size_t fallback) {
  const JsonValue* l = request.Find("limit");
  if (l == nullptr) return fallback;
  if (l->kind != JsonValue::Kind::kInteger) {
    return util::Status::InvalidArgument(
        "\"limit\" must be a non-negative integer");
  }
  const uint64_t clamped =
      std::min(static_cast<uint64_t>(fallback), l->integer);
  return static_cast<size_t>(clamped);
}

void AppendNameList(const relation::Schema& schema,
                    const std::vector<relation::AttributeId>& ids,
                    std::string* out) {
  out->push_back('[');
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    util::AppendJsonString(schema.Name(ids[i]), out);
  }
  out->push_back(']');
}

}  // namespace

Engine::Engine(model::ModelBundle bundle, const EngineOptions& options)
    : bundle_(std::move(bundle)),
      options_(options),
      candidates_(bundle_.representatives) {
  const uint64_t base_rows =
      bundle_.has_lineage ? bundle_.lineage.base_rows : bundle_.num_rows;
  row_mass_ = 1.0 / static_cast<double>(base_rows);
  value_to_group_.assign(bundle_.dictionary.NumValues(), kNoGroup);
  for (size_t g = 0; g < bundle_.value_groups.size(); ++g) {
    for (relation::ValueId v : bundle_.value_groups[g].values) {
      value_to_group_[v] = static_cast<uint32_t>(g);
    }
  }
}

util::Result<Engine> Engine::Open(const std::string& path,
                                  const EngineOptions& options) {
  LIMBO_ASSIGN_OR_RETURN(model::ModelBundle bundle, model::Load(path));
  return FromBundle(std::move(bundle), options);
}

util::Result<Engine> Engine::FromBundle(model::ModelBundle bundle,
                                        const EngineOptions& options) {
  if (bundle.representatives.empty()) {
    return util::Status::FailedPrecondition(
        "bundle has no cluster representatives; refusing to serve");
  }
  if (bundle.num_rows == 0) {
    return util::Status::FailedPrecondition(
        "bundle was fitted on 0 rows; refusing to serve");
  }
  return Engine(std::move(bundle), options);
}

util::Result<core::Dcf> Engine::RowObject(
    const std::vector<std::string>& fields, size_t* oov) const {
  const relation::Schema& schema = bundle_.schema;
  if (fields.size() != schema.NumAttributes()) {
    return util::Status::InvalidArgument(
        "row has " + std::to_string(fields.size()) + " fields; schema has " +
        std::to_string(schema.NumAttributes()) + " attributes");
  }
  std::vector<uint32_t> ids;
  ids.reserve(fields.size());
  *oov = 0;
  for (size_t a = 0; a < fields.size(); ++a) {
    util::Result<relation::ValueId> v = bundle_.dictionary.Find(
        static_cast<relation::AttributeId>(a), fields[a]);
    if (v.ok()) {
      ids.push_back(*v);
      continue;
    }
    if (options_.oov == OovPolicy::kStrict) {
      return util::Status::NotFound("unseen value for attribute \"" +
                                    schema.Name(static_cast<uint32_t>(a)) +
                                    "\": \"" + fields[a] + "\"");
    }
    ++*oov;
  }
  if (ids.empty()) {
    return util::Status::NotFound(
        "every value in the row is unseen; nothing to assign");
  }
  // The batch tuple object of Section 5.2: prior 1/n, conditional uniform
  // over the row's value ids. Using the fitted n (the refit chain's
  // base_rows) keeps the loss scale — and thus the assignment argmin —
  // bit-identical to Phase 3 across refit generations.
  core::Dcf object;
  object.p = row_mass_;
  object.cond = core::SparseDistribution::UniformOver(ids);
  return object;
}

util::Status Engine::AssignRow(const std::vector<std::string>& fields,
                               core::LossKernel* kernel, uint32_t* label,
                               double* loss, size_t* oov) const {
  RowAssignment a = std::move(AssignBatch({&fields, 1}, kernel)[0]);
  *label = a.label;
  *loss = a.loss;
  *oov = a.oov;
  return a.status;
}

std::vector<RowAssignment> Engine::AssignBatch(
    std::span<const std::vector<std::string>> rows,
    core::LossKernel* kernel) const {
  std::vector<RowAssignment> results(rows.size());
  // Duplicate-row fast path: load batches are often dominated by repeated
  // rows (hot entities, client retries). Byte-identical rows — keyed by a
  // length-prefixed field join, so ("ab","c") never collides with
  // ("a","bc") — are evaluated once; later copies reuse the first
  // occurrence's RowAssignment verbatim (status included), which makes
  // the responses byte-identical to the plain per-row loop.
  std::unordered_map<std::string, size_t> first_at;
  first_at.reserve(rows.size());
  std::string key;
  uint64_t dup_rows = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    key.clear();
    for (const std::string& field : rows[i]) {
      const uint32_t len = static_cast<uint32_t>(field.size());
      key.append(reinterpret_cast<const char*>(&len), sizeof(len));
      key.append(field);
    }
    const auto [it, inserted] = first_at.emplace(key, i);
    if (!inserted) {
      results[i] = results[it->second];
      ++dup_rows;
      continue;
    }
    RowAssignment& result = results[i];
    util::Result<core::Dcf> object = RowObject(rows[i], &result.oov);
    if (!object.ok()) {
      result.status = object.status();
      continue;
    }
    const core::NearestCandidate nearest = core::FindNearestCandidate(
        kernel, object->p, object->cond, candidates_);
    result.label = nearest.index;
    result.loss = nearest.loss;
  }
  if (dup_rows > 0) LIMBO_OBS_COUNT("serve.batch.dup_rows", dup_rows);
  return results;
}

util::Status Engine::ParseRowArg(const JsonValue& request,
                                 std::vector<std::string>* fields) const {
  const JsonValue* row = request.Find("row");
  const JsonValue* csv = request.Find("csv");
  if ((row != nullptr) == (csv != nullptr)) {
    return util::Status::InvalidArgument(
        "query needs exactly one of \"row\" (array of strings) or \"csv\" "
        "(raw record)");
  }
  fields->clear();
  if (row != nullptr) {
    if (row->kind != JsonValue::Kind::kArray) {
      return util::Status::InvalidArgument("\"row\" must be an array");
    }
    fields->reserve(row->array.size());
    for (const JsonValue& field : row->array) {
      if (field.kind != JsonValue::Kind::kString) {
        return util::Status::InvalidArgument(
            "\"row\" elements must be strings");
      }
      fields->push_back(field.str);
    }
    return util::Status::Ok();
  }
  if (csv->kind != JsonValue::Kind::kString) {
    return util::Status::InvalidArgument("\"csv\" must be a string");
  }
  relation::CsvScanner scanner;
  scanner.Consume(csv->str);
  LIMBO_RETURN_IF_ERROR(scanner.Finish());
  if (scanner.BufferedRecords() != 1) {
    return util::Status::InvalidArgument(
        "\"csv\" must contain exactly one record, got " +
        std::to_string(scanner.BufferedRecords()));
  }
  scanner.PopRecord(fields);
  return util::Status::Ok();
}

std::string Engine::FormatAssign(uint32_t label, double loss,
                                 size_t oov) const {
  std::string out = "{\"ok\":true,";
  AppendIntField("cluster", label, &out);
  out.push_back(',');
  AppendNumberField("loss", loss, &out);
  out.push_back(',');
  AppendIntField("oov", oov, &out);
  out.push_back('}');
  return out;
}

std::string Engine::FormatDuplicates(uint32_t label, double loss,
                                     size_t oov) const {
  // Section 6.1 association test: the row is a near-duplicate iff its
  // nearest cluster is heavy (prior above a single tuple's 1/n) and
  // joining it costs at most margin × the Phase-1 merge threshold.
  const bool heavy = candidates_.prior(label) > row_mass_;
  const double limit = bundle_.association_margin * bundle_.threshold;
  const bool duplicate = heavy && loss <= limit;
  std::string out = "{\"ok\":true,";
  AppendBoolField("duplicate", duplicate, &out);
  out.push_back(',');
  AppendIntField("cluster", label, &out);
  out.push_back(',');
  AppendNumberField("loss", loss, &out);
  out.push_back(',');
  AppendNumberField("limit", limit, &out);
  out.push_back(',');
  AppendBoolField("heavy", heavy, &out);
  out.push_back(',');
  AppendIntField("oov", oov, &out);
  out.push_back('}');
  return out;
}

util::Result<std::string> Engine::HandleValueGroup(
    const JsonValue& request) const {
  const JsonValue* attr = request.Find("attr");
  const JsonValue* value = request.Find("value");
  if (attr == nullptr || attr->kind != JsonValue::Kind::kString ||
      value == nullptr || value->kind != JsonValue::Kind::kString) {
    return util::Status::InvalidArgument(
        "valuegroup needs string fields \"attr\" and \"value\"");
  }
  LIMBO_ASSIGN_OR_RETURN(relation::AttributeId a,
                         bundle_.schema.Find(attr->str));
  util::Result<relation::ValueId> v = bundle_.dictionary.Find(a, value->str);
  if (!v.ok()) {
    return util::Status::NotFound("value \"" + value->str +
                                  "\" was never seen under attribute \"" +
                                  attr->str + "\"");
  }
  std::string out = "{\"ok\":true,";
  AppendStringField(
      "value", bundle_.dictionary.QualifiedName(bundle_.schema, *v), &out);
  out.push_back(',');
  AppendIntField("support", bundle_.dictionary.Support(*v), &out);
  out.push_back(',');
  const uint32_t g = value_to_group_[*v];
  if (g == kNoGroup) {
    out += "\"group\":null,\"is_duplicate\":false,\"members\":[]";
    out.push_back('}');
    return out;
  }
  const core::ValueGroup& group = bundle_.value_groups[g];
  AppendIntField("group", g, &out);
  out.push_back(',');
  AppendBoolField("is_duplicate", group.is_duplicate, &out);
  out.push_back(',');
  AppendKey("members", &out);
  out.push_back('[');
  for (size_t i = 0; i < group.values.size(); ++i) {
    if (i > 0) out.push_back(',');
    util::AppendJsonString(
        bundle_.dictionary.QualifiedName(bundle_.schema, group.values[i]),
        &out);
  }
  out += "]}";
  return out;
}

util::Result<std::string> Engine::HandleAttrs() const {
  std::string out = "{\"ok\":true,";
  AppendKey("attributes", &out);
  out.push_back('[');
  for (size_t a = 0; a < bundle_.schema.NumAttributes(); ++a) {
    if (a > 0) out.push_back(',');
    util::AppendJsonString(bundle_.schema.Name(static_cast<uint32_t>(a)),
                           &out);
  }
  out += "],";
  AppendBoolField("has_grouping", bundle_.has_grouping, &out);
  if (bundle_.has_grouping) {
    out.push_back(',');
    AppendKey("grouping", &out);
    out += "{";
    AppendKey("attributes", &out);
    AppendNameList(bundle_.schema, bundle_.grouping_attributes, &out);
    out.push_back(',');
    AppendNumberField("max_merge_loss", bundle_.max_merge_loss, &out);
    out.push_back(',');
    AppendKey("merges", &out);
    out.push_back('[');
    for (size_t i = 0; i < bundle_.grouping_merges.size(); ++i) {
      const core::Merge& m = bundle_.grouping_merges[i];
      if (i > 0) out.push_back(',');
      out += "{";
      AppendIntField("left", m.left, &out);
      out.push_back(',');
      AppendIntField("right", m.right, &out);
      out.push_back(',');
      AppendIntField("merged", m.merged, &out);
      out.push_back(',');
      AppendNumberField("loss", m.delta_i, &out);
      out.push_back('}');
    }
    out += "],";
    AppendKey("clusters", &out);
    out.push_back('[');
    for (size_t i = 0; i < bundle_.grouping_cluster_members.size(); ++i) {
      if (i > 0) out.push_back(',');
      AppendNameList(
          bundle_.schema,
          fd::AttributeSet(bundle_.grouping_cluster_members[i]).ToList(),
          &out);
    }
    out += "]}";
  }
  out.push_back('}');
  return out;
}

util::Result<std::string> Engine::HandleFds(const JsonValue& request) const {
  LIMBO_ASSIGN_OR_RETURN(size_t limit,
                         ParseLimit(request, bundle_.ranked_fds.size()));
  std::string out = "{\"ok\":true,";
  AppendIntField("total_mined", bundle_.num_fds, &out);
  out.push_back(',');
  AppendIntField("ranked", bundle_.ranked_fds.size(), &out);
  out.push_back(',');
  AppendKey("fds", &out);
  out.push_back('[');
  for (size_t i = 0; i < limit; ++i) {
    const core::RankedFd& f = bundle_.ranked_fds[i];
    if (i > 0) out.push_back(',');
    out += "{";
    AppendKey("lhs", &out);
    AppendNameList(bundle_.schema, f.fd.lhs.ToList(), &out);
    out.push_back(',');
    AppendKey("rhs", &out);
    AppendNameList(bundle_.schema, f.fd.rhs.ToList(), &out);
    out.push_back(',');
    AppendNumberField("rank", f.rank, &out);
    out.push_back(',');
    AppendBoolField("anchored", f.anchored, &out);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

util::Result<std::string> Engine::HandleSchemes(
    const JsonValue& request) const {
  LIMBO_ASSIGN_OR_RETURN(size_t limit,
                         ParseLimit(request, bundle_.schemes.size()));
  std::string out = "{\"ok\":true,";
  AppendNumberField("epsilon", bundle_.schemes_epsilon, &out);
  out.push_back(',');
  AppendIntField("max_separator", bundle_.schemes_max_separator, &out);
  out.push_back(',');
  AppendNumberField("total_entropy", bundle_.schemes_total_entropy, &out);
  out.push_back(',');
  AppendIntField("count", bundle_.schemes.size(), &out);
  out.push_back(',');
  AppendKey("schemes", &out);
  out.push_back('[');
  for (size_t i = 0; i < limit; ++i) {
    const model::BundleScheme& s = bundle_.schemes[i];
    if (i > 0) out.push_back(',');
    out += "{";
    AppendKey("separator", &out);
    AppendNameList(bundle_.schema, fd::AttributeSet(s.separator_bits).ToList(),
                   &out);
    out.push_back(',');
    AppendKey("bags", &out);
    out.push_back('[');
    for (size_t b = 0; b < s.bag_bits.size(); ++b) {
      if (b > 0) out.push_back(',');
      AppendNameList(bundle_.schema, fd::AttributeSet(s.bag_bits[b]).ToList(),
                     &out);
    }
    out += "],";
    AppendNumberField("j_measure", s.j_measure, &out);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

util::Result<std::string> Engine::HandleInfo() const {
  std::string out = "{\"ok\":true,";
  AppendIntField("format_version", bundle_.format_version, &out);
  out.push_back(',');
  AppendStringField("checksum", ChecksumHex(bundle_.payload_checksum), &out);
  out.push_back(',');
  AppendIntField("rows", bundle_.num_rows, &out);
  out.push_back(',');
  AppendIntField("attributes", bundle_.schema.NumAttributes(), &out);
  out.push_back(',');
  AppendIntField("values", bundle_.dictionary.NumValues(), &out);
  out.push_back(',');
  AppendIntField("clusters", bundle_.representatives.size(), &out);
  out.push_back(',');
  AppendNumberField("phi_t", bundle_.phi_t, &out);
  out.push_back(',');
  AppendNumberField("phi_v", bundle_.phi_v, &out);
  out.push_back(',');
  AppendNumberField("psi", bundle_.psi, &out);
  out.push_back(',');
  AppendNumberField("mutual_information", bundle_.mutual_information, &out);
  out.push_back(',');
  AppendNumberField("threshold", bundle_.threshold, &out);
  out.push_back(',');
  AppendNumberField("association_margin", bundle_.association_margin, &out);
  out.push_back(',');
  AppendIntField("value_groups", bundle_.value_groups.size(), &out);
  out.push_back(',');
  AppendIntField("duplicate_value_groups", bundle_.duplicate_groups.size(),
                 &out);
  out.push_back(',');
  AppendBoolField("has_grouping", bundle_.has_grouping, &out);
  out.push_back(',');
  AppendIntField("fds_mined", bundle_.num_fds, &out);
  out.push_back(',');
  AppendIntField("ranked_fds", bundle_.ranked_fds.size(), &out);
  out.push_back(',');
  AppendBoolField("has_schemes", bundle_.has_schemes, &out);
  out.push_back(',');
  AppendIntField("schemes", bundle_.schemes.size(), &out);
  out.push_back(',');
  AppendStringField("oov_policy",
                    options_.oov == OovPolicy::kDrop ? "drop" : "strict",
                    &out);
  out.push_back(',');
  AppendBoolField("refit_capable", bundle_.has_phase1_tree, &out);
  out.push_back(',');
  AppendKey("lineage", &out);
  AppendLineage(bundle_.has_lineage, bundle_.lineage, &out);
  out.push_back('}');
  return out;
}

std::string Engine::HandleLine(const std::string& line,
                               core::LossKernel* kernel) const {
  util::Result<JsonValue> request = util::ParseJson(line);
  if (!request.ok()) {
    LIMBO_OBS_COUNT("serve.query.errors", 1);
    return ErrorResponse(request.status());
  }
  if (request->kind != JsonValue::Kind::kObject) {
    LIMBO_OBS_COUNT("serve.query.errors", 1);
    return ErrorResponse(
        util::Status::InvalidArgument("query must be a JSON object"));
  }
  const JsonValue* one = &*request;
  return std::move(HandleRequests({&one, 1}, kernel)[0]);
}

std::vector<std::string> Engine::HandleRequests(
    std::span<const JsonValue* const> requests,
    core::LossKernel* kernel) const {
  std::vector<std::string> responses(requests.size());
  // assign/duplicates rows are decoded in this pass and evaluated together
  // by one AssignBatch call below; every other op answers in place.
  struct RowRequest {
    size_t index;
    bool duplicates;
  };
  std::vector<RowRequest> row_requests;
  std::vector<std::vector<std::string>> rows;
  for (size_t i = 0; i < requests.size(); ++i) {
    const JsonValue& request = *requests[i];
    util::Result<std::string> response = [&]() -> util::Result<std::string> {
      const JsonValue* op = request.Find("op");
      if (op == nullptr || op->kind != JsonValue::Kind::kString) {
        return util::Status::InvalidArgument(
            "query needs a string field \"op\"");
      }
      const bool duplicates = op->str == "duplicates";
      if (op->str == "assign" || duplicates) {
        if (duplicates) {
          LIMBO_OBS_COUNT("serve.query.duplicates", 1);
        } else {
          LIMBO_OBS_COUNT("serve.query.assign", 1);
        }
        std::vector<std::string> fields;
        LIMBO_RETURN_IF_ERROR(ParseRowArg(request, &fields));
        row_requests.push_back({i, duplicates});
        rows.push_back(std::move(fields));
        return std::string();  // formatted after AssignBatch
      }
      if (op->str == "valuegroup") {
        LIMBO_OBS_SPAN(span, "serve.valuegroup");
        LIMBO_OBS_COUNT("serve.query.valuegroup", 1);
        return HandleValueGroup(request);
      }
      if (op->str == "attrs") {
        LIMBO_OBS_SPAN(span, "serve.attrs");
        LIMBO_OBS_COUNT("serve.query.attrs", 1);
        return HandleAttrs();
      }
      if (op->str == "fds") {
        LIMBO_OBS_SPAN(span, "serve.fds");
        LIMBO_OBS_COUNT("serve.query.fds", 1);
        return HandleFds(request);
      }
      if (op->str == "schemes") {
        LIMBO_OBS_SPAN(span, "serve.schemes");
        LIMBO_OBS_COUNT("serve.query.schemes", 1);
        if (!bundle_.has_schemes) {
          // A typed protocol error, not a transport failure: v1/v2 bundles
          // (and fits without --schemes) simply have no section to serve.
          LIMBO_OBS_COUNT("serve.query.errors", 1);
          return ErrorResponse(
              "no_schemes",
              "bundle has no mined-schemes section; re-fit with --schemes");
        }
        return HandleSchemes(request);
      }
      if (op->str == "info") {
        LIMBO_OBS_SPAN(span, "serve.info");
        LIMBO_OBS_COUNT("serve.query.info", 1);
        return HandleInfo();
      }
      return util::Status::InvalidArgument("unknown op \"" + op->str + "\"");
    }();
    if (response.ok()) {
      responses[i] = std::move(response).value();
    } else {
      LIMBO_OBS_COUNT("serve.query.errors", 1);
      responses[i] = ErrorResponse(response.status());
    }
  }
  if (rows.empty()) return responses;
  LIMBO_OBS_SPAN(span, "serve.assign_batch");
  LIMBO_OBS_COUNT("serve.batch.rows", rows.size());
  const std::vector<RowAssignment> assigned = AssignBatch(rows, kernel);
  for (size_t j = 0; j < row_requests.size(); ++j) {
    const RowAssignment& a = assigned[j];
    std::string& response = responses[row_requests[j].index];
    if (!a.status.ok()) {
      LIMBO_OBS_COUNT("serve.query.errors", 1);
      response = ErrorResponse(a.status);
    } else if (row_requests[j].duplicates) {
      response = FormatDuplicates(a.label, a.loss, a.oov);
    } else {
      response = FormatAssign(a.label, a.loss, a.oov);
    }
  }
  return responses;
}

}  // namespace limbo::serve
