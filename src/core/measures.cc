#include "core/measures.h"

#include <cmath>

#include "core/info.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "relation/ops.h"

namespace limbo::core {

double Rad(const relation::Relation& rel,
           const std::vector<relation::AttributeId>& attributes) {
  const size_t n = rel.NumTuples();
  if (n <= 1) return 1.0;
  LIMBO_OBS_SPAN(rad_span, "rad");
  LIMBO_OBS_COUNT("measures.rad_evals", 1);
  const double h =
      EntropyOfCounts(relation::GroupRows(rel, attributes).size);
  return 1.0 - h / std::log2(static_cast<double>(n));
}

double Rtr(const relation::Relation& rel,
           const std::vector<relation::AttributeId>& attributes) {
  const size_t n = rel.NumTuples();
  if (n == 0) return 0.0;
  LIMBO_OBS_SPAN(rtr_span, "rtr");
  LIMBO_OBS_COUNT("measures.rtr_evals", 1);
  const size_t distinct = relation::GroupRows(rel, attributes).NumGroups();
  return 1.0 - static_cast<double>(distinct) / static_cast<double>(n);
}

}  // namespace limbo::core
