#ifndef LIMBO_CORE_RUN_REPORT_H_
#define LIMBO_CORE_RUN_REPORT_H_

#include <string>
#include <vector>

#include "core/aib.h"
#include "obs/report.h"

namespace limbo::core {

/// The information-plane trajectory of an agglomerative merge sequence:
/// one row per merge with (step, delta_i, cumulative_loss, p_merged).
/// This is the (I(V;T), merge-cost) curve the IB literature plots; for
/// attribute grouping it is the dendrogram Q with per-merge loss.
obs::ReportSection TrajectorySection(const std::vector<Merge>& merges,
                                     std::string title = "aib_trajectory");

/// Standard report envelope: the caller's sections first, then the live
/// obs state ("spans" from the trace tree, "counters" from the registry),
/// then "process": the process's peak resident set so far, peak_rss_mb,
/// from getrusage. Callers that want a per-run report should
/// ResetTrace/ResetCounters before the run they mean to describe.
obs::RunReport AssembleRunReport(std::string title,
                                 std::vector<obs::ReportSection> sections);

}  // namespace limbo::core

#endif  // LIMBO_CORE_RUN_REPORT_H_
