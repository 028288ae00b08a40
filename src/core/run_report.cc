#include "core/run_report.h"

#include <sys/resource.h>

#include <utility>

namespace limbo::core {

obs::ReportSection TrajectorySection(const std::vector<Merge>& merges,
                                     std::string title) {
  obs::ReportSection section(std::move(title));
  section.AddField("merges", static_cast<uint64_t>(merges.size()));
  section.table.columns = {"step", "delta_i", "cumulative_loss", "p_merged"};
  for (size_t step = 0; step < merges.size(); ++step) {
    const Merge& m = merges[step];
    section.table.rows.push_back({obs::ReportValue::Integer(step),
                                  obs::ReportValue::Number(m.delta_i),
                                  obs::ReportValue::Number(m.cumulative_loss),
                                  obs::ReportValue::Number(m.p_merged)});
  }
  return section;
}

obs::ReportSection TimingsSection(const PhaseTimings& timings) {
  obs::ReportSection section("phases");
  section.AddField("threads", static_cast<uint64_t>(timings.threads));
  section.AddField("phase1_seconds", timings.phase1_seconds);
  section.AddField("phase2_seconds", timings.phase2_seconds);
  section.AddField("phase2_distance_evals", timings.phase2_distance_evals);
  if (timings.phase3_ran) {
    section.AddField("phase3_seconds", timings.phase3_seconds);
    section.AddField("phase3_distance_evals", timings.phase3_distance_evals);
  }
  // Streamed-run scan accounting. phase3_source_rescans is gated on
  // phase3_ran exactly like the phase3_* fields above: a k = 0 run never
  // re-scans the source, so emitting the zero-initialized member would be
  // the same stale-field bug the phase3_ran flag exists to prevent.
  if (timings.streamed) {
    section.AddField("streamed", true);
    section.AddField("source_scans", timings.source_scans);
    if (timings.phase3_ran) {
      section.AddField("phase3_source_rescans", timings.phase3_source_rescans);
    }
  }
  return section;
}

obs::RunReport AssembleRunReport(std::string title,
                                 std::vector<obs::ReportSection> sections) {
  obs::RunReport report;
  report.title = std::move(title);
  report.sections = std::move(sections);
  report.sections.push_back(obs::TraceSection(obs::SnapshotTrace()));
  report.sections.push_back(obs::CountersSection(obs::SnapshotCounters()));
  obs::ReportSection process("process");
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  process.AddField("peak_rss_mb",
                   static_cast<double>(usage.ru_maxrss) / 1024.0);
  report.sections.push_back(std::move(process));
  return report;
}

}  // namespace limbo::core
