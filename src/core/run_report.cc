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
