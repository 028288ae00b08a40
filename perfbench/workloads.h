#ifndef LIMBO_PERFBENCH_WORKLOADS_H_
#define LIMBO_PERFBENCH_WORKLOADS_H_

// The four workloads of the repository benchmark. Each has a set-up step
// that writes its inputs into --dir from --seed (returning its own wall
// seconds) and a measure step that reads only those files, runs for about
// --seconds, checks every output, and returns its metrics. With trace off
// the obs layer is disabled and the metrics are the end-to-end ones; with
// trace on the measure step also times each layer's public calls from
// here and reports the per-layer metrics instead.

#include "common.h"

namespace limbo::perfbench {

double SetupFit(const Args& args);
double SetupSchemes(const Args& args);
/// Shared by serve and serve-refit: the fit CSV, the two fitted bundles
/// and the request-row pools.
double SetupServe(const Args& args);

Outcome MeasureFit(const Args& args, bool trace);
Outcome MeasureSchemes(const Args& args, bool trace);
Outcome MeasureServe(const Args& args, bool refit, bool trace);

}  // namespace limbo::perfbench

#endif  // LIMBO_PERFBENCH_WORKLOADS_H_
