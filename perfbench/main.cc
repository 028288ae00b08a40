// limbo-perf: the benchmark program perfbench/run.py launches.
//
//   limbo-perf setup   --workload=W --dir=D --seed=N [--key=value ...]
//   limbo-perf measure --workload=W --dir=D --seed=N --seconds=S --trace=0|1
//
// `setup` writes the workload's inputs into D and prints {"setup_s": x};
// `measure` reads only those inputs and prints one JSON line with the
// correctness tally and the metrics; on fit and schemes it runs one job.
// Workloads: fit, schemes, serve, serve-refit.

#include <cstdio>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

int main(int argc, char** argv) {
  using namespace limbo::perfbench;
  if (argc < 2 || (std::strcmp(argv[1], "setup") != 0 &&
                   std::strcmp(argv[1], "measure") != 0)) {
    std::fprintf(stderr,
                 "usage: limbo-perf setup|measure --workload=W --dir=D "
                 "--seed=N [--seconds=S --trace=0|1]\n");
    return 2;
  }
  const Args args(argc, argv, 2);
  const std::string workload = args.Require("workload");
  const bool serve = workload == "serve" || workload == "serve-refit";
  if (workload != "fit" && workload != "schemes" && !serve) {
    std::fprintf(stderr, "limbo-perf: unknown workload %s\n", workload.c_str());
    return 2;
  }

  if (std::strcmp(argv[1], "setup") == 0) {
    const double seconds = workload == "fit"       ? SetupFit(args)
                           : workload == "schemes" ? SetupSchemes(args)
                                                   : SetupServe(args);
    std::printf("{\"setup_s\":%.9g}\n", seconds);
    return 0;
  }

  const bool trace = args.RequireInt("trace") != 0;
  const Outcome outcome =
      workload == "fit"       ? MeasureFit(args, trace)
      : workload == "schemes" ? MeasureSchemes(args, trace)
                              : MeasureServe(args, workload == "serve-refit",
                                             trace);
  std::printf("%s\n", outcome.ToJson().c_str());
  return 0;
}
