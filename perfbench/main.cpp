//===- perfbench/main.cpp - The PolyInject benchmark ----------------------===//
//
//   perfbench --workload compile|serve|tune --seed N --seconds S
//             --trace 0|1 [--root DIR] [--out DIR]
//
// Prints one line per metric, then the result as the last line of
// standard output:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// With --trace 0 the metrics are the end-to-end ones, with --trace 1
// the per-layer ledger. perfbench/README.md describes both.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

using namespace perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload compile|serve|tune "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]\n",
               Why);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  bool HaveWorkload = false;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    const char *Val = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Val;
      HaveWorkload = true;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Val, &End, 10);
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Val, &End);
    } else if (Key == "--trace") {
      A.Trace = std::strcmp(Val, "0") != 0;
    } else if (Key == "--root") {
      A.Root = Val;
    } else if (Key == "--out") {
      A.OutDir = Val;
    } else {
      return usage(("unknown argument " + Key).c_str());
    }
    if (End && *End)
      return usage(("bad value for " + Key).c_str());
  }
  if (Argc % 2 != 1 || !HaveWorkload)
    return usage("missing arguments");
  if (!(A.Seconds > 0 && A.Seconds <= 120))
    return usage("--seconds must be in (0, 120]");

  RunResult R;
  try {
    if (A.Workload == "compile")
      R = runCompile(A);
    else if (A.Workload == "serve")
      R = runServe(A);
    else if (A.Workload == "tune")
      R = runTune(A);
    else
      return usage(("unknown workload " + A.Workload).c_str());
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
  for (const Metric &M : R.Metrics)
    std::printf("%-34s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  std::printf("%s attempted=%llu failed=%llu\n", A.Workload.c_str(),
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed));
  std::printf("%s\n",
              resultJson(R.Correct, R.Attempted, R.Failed, R.Metrics).c_str());
  return 0;
}
