//===- perfbench/workloads.h - The benchmark's workloads --------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "harness.h"

#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string Workload;
  std::uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Checkout root: the operator corpus is read from <Root>/tools/kernels.
  std::string Root = ".";
  /// Where a traced run writes its span files.
  std::string OutDir = ".bench_build";
};

struct RunResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<Metric> Metrics;
};

/// Closed loop, one caller: parse + runOperator (all four configs, no
/// cache, no tuner) over the corpus plus a seeded operator draw.
RunResult runCompile(const Args &A);
/// Open loop, one generator thread: a zipfian stream at fixed offered
/// rates into a three-worker daemon whose cache is smaller than the
/// kernel pool.
RunResult runServe(const Args &A);
/// Closed loop: the greedy autotuner with a fixed budget and a fresh
/// tuning database per pass over the corpus.
RunResult runTune(const Args &A);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
