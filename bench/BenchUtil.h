//===- bench/BenchUtil.h - Shared helpers for the bench binaries -*- C++ -*-===//

#ifndef POLYINJECT_BENCH_BENCHUTIL_H
#define POLYINJECT_BENCH_BENCHUTIL_H

#include "ops/Networks.h"
#include "ops/OpFactory.h"
#include "pipeline/Pipeline.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

namespace pinj {

/// Aggregated measurements for one network suite.
struct SuiteResult {
  std::string Name;
  unsigned Total = 0;
  unsigned Vec = 0;
  unsigned Infl = 0;
  // Times in milliseconds, all operators.
  double IslMs = 0, TvmMs = 0, NovecMs = 0, InflMs = 0;
  // Times in milliseconds, influenced operators only.
  double IslInflMs = 0, TvmInflMs = 0, NovecInflMs = 0, InflInflMs = 0;
};

inline SuiteResult measureSuite(const NetworkSuite &Suite,
                                const PipelineOptions &Options) {
  SuiteResult R;
  R.Name = Suite.Name;
  for (const Kernel &K : Suite.Operators) {
    OperatorReport Report = runOperator(K, Options);
    ++R.Total;
    R.Infl += Report.Influenced;
    R.Vec += Report.Influenced && Report.VecEligible;
    R.IslMs += Report.Isl.TimeUs / 1000.0;
    R.TvmMs += Report.Tvm.TimeUs / 1000.0;
    R.NovecMs += Report.Novec.TimeUs / 1000.0;
    R.InflMs += Report.Infl.TimeUs / 1000.0;
    if (Report.Influenced) {
      R.IslInflMs += Report.Isl.TimeUs / 1000.0;
      R.TvmInflMs += Report.Tvm.TimeUs / 1000.0;
      R.NovecInflMs += Report.Novec.TimeUs / 1000.0;
      R.InflInflMs += Report.Infl.TimeUs / 1000.0;
    }
  }
  return R;
}

/// Operator families of the LP benchmark (bench_lp): four structurally
/// different shapes (fusable chain, hostile layout, the paper's fused
/// tensor expression, a reduce tail) parameterized by problem size.
inline Kernel kernelForFamily(int Family, Int N) {
  switch (Family) {
  case 0:
    return makeElementwiseChain("chain", N, N - 1, 4, 1);
  case 1:
    return makeHostileOrderCopy("hostile", N, N, 1);
  case 2:
    return makeFusedMulSubMulTensorAdd(N);
  default:
    return makeReduceTail("reduce", N, N, 1);
  }
}

inline const char *familyName(int Family) {
  switch (Family) {
  case 0:
    return "chain";
  case 1:
    return "hostile";
  case 2:
    return "fused";
  default:
    return "reduce";
  }
}

inline double geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / Values.size());
}

} // namespace pinj

#endif // POLYINJECT_BENCH_BENCHUTIL_H
