//===- tests/pipeline_test.cpp - end-to-end pipeline tests ----------------===//

#include "pipeline/Pipeline.h"
#include "lp/Budget.h"
#include "service/Cache.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

using namespace pinj;

TEST(Pipeline, RunningExampleEndToEnd) {
  Kernel K = makeRunningExample(64);
  PipelineOptions Options;
  Options.Validate = true;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Validated);
  EXPECT_TRUE(R.Influenced);
  EXPECT_TRUE(R.VecEligible);
  EXPECT_GT(R.Isl.TimeUs, 0);
  EXPECT_GT(R.Tvm.TimeUs, 0);
  // TVM pays one launch per statement.
  EXPECT_EQ(R.Tvm.Launches, 2u);
}

TEST(Pipeline, BadOrderCopyShapesLikeTransposeRow) {
  // The transpose-heavy pattern of Table II: infl beats isl clearly,
  // novec sits between, tvm (hand-tuned layout) also beats isl.
  Kernel K = makeBadOrderCopy(256, 256);
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Influenced);
  EXPECT_TRUE(R.VecEligible);
  EXPECT_LT(R.Infl.TimeUs, R.Isl.TimeUs * 0.7);
  EXPECT_LT(R.Novec.TimeUs, R.Isl.TimeUs);
  EXPECT_LE(R.Infl.TimeUs, R.Novec.TimeUs * 1.01);
  EXPECT_LT(R.Tvm.TimeUs, R.Isl.TimeUs);
}

TEST(Pipeline, ElementwiseNearParity) {
  // Element-wise operators are already coalesced under isl: influence
  // keeps the schedule (or matches its cost) and vectorization gives at
  // most a modest gain -- the BERT-like row of Table II.
  Kernel K = makeElementwise(256, 256);
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_LE(R.Infl.TimeUs, R.Isl.TimeUs * 1.05);
  EXPECT_GE(R.Infl.TimeUs, R.Isl.TimeUs * 0.5);
}

TEST(Pipeline, FusionBeatsPerStatementLaunches) {
  // A chain of element-wise statements: one fused kernel vs one launch
  // per statement; the proxy pays launch overhead and intermediate
  // traffic (the BERT 0.18x pattern).
  KernelBuilder B("chain4");
  unsigned T0 = B.tensor("T0", {64, 64});
  unsigned T1 = B.tensor("T1", {64, 64});
  unsigned T2 = B.tensor("T2", {64, 64});
  unsigned T3 = B.tensor("T3", {64, 64});
  unsigned T4 = B.tensor("T4", {64, 64});
  unsigned Prev = T0;
  for (unsigned S = 0; S != 4; ++S) {
    unsigned Next = (S == 0) ? T1 : (S == 1) ? T2 : (S == 2) ? T3 : T4;
    B.stmt("S" + std::to_string(S), {{"i", 64}, {"j", 64}})
        .write(Next, {"i", "j"})
        .read(Prev, {"i", "j"})
        .op(OpKind::Relu);
    Prev = Next;
  }
  Kernel K = B.build();
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_EQ(R.Tvm.Launches, 4u);
  EXPECT_GT(R.Tvm.TimeUs, R.Isl.TimeUs * 2.0);
}

TEST(Pipeline, ReductionValidatedAndSequentialDimRespected) {
  Kernel K = makeRowReduction(32, 64);
  PipelineOptions Options;
  Options.Validate = true;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Validated);
  EXPECT_GT(R.Infl.TimeUs, 0);
}

TEST(Pipeline, RenderCudaProducesSource) {
  Kernel K = makeRunningExample(64);
  PipelineOptions Options;
  InfluenceTree Tree = buildInfluenceTree(K, Options.Influence);
  ScheduleRun R = scheduleInfluenced(K, &Tree, Options.Sched, nullptr);
  std::string Cuda = renderCuda(K, R.Run.Sched, Options.Mapping);
  EXPECT_NE(Cuda.find("__global__"), std::string::npos);
}

namespace {

std::uint64_t dependenceRuns(const OperatorReport &R) {
  return R.Metrics.counter("poly.dependence_runs");
}

} // namespace

// runOperator analyzes the fused kernel's dependences once, for every
// scheduler run and vector finalization of all three configurations;
// the only other analyses are the TVM proxy's, one per statement launch.
TEST(Pipeline, OneDependenceAnalysisPerOperator) {
  Kernel K = makeRunningExample(64);
  const std::uint64_t Stmts = K.Stmts.size();
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  ASSERT_FALSE(R.degraded());
  EXPECT_EQ(dependenceRuns(R), 1 + Stmts);

  // Input dependences for proximity are a second analysis, no more.
  PipelineOptions Input = Options;
  Input.Sched.ProximityIncludesInput = true;
  EXPECT_LE(dependenceRuns(runOperator(K, Input)), 2 + Stmts);

  // A cache hit replays the schedules and analyzes nothing itself.
  service::ScheduleCache Cache;
  Options.Cache = &Cache;
  ASSERT_FALSE(runOperator(K, Options).CacheHit);
  OperatorReport Hit = runOperator(K, Options);
  ASSERT_TRUE(Hit.CacheHit);
  EXPECT_EQ(dependenceRuns(Hit), Stmts);
}

// The shared dependence analysis runs under the operator budget, so a
// pivot cap smaller than one analysis stops all of the operator's
// solver work inside that analysis, as it stops a fresh one.
TEST(Pipeline, OperatorPivotCapStopsTheSharedAnalysis) {
  Kernel K = makeRunningExample(64);
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::uint64_t Charged;
  {
    budget::WorkMeter Meter;
    computeDependences(K);
    Charged = Meter.work().Pivots;
  }
  const std::uint64_t AnalysisPivots =
      obs::metrics().snapshot().since(Before).counter("lp.simplex_pivots");
  ASSERT_GT(Charged, 2u);
  for (std::uint64_t Cap : {std::uint64_t(1), Charged / 2, Charged - 1}) {
    PipelineOptions Options;
    Options.Budget.MaxPivots = Cap;
    OperatorReport R = runOperator(K, Options);
    EXPECT_TRUE(R.degraded()) << Cap;
    EXPECT_LT(R.Metrics.counter("lp.simplex_pivots"), AnalysisPivots) << Cap;
  }
}

TEST(Pipeline, ValidationFlagOffByDefault) {
  Kernel K = makeElementwise(8, 8);
  PipelineOptions Options;
  OperatorReport R = runOperator(K, Options);
  EXPECT_FALSE(R.Validated);
}

//===----------------------------------------------------------------------===//
// Property sweep: every family at several sizes is valid end to end and
// the influenced configuration never loses badly to the reference.
//===----------------------------------------------------------------------===//

class PipelineProperty
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(PipelineProperty, InfluenceNeverFarWorse) {
  int Family = std::get<0>(GetParam());
  Int N = std::get<1>(GetParam());
  Kernel K = [&] {
    switch (Family) {
    case 0:
      return makeElementwise(N, N);
    case 1:
      return makeBadOrderCopy(N, N);
    case 2:
      return makeProducerConsumer(N, N);
    case 3:
      return makeRowReduction(N, N);
    default:
      return makeRunningExample(N);
    }
  }();
  PipelineOptions Options;
  Options.Validate = (N <= 16);
  OperatorReport R = runOperator(K, Options);
  if (Options.Validate) {
    EXPECT_TRUE(R.Validated) << K.Name;
  }
  // The influenced configuration must never regress by more than a
  // small factor (the paper reports novec as low as 0.86x per network).
  EXPECT_LE(R.Infl.TimeUs, R.Isl.TimeUs * 1.3) << K.Name;
}

INSTANTIATE_TEST_SUITE_P(Families, PipelineProperty,
                         ::testing::Combine(::testing::Range(0, 5),
                                            ::testing::Values(16, 64)));
