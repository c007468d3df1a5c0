//===- tests/fuzz_test.cpp - Randomized end-to-end property tests ---------===//
//
// Random fused operators (random depths, shapes, access permutations,
// broadcasts, reductions) and random influence trees, checked against
// the two strongest oracles in the project:
//   - the exact schedule-level validity checker (dimension-by-dimension
//     weak satisfaction with eventual strict carrying), and
//   - end-to-end execution: original order vs scheduled order on real
//     buffers.
//
//===----------------------------------------------------------------------===//

#include "exec/Interpreter.h"
#include "influence/TreeBuilder.h"
#include "ir/Builder.h"
#include "pipeline/Pipeline.h"
#include "sched/Scheduler.h"
#include "support/FailPoint.h"

#include <gtest/gtest.h>

using namespace pinj;

namespace {

/// Deterministic PRNG (xorshift-ish) for reproducible cases.
struct Rng {
  unsigned State;
  explicit Rng(unsigned Seed) : State(Seed * 2654435761u + 12345u) {}
  unsigned next(unsigned Bound) {
    State ^= State << 13;
    State ^= State >> 17;
    State ^= State << 5;
    return State % Bound;
  }
};

/// Builds a random fused operator. All extents share one value so any
/// iterator can index any tensor dimension; statements read inputs and
/// earlier temporaries through random iterator selections or constants,
/// and may accumulate into their own output (a reduction).
Kernel makeRandomKernel(unsigned Seed) {
  Rng R(Seed);
  Int N = 3 + R.next(3); // 3..5
  KernelBuilder B("fuzz" + std::to_string(Seed));

  struct TensorInfo {
    unsigned Id;
    unsigned Rank;
  };
  std::vector<TensorInfo> Tensors;
  unsigned NumInputs = 1 + R.next(2);
  for (unsigned T = 0; T != NumInputs; ++T) {
    unsigned Rank = 1 + R.next(3);
    std::vector<Int> Shape(Rank, N);
    Tensors.push_back({B.tensor("IN" + std::to_string(T), Shape), Rank});
  }

  unsigned NumStmts = 1 + R.next(3);
  static const char *const IterNames[3] = {"i", "j", "k"};
  for (unsigned S = 0; S != NumStmts; ++S) {
    unsigned Depth = 1 + R.next(3);
    std::vector<std::pair<std::string, Int>> Iters;
    for (unsigned D = 0; D != Depth; ++D)
      Iters.emplace_back(IterNames[D], N);

    unsigned WriteRank = 1 + R.next(Depth);
    std::vector<Int> WriteShape(WriteRank, N);
    unsigned Out =
        B.tensor("T" + std::to_string(S), std::move(WriteShape));

    auto randomIndex = [&](unsigned Rank) {
      std::vector<IndexExpr> Index;
      for (unsigned D = 0; D != Rank; ++D) {
        if (R.next(5) == 0)
          Index.push_back(IndexExpr(static_cast<Int>(R.next(N))));
        else
          Index.push_back(IndexExpr(IterNames[R.next(Depth)]));
      }
      return Index;
    };
    // The write uses distinct leading iterators so each iteration owns
    // its cell unless the statement is a reduction over the remaining
    // depth.
    std::vector<IndexExpr> WriteIndex;
    for (unsigned D = 0; D != WriteRank; ++D)
      WriteIndex.push_back(IndexExpr(IterNames[D]));

    bool Reduction = WriteRank < Depth && R.next(2) == 0;
    unsigned NumReads = Reduction ? 2 : 1 + R.next(2);
    OpKind Kind;
    if (Reduction)
      Kind = OpKind::Fma;
    else if (NumReads == 1)
      Kind = R.next(2) ? OpKind::Relu : OpKind::Neg;
    else
      Kind = R.next(2) ? OpKind::Add : OpKind::Mul;

    KernelBuilder &Stmt =
        B.stmt("S" + std::to_string(S), Iters).op(Kind);
    Stmt.write(Out, WriteIndex);
    if (Reduction)
      Stmt.read(Out, WriteIndex); // Accumulator.
    for (unsigned Read = 0; Read != NumReads; ++Read) {
      const TensorInfo &T = Tensors[R.next(Tensors.size())];
      Stmt.read(T.Id, randomIndex(T.Rank));
    }
    Tensors.push_back({Out, WriteRank});
  }
  return B.build();
}

/// Exact schedule validity (same oracle as sched_test).
bool scheduleRespects(const Kernel &K, const Schedule &S,
                      const DependenceRelation &D) {
  AffineSet Remaining = D.Rel;
  for (unsigned Dim = 0, E = S.numDims(); Dim != E; ++Dim) {
    if (Remaining.isEmpty())
      return true;
    IntVector Diff = S.differenceExpr(K, D, Dim);
    if (!Remaining.isAlwaysAtLeast(Diff, 0))
      return false;
    if (Remaining.isAlwaysAtLeast(Diff, 1))
      return true;
    Remaining.addEq(Diff);
  }
  return Remaining.isEmpty();
}

bool isValidSchedule(const Kernel &K, const Schedule &S) {
  for (const DependenceRelation &D : computeDependences(K))
    if (D.constrainsValidity() && !scheduleRespects(K, S, D))
      return false;
  return true;
}

/// A random influence tree: a couple of branches pinning random unit
/// rows at random depths (often unsatisfiable mid-branch, exercising
/// the fallback chain).
InfluenceTree makeRandomTree(const Kernel &K, unsigned Seed) {
  Rng R(Seed * 7919u + 11u);
  InfluenceTree Tree;
  unsigned Branches = 1 + R.next(3);
  for (unsigned Br = 0; Br != Branches; ++Br) {
    InfluenceNode *Node = nullptr;
    unsigned Depth = 1 + R.next(3);
    for (unsigned D = 0; D != Depth; ++D) {
      std::string Label =
          "b" + std::to_string(Br) + ".d" + std::to_string(D);
      Node = Node ? Node->addChild(Label) : Tree.root().addChild(Label);
      unsigned Stmt = R.next(K.Stmts.size());
      unsigned NumIters = K.Stmts[Stmt].numIters();
      unsigned Pinned = R.next(NumIters);
      for (unsigned Q = 0; Q != NumIters; ++Q)
        Node->Constraints.push_back(
            makeCoeffEquals(Stmt, D, Q, Q == Pinned ? 1 : 0));
      if (R.next(4) == 0)
        Node->RequireParallel = true;
    }
  }
  return Tree;
}

} // namespace

class KernelFuzz : public ::testing::TestWithParam<int> {};

TEST_P(KernelFuzz, BaselineScheduleValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  ASSERT_EQ(K.verify(), "") << K.Name;
  SchedulerOptions Options;
  Options.SerializeSccs = true;
  SchedulerResult R = scheduleKernel(K, Options);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, AutoInfluencedScheduleValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, RandomTreeNeverBreaksValidity) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Kernel K = makeRandomKernel(Seed);
  InfluenceTree Tree = makeRandomTree(K, Seed);
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
}

TEST_P(KernelFuzz, FeautrierModeValidAndSemanticsPreserved) {
  Kernel K = makeRandomKernel(static_cast<unsigned>(GetParam()));
  SchedulerOptions Options;
  Options.UseFeautrierFallback = true;
  SchedulerResult R = scheduleKernel(K, Options);
  EXPECT_TRUE(isValidSchedule(K, R.Sched)) << K.Name;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Sched)) << K.Name;
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelFuzz, ::testing::Range(1, 41));

/// Budget-stress mode: random kernels under solver budgets far too small
/// for any real scheduling run, with a fail-point (cycled by seed) armed
/// on top. The pipeline must still return a report whose schedules
/// respect every dependence — the degradation ladder, not an error path,
/// is the contract under starvation.
class BudgetStress : public ::testing::TestWithParam<int> {
protected:
  void TearDown() override { failpoint::clearAll(); }
};

TEST_P(BudgetStress, PipelineAlwaysReturnsValidReport) {
  unsigned Seed = static_cast<unsigned>(GetParam());
  Kernel K = makeRandomKernel(Seed);

  PipelineOptions Options;
  Options.Validate = true;
  // No wall-clock limit: pivot/node caps keep the test deterministic.
  Options.Budget.MaxPivots = 10 + Seed % 60;
  Options.Budget.MaxIlpNodes = 1 + Seed % 6;

  const std::vector<const char *> &Sites = failpoint::allSites();
  const char *Site = Sites[Seed % Sites.size()];
  failpoint::activate(Site);
  OperatorReport R = runOperator(K, Options);
  failpoint::clearAll();

  EXPECT_TRUE(isValidSchedule(K, R.Isl.Sched)) << K.Name << " " << Site;
  EXPECT_TRUE(isValidSchedule(K, R.Novec.Sched)) << K.Name << " " << Site;
  EXPECT_TRUE(isValidSchedule(K, R.Infl.Sched)) << K.Name << " " << Site;
  EXPECT_TRUE(scheduleIsSemanticallyEqual(K, R.Infl.Sched))
      << K.Name << " " << Site;
  // Anything that ran below full fidelity must be on the record.
  if (!R.Isl.Outcome.ok() || !R.Novec.Outcome.ok() || !R.Infl.Outcome.ok()) {
    EXPECT_TRUE(R.degraded()) << K.Name << " " << Site;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BudgetStress, ::testing::Range(1, 31));
