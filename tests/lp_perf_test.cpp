//===- tests/lp_perf_test.cpp - Differential tests for the fast LP core ---===//
//
// The rewritten solver stack (small-int rational fast path, flat
// tableau, warm-started lexmin) must be indistinguishable from the
// retained reference solver (lp/Reference.h: always-wide rationals,
// cold per-node solves) on every input: same status, same value, same
// point. These tests cross-check the two on seeded random LPs, bounded
// ILPs, and multi-level lexmin problems, and pin down the regressions
// the rewrite fixed (deep-branching stack blowout) and the new
// observability (wide-path counter, pivot histogram).
//
//===----------------------------------------------------------------------===//

#include "lp/Budget.h"
#include "lp/Ilp.h"
#include "lp/LexMin.h"
#include "lp/Reference.h"
#include "lp/Simplex.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <random>

using namespace pinj;

namespace {

/// Deterministic random problem generator. Coefficients are small so
/// most problems stay on the 64-bit fast path, with the wide path
/// exercised separately below.
class ProblemGen {
public:
  explicit ProblemGen(unsigned Seed) : Rng(Seed) {}

  LpProblem lp(unsigned NumVars, unsigned NumRows) {
    LpProblem P(NumVars);
    std::uniform_int_distribution<int> Coeff(-4, 4);
    std::uniform_int_distribution<int> Konst(-12, 12);
    std::uniform_int_distribution<int> KindPick(0, 5);
    for (unsigned R = 0; R != NumRows; ++R) {
      IntVector Row(NumVars);
      for (Int &C : Row)
        C = Coeff(Rng);
      Int K = Konst(Rng);
      switch (KindPick(Rng)) {
      case 0:
        P.addLe(std::move(Row), K);
        break;
      case 1:
        P.addEq(std::move(Row), K);
        break;
      default:
        P.addGe(std::move(Row), K);
        break;
      }
    }
    P.Objective.resize(NumVars);
    for (Int &C : P.Objective)
      C = Coeff(Rng);
    return P;
  }

  /// A bounded mixed ILP: every variable gets an upper bound, so the
  /// search tree is finite even for adversarial rows.
  IlpProblem ilp(unsigned NumVars, unsigned NumRows) {
    IlpProblem P(NumVars);
    P.Lp = lp(NumVars, NumRows);
    std::uniform_int_distribution<int> Bound(1, 9);
    std::uniform_int_distribution<int> IntPick(0, 3);
    for (unsigned V = 0; V != NumVars; ++V) {
      P.Lp.addUpperBound(V, Bound(Rng));
      if (IntPick(Rng) != 0)
        P.markInteger(V);
    }
    return P;
  }

  std::vector<LexObjective> levels(unsigned NumVars, unsigned NumLevels) {
    std::uniform_int_distribution<int> Coeff(-3, 3);
    std::vector<LexObjective> Levels;
    for (unsigned L = 0; L != NumLevels; ++L) {
      IntVector Row(NumVars);
      for (Int &C : Row)
        C = Coeff(Rng);
      Levels.push_back(LexObjective{std::move(Row)});
    }
    return Levels;
  }

private:
  std::mt19937 Rng;
};

void expectSameLp(const LpResult &Ref, const LpResult &Fast,
                  unsigned Seed) {
  ASSERT_EQ(Ref.Status, Fast.Status) << "seed " << Seed;
  if (Ref.Status != LpResult::Optimal)
    return;
  EXPECT_EQ(Ref.Value, Fast.Value) << "seed " << Seed;
  ASSERT_EQ(Ref.Point.size(), Fast.Point.size()) << "seed " << Seed;
  for (unsigned V = 0, E = Ref.Point.size(); V != E; ++V)
    EXPECT_EQ(Ref.Point[V], Fast.Point[V]) << "seed " << Seed << " var " << V;
}

void expectSameIlp(const IlpResult &Ref, const IlpResult &Fast,
                   unsigned Seed) {
  ASSERT_EQ(Ref.Status, Fast.Status) << "seed " << Seed;
  if (Ref.Status != IlpResult::Optimal)
    return;
  EXPECT_EQ(Ref.Value, Fast.Value) << "seed " << Seed;
  ASSERT_EQ(Ref.Point.size(), Fast.Point.size()) << "seed " << Seed;
  for (unsigned V = 0, E = Ref.Point.size(); V != E; ++V)
    EXPECT_EQ(Ref.Point[V], Fast.Point[V]) << "seed " << Seed << " var " << V;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential: fast solver vs reference solver
//===----------------------------------------------------------------------===//

TEST(LpDifferential, RandomLpsMatchReference) {
  unsigned Statuses[4] = {};
  for (unsigned Seed = 0; Seed != 100; ++Seed) {
    ProblemGen Gen(Seed);
    LpProblem P = Gen.lp(2 + Seed % 6, 2 + (Seed * 7) % 8);
    LpResult Ref = referenceSolveLp(P);
    LpResult Fast = solveLp(P);
    expectSameLp(Ref, Fast, Seed);
    ++Statuses[Ref.Status];
  }
  // The generator must cover the interesting statuses, or the test
  // silently decays into an optimal-only check.
  EXPECT_GT(Statuses[LpResult::Optimal], 0u);
  EXPECT_GT(Statuses[LpResult::Infeasible], 0u);
  EXPECT_GT(Statuses[LpResult::Unbounded], 0u);
}

TEST(LpDifferential, RandomIlpsMatchReference) {
  unsigned Optimal = 0, Infeasible = 0;
  for (unsigned Seed = 1000; Seed != 1100; ++Seed) {
    ProblemGen Gen(Seed);
    IlpProblem P = Gen.ilp(2 + Seed % 5, 3 + (Seed * 5) % 6);
    IlpResult Ref = referenceSolveIlp(P);
    IlpResult Fast = solveIlp(P);
    expectSameIlp(Ref, Fast, Seed);
    Ref.Status == IlpResult::Optimal ? ++Optimal : ++Infeasible;
  }
  EXPECT_GT(Optimal, 0u);
  EXPECT_GT(Infeasible, 0u);
}

TEST(LpDifferential, RandomLexMinMatchesReference) {
  // Multi-level problems exercise the warm-started intermediate levels
  // plus the exact final level.
  unsigned Optimal = 0;
  for (unsigned Seed = 2000; Seed != 2040; ++Seed) {
    ProblemGen Gen(Seed);
    unsigned NumVars = 3 + Seed % 4;
    IlpProblem P = Gen.ilp(NumVars, 3 + (Seed * 3) % 5);
    std::vector<LexObjective> Levels = Gen.levels(NumVars, 2 + Seed % 2);
    IlpResult Ref = referenceSolveLexMin(P, Levels);
    IlpResult Fast = solveLexMin(P, Levels);
    expectSameIlp(Ref, Fast, Seed);
    Optimal += Ref.Status == IlpResult::Optimal;
  }
  EXPECT_GT(Optimal, 5u);
}

//===----------------------------------------------------------------------===//
// Worklist branch and bound: deep branching regression
//===----------------------------------------------------------------------===//

namespace {

/// A problem with a deliberately deep and wide integer-infeasible
/// search tree: 2 * sum(x) == 2N+1 keeps every LP relaxation feasible
/// (sum(x) = N + 1/2 fits the bounds) but is integer-infeasible with an
/// even left side, and the symmetry forces branch and bound to split
/// intervals over and over along long paths (N=8 already takes ~36k
/// nodes to refute). The old recursive solver put a whole copied
/// LpProblem on the stack per node on paths like these; the worklist
/// rewrite must either prove infeasibility or stop cleanly on a node
/// budget.
IlpProblem deepBranchingProblem(unsigned NumVars) {
  IlpProblem P(NumVars);
  IntVector Row(NumVars, 2);
  P.Lp.addEq(std::move(Row),
             checkedNeg(2 * static_cast<Int>(NumVars) + 1));
  for (unsigned V = 0; V != NumVars; ++V) {
    P.Lp.addUpperBound(V, 8);
    P.markInteger(V);
  }
  return P;
}

} // namespace

TEST(IlpWorklist, DeepBranchingUnderNodeBudgetStopsCleanly) {
  // N=12 needs well over 200k nodes to refute; the tight budget must
  // surface as a clean BudgetExceeded, never a crash or a bogus proof.
  IlpProblem P = deepBranchingProblem(12);
  P.Lp.Objective.assign(P.numVars(), 0);
  P.Lp.Objective[0] = 1;
  SolverBudget B;
  B.MaxIlpNodes = 2000;
  budget::BudgetScope Scope(B);
  IlpResult R = solveIlp(P);
  EXPECT_EQ(R.Status, IlpResult::BudgetExceeded);
  EXPECT_LE(R.NodesExplored, 2000u);
}

TEST(IlpWorklist, SmallDeepChainSolvedExactly) {
  // The 3-variable instance (2(x0+x1+x2) == 7) is refutable quickly;
  // both solvers must agree on the proof.
  IlpProblem P = deepBranchingProblem(3);
  P.Lp.Objective.assign(P.numVars(), 0);
  P.Lp.Objective[0] = 1;
  IlpResult Ref = referenceSolveIlp(P);
  IlpResult Fast = solveIlp(P);
  expectSameIlp(Ref, Fast, 0);
  EXPECT_EQ(Fast.Status, IlpResult::Infeasible);
}

//===----------------------------------------------------------------------===//
// Rational fast path and observability
//===----------------------------------------------------------------------===//

TEST(RationalFastPath, ForcedWideAgreesWithFastPath) {
  // The same arithmetic with the wide path forced must produce
  // bit-identical canonical rationals.
  std::mt19937 Rng(7);
  std::uniform_int_distribution<long long> D(-1000000, 1000000);
  for (unsigned I = 0; I != 200; ++I) {
    Int A = D(Rng), B = D(Rng) | 1, C = D(Rng), E = D(Rng) | 1;
    Rational FastSum = Rational(A, B) + Rational(C, E);
    Rational FastProd = Rational(A, B) * Rational(C, E);
    Rational FastDiv = C != 0 ? Rational(A, B) / Rational(C, E) : Rational();
    rational::ScopedForceWide Wide;
    EXPECT_EQ(FastSum, Rational(A, B) + Rational(C, E));
    EXPECT_EQ(FastProd, Rational(A, B) * Rational(C, E));
    if (C != 0) {
      EXPECT_EQ(FastDiv, Rational(A, B) / Rational(C, E));
    }
  }
}

TEST(RationalFastPath, OverflowEscalatesAndCounts) {
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  // Numerator/denominator products overflow 64 bits, forcing the
  // escalation to 128-bit arithmetic.
  Rational Big(Int(3), Int(1) << 62);
  Rational R = Big * Rational(Int(5), Int(1) << 61);
  EXPECT_EQ(R.numerator(), Int(15));
  obs::MetricsSnapshot After = obs::metrics().snapshot();
  EXPECT_GT(After.counter("lp.rational_widepath"),
            Before.counter("lp.rational_widepath"));
}

TEST(LpObservability, PivotHistogramRecordsSolves) {
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  LpProblem Lp(2);
  Lp.addGe({1, 1}, -3);
  Lp.addUpperBound(0, 2);
  Lp.Objective = {1, 1};
  ASSERT_TRUE(solveLp(Lp).isOptimal());
  obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
  const obs::HistogramSummary *H = Delta.histogram("lp.pivots_per_solve");
  ASSERT_NE(H, nullptr);
  EXPECT_GE(H->Count, 1u);
}
