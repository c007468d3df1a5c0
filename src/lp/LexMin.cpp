//===- lp/LexMin.cpp ------------------------------------------------------===//
//
// Lexicographic minimization with warm-started levels. The old driver
// re-ran a full two-phase branch and bound from scratch at every
// objective level; this one keeps one tableau at a feasible basis across
// levels (phase 1 runs once), pins each level with addPinEquality's mini
// phase 1, and warm-starts branch-and-bound children from their parent's
// basis via bound tightening + dual simplex.
//
// Bit-exactness: an intermediate level only contributes its optimal
// VALUE (the pin row), which is unique, so any correct solver may
// compute it. The FINAL level's point becomes the schedule, so that
// level always runs the exact cold solver (solveIlp), which replicates
// the original pivot sequence — schedules stay byte-identical. Any warm
// hiccup (cycling valve, pin failure) falls back to the exact solver
// for the level, trading speed for the same answer.
//
//===----------------------------------------------------------------------===//

#include "lp/LexMin.h"

#include "lp/Budget.h"
#include "lp/Tableau.h"
#include "obs/Journal.h"
#include "obs/Metrics.h"
#include "support/FailPoint.h"
#include "support/Status.h"

#include <algorithm>
#include <memory>
#include <optional>

using namespace pinj;

namespace {

struct LpMetrics {
  obs::Counter &SimplexSolves;
  obs::Counter &SimplexPivots;
  obs::Histogram &PivotsPerSolve;
  obs::Counter &IlpSolves;
  obs::Counter &IlpFailures;
  obs::Counter &IlpNodes;
  obs::Histogram &NodesPerSolve;
  obs::Counter &BnbPruned;
  obs::Counter &BnbIncumbents;
  obs::Histogram &BnbMaxDepth;
  obs::Histogram &NodesPerDim;
  obs::Histogram &PivotsPerDim;
};

LpMetrics &lpMetrics() {
  static LpMetrics M{obs::metrics().counter("lp.simplex_solves"),
                     obs::metrics().counter("lp.simplex_pivots"),
                     obs::metrics().histogram("lp.pivots_per_solve"),
                     obs::metrics().counter("lp.ilp_solves"),
                     obs::metrics().counter("lp.ilp_failures"),
                     obs::metrics().counter("lp.ilp_nodes"),
                     obs::metrics().histogram("lp.ilp_nodes_per_solve"),
                     obs::metrics().counter("lp.bnb_pruned"),
                     obs::metrics().counter("lp.bnb_incumbent_updates"),
                     obs::metrics().histogram("lp.bnb_max_depth"),
                     obs::metrics().histogram("lp.nodes_per_dim"),
                     obs::metrics().histogram("lp.pivots_per_dim")};
  return M;
}

/// Warm solver state for one lexmin run: a persistent root tableau that
/// survives across objective levels, plus the per-level warm branch and
/// bound. Any failure flips Dead and the caller re-solves the level with
/// the exact cold path.
class WarmLexSolver {
public:
  WarmLexSolver(const IlpProblem &Problem, unsigned NumLevels)
      : Problem(Problem) {
    for (bool I : Problem.IsInteger)
      if (I)
        ++NumIntegerVars;
    // Growth room: one pin row per non-final level, and along any
    // branch-and-bound path at most one upper and one lower bound row
    // per integer variable (later branches tighten in place).
    Reserve = (NumLevels - 1) + 2 * NumIntegerVars;
  }

  bool dead() const { return Dead; }
  void kill() { Dead = true; }

  /// Solves one level; \returns nullopt when the warm path gave up and
  /// the caller must run the exact solver instead.
  std::optional<IlpResult> solveLevel(const IntVector &Objective) {
    // A level counts as a solve only where it returns a result; one
    // given up on is counted by the exact solver that re-solves it.
    LpMetrics &M = lpMetrics();
    failpoint::hit("lp.ilp");

    IlpResult Result;
    unsigned Nodes = 0;
    unsigned Pruned = 0;
    unsigned IncumbentUpdates = 0;
    unsigned MaxDepth = 0;
    bool Exhausted = false;

    // Root relaxation: full two-phase once, re-priced phase 2 after.
    if (!budget::chargeNode()) {
      Exhausted = true;
    } else {
      ++Nodes;
      SimplexTableau::Outcome O;
      unsigned PivotsBefore = Tab.pivots();
      M.SimplexSolves.inc();
      failpoint::hit("lp.simplex");
      if (!Built) {
        Tab.build(Problem.Lp, {}, Reserve, Reserve);
        O = Tab.solveTwoPhase(Objective);
        Built = true;
      } else {
        O = Tab.reoptimize(Objective);
      }
      M.SimplexPivots.add(Tab.pivots() - PivotsBefore);
      M.PivotsPerSolve.observe(Tab.pivots() - PivotsBefore);
      addThreadSimplexPivots(Tab.pivots() - PivotsBefore);
      switch (O) {
      case SimplexTableau::Outcome::Budget:
        Exhausted = true;
        break;
      case SimplexTableau::Outcome::Infeasible:
        Result.Status = IlpResult::Infeasible;
        Result.NodesExplored = Nodes;
        M.IlpSolves.inc();
        M.IlpFailures.inc();
        M.IlpNodes.add(Nodes);
        M.NodesPerSolve.observe(Nodes);
        return Result;
      case SimplexTableau::Outcome::Unbounded:
        raiseError(StatusCode::SolverError, "lp.ilp",
                   "unbounded ILP relaxation");
      case SimplexTableau::Outcome::Optimal:
        break;
      }
    }

    std::optional<std::vector<Rational>> Incumbent;
    Rational IncumbentValue;

    // The branch-and-bound works on copies of the root tableau, so the
    // persistent root basis stays at the level's LP optimum for the pin.
    struct WorkItem {
      std::unique_ptr<NodeCtx> Ctx; ///< Parent state to branch from.
      unsigned Var = 0;
      Int Bound = 0;
      bool Upper = false;
      unsigned Depth = 0; ///< Root-to-node branch count, for stats.
    };
    std::vector<WorkItem> Work;

    // Prunes the point of \p Ctx, takes it as the incumbent when
    // integral, or else pushes both branches; a null \p Ctx is the root,
    // whose tableau is the member and is copied only to branch.
    auto evaluate = [&](NodeCtx *Ctx, unsigned Depth) {
      std::vector<Rational> Point;
      (Ctx ? Ctx->T : Tab).extractPoint(Point);
      Rational Value(Problem.Lp.ObjectiveConstant);
      for (unsigned V = 0, E = Problem.numVars(); V != E; ++V)
        if (!Objective.empty() && Objective[V] != 0)
          Value += Rational(Objective[V]) * Point[V];
      if (Incumbent && Value >= IncumbentValue) {
        ++Pruned;
        return;
      }
      unsigned Fractional = Problem.numVars();
      for (unsigned V = 0, E = Problem.numVars(); V != E; ++V)
        if (Problem.IsInteger[V] && !Point[V].isInteger()) {
          Fractional = V;
          break;
        }
      if (Fractional == Problem.numVars()) {
        if (!Incumbent || Value < IncumbentValue) {
          Incumbent = std::move(Point);
          IncumbentValue = Value;
          ++IncumbentUpdates;
        }
        return;
      }
      NodeCtx Root;
      if (!Ctx) {
        Root.T = Tab; // Branching copies; the member stays pristine.
        Root.Le.assign(Problem.numVars(), BoundInfo());
        Root.Ge.assign(Problem.numVars(), BoundInfo());
        Ctx = &Root;
      }
      Int Floor = Point[Fractional].floor();
      // Up branch (popped second) gets a copy; the down branch (popped
      // first) reuses this node's tableau.
      auto UpCtx = std::make_unique<NodeCtx>(*Ctx);
      Work.push_back({std::move(UpCtx), Fractional, checkedAdd(Floor, 1),
                      false, Depth + 1});
      auto DownCtx = std::make_unique<NodeCtx>(std::move(*Ctx));
      Work.push_back({std::move(DownCtx), Fractional, Floor, true,
                      Depth + 1});
    };

    if (!Exhausted)
      evaluate(nullptr, 0);

    while (!Work.empty() && !Exhausted) {
      WorkItem Item = std::move(Work.back());
      Work.pop_back();
      NodeCtx &Ctx = *Item.Ctx;
      // Apply the branch bound: tighten an existing bound row in place
      // or append a fresh one in the current basis.
      std::vector<BoundInfo> &Side = Item.Upper ? Ctx.Le : Ctx.Ge;
      BoundInfo &B = Side[Item.Var];
      if (B.Present) {
        // Upper rows encode rhs = bound, lower rows rhs = -bound.
        Int Delta = Item.Upper ? checkedSub(Item.Bound, B.Bound)
                               : checkedSub(B.Bound, Item.Bound);
        Ctx.T.tightenBoundRow(B.SlackCol, Delta);
        B.Bound = Item.Bound;
      } else {
        B.SlackCol = Ctx.T.addBoundRow(Item.Var, Item.Upper, Item.Bound);
        B.Bound = Item.Bound;
        B.Present = true;
      }

      if (!budget::chargeNode()) {
        Exhausted = true;
        break;
      }
      ++Nodes;
      MaxDepth = std::max(MaxDepth, Item.Depth);
      unsigned PivotsBefore = Ctx.T.pivots();
      M.SimplexSolves.inc();
      failpoint::hit("lp.simplex");
      SimplexTableau::Outcome O = Ctx.T.dualReoptimize();
      M.SimplexPivots.add(Ctx.T.pivots() - PivotsBefore);
      M.PivotsPerSolve.observe(Ctx.T.pivots() - PivotsBefore);
      addThreadSimplexPivots(Ctx.T.pivots() - PivotsBefore);
      if (O == SimplexTableau::Outcome::Budget) {
        if (budget::anyTripped()) {
          Exhausted = true;
          break;
        }
        // The dual simplex safety valve tripped without a real budget:
        // abandon the warm path for this level.
        M.IlpNodes.add(Nodes);
        return std::nullopt;
      }
      if (O == SimplexTableau::Outcome::Infeasible)
        continue;
      evaluate(&Ctx, Item.Depth);
    }

    Result.NodesExplored = Nodes;
    Result.NodesPruned = Pruned;
    Result.IncumbentUpdates = IncumbentUpdates;
    Result.MaxDepth = MaxDepth;
    M.IlpSolves.inc();
    M.IlpNodes.add(Nodes);
    M.NodesPerSolve.observe(Nodes);
    M.BnbPruned.add(Pruned);
    M.BnbIncumbents.add(IncumbentUpdates);
    M.BnbMaxDepth.observe(MaxDepth);
    if (Exhausted) {
      Result.Status = IlpResult::BudgetExceeded;
      if (Incumbent) {
        Result.Value = IncumbentValue;
        Result.Point = *Incumbent;
      }
      M.IlpFailures.inc();
      return Result;
    }
    if (!Incumbent) {
      Result.Status = IlpResult::Infeasible;
      M.IlpFailures.inc();
      return Result;
    }
    Result.Status = IlpResult::Optimal;
    Result.Value = IncumbentValue;
    Result.Point = *Incumbent;
    return Result;
  }

  /// Pins the just-solved level at Coeffs . x == P on the persistent
  /// root basis. \returns false when the warm state is no longer usable.
  bool pin(const IntVector &Coeffs, Int P) {
    if (!Built)
      return false;
    SimplexTableau::Outcome O = Tab.addPinEquality(Coeffs, P);
    return O == SimplexTableau::Outcome::Optimal;
  }

private:
  struct BoundInfo {
    unsigned SlackCol = 0;
    Int Bound = 0;
    bool Present = false;
  };
  struct NodeCtx {
    SimplexTableau T;
    std::vector<BoundInfo> Le, Ge;
  };

  const IlpProblem &Problem;
  SimplexTableau Tab;
  bool Built = false;
  bool Dead = false;
  unsigned NumIntegerVars = 0;
  unsigned Reserve = 0;
};

} // namespace

namespace {

/// Per-dimension attribution: one solveLexMin call is one scheduler
/// dimension's solve, so the pivot/node totals it accumulated feed the
/// lp.*_per_dim histograms and the journal's solve_end record.
void recordDimensionSolve(const IlpResult &R, unsigned Levels,
                          std::uint64_t Pivots) {
  LpMetrics &M = lpMetrics();
  M.NodesPerDim.observe(R.NodesExplored);
  M.PivotsPerDim.observe(Pivots);
  if (!obs::Journal::fastEnabled())
    return;
  const char *Status = R.Status == IlpResult::Optimal      ? "optimal"
                       : R.Status == IlpResult::Infeasible ? "infeasible"
                                                           : "budget";
  obs::JournalEvent("solve_end")
      .field("levels", Levels)
      .field("nodes", R.NodesExplored)
      .field("pruned", R.NodesPruned)
      .field("incumbents", R.IncumbentUpdates)
      .field("max_depth", R.MaxDepth)
      .field("pivots", static_cast<unsigned long long>(Pivots))
      .field("status", Status);
}

} // namespace

IlpResult pinj::solveLexMin(IlpProblem Problem,
                            const std::vector<LexObjective> &Objectives) {
  IlpResult Last;
  const std::uint64_t PivotsBefore = threadSimplexPivots();
  if (Objectives.empty()) {
    // Pure feasibility.
    Problem.Lp.Objective.assign(Problem.numVars(), 0);
    Last = solveIlp(Problem);
    recordDimensionSolve(Last, 0, threadSimplexPivots() - PivotsBefore);
    return Last;
  }

  // Intermediate levels only contribute their (unique) optimal value to
  // the pin rows, so they may run warm; the final level's point is the
  // returned solution and always runs the exact cold solver.
  const unsigned NumLevels = Objectives.size();
  WarmLexSolver Warm(Problem, NumLevels);

  unsigned TotalNodes = 0;
  unsigned TotalPruned = 0;
  unsigned TotalIncumbents = 0;
  unsigned MaxDepth = 0;
  for (unsigned L = 0; L != NumLevels; ++L) {
    const LexObjective &Level = Objectives[L];
    assert(Level.Coeffs.size() == Problem.numVars() &&
           "objective width mismatch");
    const bool Final = L + 1 == NumLevels;
    Problem.Lp.Objective = Level.Coeffs;
    if (Final || Warm.dead()) {
      Last = solveIlp(Problem);
    } else if (std::optional<IlpResult> W = Warm.solveLevel(Level.Coeffs)) {
      Last = std::move(*W);
    } else {
      Warm.kill();
      Last = solveIlp(Problem);
    }
    TotalNodes += Last.NodesExplored;
    TotalPruned += Last.NodesPruned;
    TotalIncumbents += Last.IncumbentUpdates;
    MaxDepth = std::max(MaxDepth, Last.MaxDepth);
    if (!Last.isOptimal()) {
      Last.NodesExplored = TotalNodes;
      Last.NodesPruned = TotalPruned;
      Last.IncumbentUpdates = TotalIncumbents;
      Last.MaxDepth = MaxDepth;
      recordDimensionSolve(Last, NumLevels,
                           threadSimplexPivots() - PivotsBefore);
      return Last;
    }
    // Pin this level at its optimum: q * (c . x) == p for Value == p/q.
    Int P = Last.Value.numerator();
    Int Q = Last.Value.denominator();
    IntVector Pinned(Problem.numVars(), 0);
    for (unsigned V = 0, E = Problem.numVars(); V != E; ++V)
      Pinned[V] = checkedMul(Q, Level.Coeffs[V]);
    if (!Final && !Warm.dead() && !Warm.pin(Pinned, P))
      Warm.kill();
    Problem.Lp.addEq(std::move(Pinned), checkedNeg(P));
  }
  Last.NodesExplored = TotalNodes;
  Last.NodesPruned = TotalPruned;
  Last.IncumbentUpdates = TotalIncumbents;
  Last.MaxDepth = MaxDepth;
  recordDimensionSolve(Last, NumLevels,
                       threadSimplexPivots() - PivotsBefore);
  return Last;
}
