//===- sched/ConstraintBuilders.h - Per-dimension ILP builders --*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The constraint builders of paper Section IV-A. Each scheduling
/// dimension is found by one mixed ILP over the dimension's scheduling
/// coefficients; these builders contribute, separately and in priority
/// order (so the scheduler can deactivate them during backtracking):
///   - validity constraints (Farkas-linearized, IV-A1),
///   - proximity reuse-distance bounds and the isl-form objective
///     f = (sum u_i, w) (IV-A2),
///   - progression constraints Eq. (3) and Eq. (4) (IV-A3),
///   - influence constraints from a tree node (IV-A4).
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_SCHED_CONSTRAINTBUILDERS_H
#define POLYINJECT_SCHED_CONSTRAINTBUILDERS_H

#include "lp/Budget.h"
#include "lp/Builder.h"
#include "poly/Dependence.h"
#include "sched/InfluenceTree.h"
#include "sched/Schedule.h"

#include <map>

namespace pinj {

/// Upper bound on the constant (shift) scheduling coefficient. Paper
/// Algorithm 1 runs with fixed bounds; the options fingerprint hashes
/// this value, so editing it re-keys every cache and TuningDb entry.
inline constexpr Int ScheduleConstBound = 16;
/// Hard cap on scheduling dimensions (safety net); hashed like
/// ScheduleConstBound.
inline constexpr unsigned MaxScheduleDims = 16;

/// Tunables of the scheduling construction.
struct SchedulerOptions {
  /// Upper bound on iterator/parameter scheduling coefficients (the
  /// Pluto-style bounded nonnegative coefficient space).
  Int CoeffBound = 4;
  /// Include read-after-read relations in the proximity cost (paper
  /// Section IV-A2 allows it; isl's default, matched here, uses flow
  /// only — input relations grow quadratically on long fused chains).
  bool ProximityIncludesInput = false;
  /// Order strongly connected components of different loop depth up
  /// front with a scalar dimension, reproducing the isl behaviour
  /// observed in the paper's Fig. 2(b) (the 2-deep and 3-deep nests
  /// stay distributed) while same-depth components still fuse (as isl's
  /// clustering does for element-wise chains). Influenced runs keep
  /// this off so fusion constraints can take effect, with SCC
  /// separation as the Algorithm 1 fallback.
  bool SerializeSccs = false;
  /// When a dimension cannot be found with the Pluto-style strategy,
  /// try a Feautrier-style dimension (maximize the number of strongly
  /// satisfied relations) before separating components — the isl
  /// mechanism the paper mentions in Section IV-B but did not need on
  /// its operator set.
  bool UseFeautrierFallback = false;
  /// Resource limits installed around the whole construction; every
  /// simplex pivot and branch-and-bound node is charged against it. An
  /// exhausted budget surfaces as StatusCode::BudgetExceeded and the
  /// scheduler falls back to the original program order.
  SolverBudget Budget;

  bool operator==(const SchedulerOptions &) const = default;
};

/// The ILP being assembled for one scheduling dimension: variable ids of
/// every statement's coefficients for this dimension, plus the proximity
/// bound variables u (per parameter) and w.
struct DimIlp {
  IlpBuilder Builder;

  struct StmtVars {
    std::vector<unsigned> Iter;  ///< One per statement iterator.
    std::vector<unsigned> Param; ///< One per kernel parameter.
    unsigned Const = 0;          ///< The shift coefficient.
  };
  std::vector<StmtVars> Stmts;
  std::vector<unsigned> U; ///< Proximity bound parameter coefficients.
  unsigned W = 0;          ///< Proximity bound constant.
};

/// Allocates all scheduling variables (with bounds) for one dimension.
DimIlp makeDimIlp(const Kernel &K, const SchedulerOptions &Options);

/// Adds the validity constraint phi_T - phi_S >= 0 over \p D.Rel
/// (paper Eq. (1), Farkas-linearized).
void addValidity(DimIlp &Ilp, const Kernel &K, const DependenceRelation &D);

/// Adds the reuse distance bound phi_T - phi_S <= u.p + w over \p D.Rel
/// (paper Eq. (2), Farkas-linearized).
void addProximity(DimIlp &Ilp, const Kernel &K, const DependenceRelation &D);

/// Memoizes the Farkas expansion of validity/proximity blocks per
/// dependence relation. Within one scheduling construction the expanded
/// rows of a relation are invariant across dimensions and re-attempts:
/// makeDimIlp allocates the statement/u/w variables with identical ids
/// every time, and the expansion depends only on those ids and the
/// relation itself. The first request runs the real Gauss elimination +
/// multiplier introduction and captures the resulting block; later
/// requests replay the captured rows with only the multiplier ids
/// rebased, skipping the whole polyhedral computation. Not usable for
/// the Feautrier path, whose satisfaction variable gets a fresh id per
/// attempt inside the block's referenced prefix.
class FarkasCache {
public:
  /// Equivalent to addValidity(Ilp, K, D) where \p Dep identifies D
  /// stably across calls (its index in the construction's relation
  /// list).
  void addValidity(DimIlp &Ilp, const Kernel &K, unsigned Dep,
                   const DependenceRelation &D);
  /// Equivalent to addProximity(Ilp, K, D); same keying as addValidity.
  void addProximity(DimIlp &Ilp, const Kernel &K, unsigned Dep,
                    const DependenceRelation &D);

  /// Replays served by THIS cache instance — per-construction, unlike
  /// the global sched.farkas_cache_hits counter that batch workers
  /// share; the scheduler's sched_end journal record reports it.
  unsigned hits() const { return HitCount; }

private:
  std::map<std::pair<unsigned, int>, IlpBuilder::ConstraintBlock> Blocks;
  unsigned HitCount = 0;
};

/// Adds progression constraints for statement \p Stmt: Eq. (3) and the
/// orthogonal-subspace constraints Eq. (4) derived from the rows already
/// in \p Partial. Statements at full rank instead get zero iterator and
/// parameter coefficients (padding rows).
void addProgression(DimIlp &Ilp, const Kernel &K, const Schedule &Partial,
                    unsigned Stmt);

/// Adds the constraints of one influence tree node, substituting
/// already-fixed coefficients of dimensions < \p CurDim from \p Partial.
void addInfluence(DimIlp &Ilp, const Kernel &K, const InfluenceNode &Node,
                  const Schedule &Partial, unsigned CurDim);

/// Appends the node's injected objectives as lexicographic levels (call
/// between the proximity levels and the built-in tie-breakers, i.e.
/// before addObjectives' tie-break half). Terms on earlier dimensions
/// are constants and do not affect the argmin, so they are dropped.
void addInfluenceObjectives(DimIlp &Ilp, const InfluenceNode &Node,
                            unsigned CurDim);

/// Feautrier-style dimension (paper Section IV-B / Feautrier 1992):
/// per active relation a satisfaction variable e in [0, 1] with
/// phi_T - phi_S >= e over the relation; maximizing sum(e) strongly
/// satisfies as many relations as possible. \returns the variable ids.
std::vector<unsigned>
addFeautrierSatisfaction(DimIlp &Ilp, const Kernel &K,
                         const std::vector<const DependenceRelation *> &Deps);

/// Appends the lexicographic objective levels: (sum u, w) per the isl
/// proximity form, then any objectives injected by \p Node (may be
/// null), then coefficient-sum and shift-sum tie-breakers, and last the
/// original-order preference (isl-like determinism among otherwise
/// equivalent optima).
void addObjectives(DimIlp &Ilp, const Kernel &K,
                   const InfluenceNode *Node = nullptr,
                   unsigned CurDim = 0);

/// Extracts the solved dimension-\p Dim rows into \p Partial (appending
/// one row per statement matrix).
void appendSolution(const DimIlp &Ilp, const IlpResult &R, const Kernel &K,
                    Schedule &Partial);

} // namespace pinj

#endif // POLYINJECT_SCHED_CONSTRAINTBUILDERS_H
