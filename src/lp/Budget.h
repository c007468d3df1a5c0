//===- lp/Budget.h - Solver resource budgets -------------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Resource budgets for the exact LP/ILP solvers. A SolverBudget caps the
/// number of simplex pivots, branch-and-bound nodes, and wall-clock time a
/// region of work may consume. Budgets are installed with a RAII
/// BudgetScope; scopes nest (an operator-wide deadline around per-kernel
/// pivot caps), and every charge is applied to all scopes on the current
/// thread's stack. When any scope is exhausted the solvers return
/// BudgetExceeded, which the scheduler treats like an infeasible ILP and
/// resolves through its normal fallback chain.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_LP_BUDGET_H
#define POLYINJECT_LP_BUDGET_H

#include <chrono>
#include <cstdint>

namespace pinj {

/// Limits for a region of solver work. A zero field means "unlimited".
struct SolverBudget {
  /// Maximum simplex pivots (phase 1 + phase 2, all relaxations).
  std::uint64_t MaxPivots = 0;
  /// Maximum branch-and-bound nodes across all ILP solves.
  std::uint64_t MaxIlpNodes = 0;
  /// Wall-clock deadline in milliseconds.
  double WallMs = 0;

  bool unlimited() const {
    return MaxPivots == 0 && MaxIlpNodes == 0 && WallMs <= 0;
  }
};

/// Solver work in the units budgets charge.
struct SolverWork {
  std::uint64_t Pivots = 0;
  std::uint64_t IlpNodes = 0;
};

namespace budget {

struct BudgetState;

/// Installs \p B on the current thread for the lifetime of the scope.
/// An unlimited budget installs nothing (charging stays free).
class BudgetScope {
public:
  explicit BudgetScope(const SolverBudget &B);
  ~BudgetScope();

  BudgetScope(const BudgetScope &) = delete;
  BudgetScope &operator=(const BudgetScope &) = delete;

  /// True once any limit of this scope (not an outer one) has tripped.
  bool tripped() const;

private:
  BudgetState *S = nullptr;
};

/// Measures the solver work charged on this thread while it lives, and
/// never trips. A Nested meter passes every charge on to the enclosing
/// scopes; a Detached meter hides them, so the work inside neither
/// charges nor trips any of them. Memoizing callers compute a result
/// under a meter and replay its work() with chargeWork() wherever they
/// serve the result instead of recomputing it.
class WorkMeter {
public:
  enum ModeTy { Nested, Detached };
  explicit WorkMeter(ModeTy Mode);
  ~WorkMeter();

  WorkMeter(const WorkMeter &) = delete;
  WorkMeter &operator=(const WorkMeter &) = delete;

  SolverWork work() const;

private:
  BudgetState *S = nullptr;
  BudgetState *Saved = nullptr;
};

/// Charges \p W to every active scope at once, exactly as redoing that
/// work here would — provided no scope has tripped or hit its deadline
/// and each can absorb all of \p W. Otherwise charges nothing and
/// \returns false: the caller must then redo the work itself, so every
/// budget trips exactly where the work trips it.
bool chargeWork(const SolverWork &W);

/// Charges one simplex pivot to every active scope. \returns false when
/// a limit is exhausted (the caller should stop and report
/// BudgetExceeded). The first failing charge per scope also bumps the
/// lp.budget_exceeded counter.
bool chargePivot();

/// Charges one branch-and-bound node to every active scope.
bool chargeNode();

/// True when any active scope's wall-clock deadline has passed (and
/// only then — pivot/node exhaustion does not count; use anyTripped()
/// for that). Expiry trips the scope like an exhausted charge.
bool deadlineExpired();

/// True when any active scope has tripped any of its limits. Recovery
/// boundaries use this to attribute a failure to the budget.
bool anyTripped();

/// True when any budget scope is active on this thread (cheap check so
/// solver hot loops can skip the clock entirely).
bool active();

} // namespace budget
} // namespace pinj

#endif // POLYINJECT_LP_BUDGET_H
