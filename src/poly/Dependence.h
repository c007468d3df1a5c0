//===- poly/Dependence.h - Data dependence analysis -------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exact dependence relations between statement iterations (paper
/// Section IV-A1): pairs of iterations touching the same memory cell,
/// at least one writing, with the source executing first in the original
/// program. The original execution order is the classic 2d+1 schedule
/// encoded by Statement::OrigBeta; one relation is emitted per
/// lexicographic level at which the order can be strict.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_POLY_DEPENDENCE_H
#define POLYINJECT_POLY_DEPENDENCE_H

#include "ir/Kernel.h"
#include "lp/Budget.h"
#include "poly/Set.h"

#include <mutex>

namespace pinj {

/// The classic dependence classes.
enum class DepKind {
  Flow,   ///< read after write (RAW)
  Anti,   ///< write after read (WAR)
  Output, ///< write after write (WAW)
  Input,  ///< read after read (RAR); only used by proximity
};

const char *depKindName(DepKind Kind);

/// One dependence relation delta_{S->T}: a set over
/// (source iters, target iters, params) of dependent iteration pairs.
struct DependenceRelation {
  unsigned SrcStmt = 0;
  unsigned DstStmt = 0;
  DepKind Kind = DepKind::Flow;
  unsigned TensorId = 0;
  AffineSet Rel;

  /// True dependencies constrain validity; Input only guides proximity.
  bool constrainsValidity() const { return Kind != DepKind::Input; }
};

/// Options for the analysis.
struct DependenceOptions {
  /// Also compute read-after-read relations (used by the proximity cost
  /// when optimizing for reuse on reads, as the paper's Section IV-A2
  /// allows).
  bool IncludeInput = false;
};

/// Computes all dependence relations of \p K. Relations are pruned by a
/// rational emptiness check (exact for the unit-coefficient accesses of
/// the operator domain).
std::vector<DependenceRelation>
computeDependences(const Kernel &K,
                   const DependenceOptions &Options = DependenceOptions());

/// The relations of one kernel, computed at most once per
/// DependenceOptions and shared by every consumer that would otherwise
/// recompute them (runOperator's scheduler runs and vector
/// finalizations, the autotuner's candidates). The first computation
/// runs under its caller's solver budgets, so they trip, deadlines
/// included, exactly where a fresh computation trips them; relations a
/// trip shaped are never stored. A stored computation records the work
/// it took, and every later consumer charges that work to its own
/// budgets, which therefore trip exactly where a fresh computation
/// would trip them. Thread-safe; \p K must outlive the memo.
class DependenceMemo {
public:
  explicit DependenceMemo(const Kernel &K) : K(K) {}

  /// \p K's relations under \p Options, their work charged to the
  /// active budgets. When a budget trips during (or before) the first
  /// computation, its relations are moved into \p Own and \p Own is
  /// returned. \returns null when the budgets cannot absorb the stored
  /// work: the caller then computes the relations itself, failing or
  /// tripping wherever a fresh computation does.
  const std::vector<DependenceRelation> *
  get(const DependenceOptions &Options,
      std::vector<DependenceRelation> *Own = nullptr) const;

private:
  struct Entry {
    std::mutex Mu;
    bool Stored = false;
    std::vector<DependenceRelation> Relations;
    SolverWork Work;
  };

  const Kernel &K;
  /// One entry per DependenceOptions value, indexed by IncludeInput.
  mutable Entry Entries[2];
};

/// \p K's relations under \p Options: \p Memo's copy when it has one for
/// the active budgets (see DependenceMemo::get), else computed afresh
/// into \p Storage, as is a first computation a trip shaped. A null
/// \p Memo always computes.
const std::vector<DependenceRelation> &
dependencesOf(const Kernel &K, const DependenceOptions &Options,
              const DependenceMemo *Memo,
              std::vector<DependenceRelation> &Storage);

/// Renders a short human-readable summary ("X -> Y flow on B").
std::string printDependence(const Kernel &K, const DependenceRelation &D);

} // namespace pinj

#endif // POLYINJECT_POLY_DEPENDENCE_H
