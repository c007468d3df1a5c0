//===- tune/Evaluator.h - Parallel candidate evaluation ---------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Scores tuning candidates by the simulated infl-configuration kernel
/// time. Each evaluation runs the pipeline's own stages (pipeline/
/// Pipeline.h), grouped in three — dependences, the schedule (the
/// influenced scheduler, its reference fallback and vector
/// finalization) and the score (GPU mapping and simulation) — under a
/// per-candidate solver budget so one pathological candidate cannot
/// stall the search.
///
/// An Evaluator memoizes each stage on its content for the life of one
/// search: the kernel's dependences are computed once per
/// DependenceOptions, a schedule once per (influence tree, scheduler
/// options) and a score once per (schedule, mapping options), so
/// candidates that differ only in mapping knobs, or in influence knobs
/// that build the same tree, share the work. A stage result is served
/// only where recomputing it would give the same answer, and its solver
/// work is charged to the active budgets as if it had been redone, so
/// every score equals what predictInflTimeUs returns under the same
/// budgets. Batches run on a worker pool (the service::BatchCompiler
/// atomic-index pattern); scores are analytic, so the result is
/// identical for any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_TUNE_EVALUATOR_H
#define POLYINJECT_TUNE_EVALUATOR_H

#include "lp/Budget.h"
#include "tune/SearchSpace.h"

#include <cstddef>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace pinj {
namespace tune {

/// The score of a candidate that failed to produce a simulatable
/// schedule (or tripped its budget): never selected.
inline double failedScore() {
  return std::numeric_limits<double>::infinity();
}

class Evaluator {
public:
  struct Config {
    /// Worker threads for batch evaluation. Scores do not depend on it.
    unsigned Jobs = 1;
    /// Per-candidate resource isolation, installed around each
    /// evaluation (nested inside the candidate's own scheduling
    /// budget). Deterministic work counts only — a wall-clock cap here
    /// would make the chosen config depend on machine load.
    SolverBudget CandidateBudget{/*MaxPivots=*/2000000,
                                 /*MaxIlpNodes=*/200000,
                                 /*WallMs=*/0};
    /// Unique candidate evaluations allowed (the --tune-budget). The
    /// baseline evaluation is free: the never-worse guarantee must not
    /// compete with the search for budget.
    std::size_t MaxEvaluations = 64;
  };

  Evaluator(const Kernel &K, const PipelineOptions &Base,
            const SearchSpace &Space, Config Cfg);
  ~Evaluator();

  const Kernel &kernel() const { return K; }
  const PipelineOptions &base() const { return Base; }
  unsigned jobs() const { return Cfg.Jobs; }

  /// The score of the unmodified base options (memoized).
  double baseline();

  /// Scores for each candidate of \p Batch, memoized across calls —
  /// failures included, so a failing candidate never re-pays its
  /// gpusim run when a hill-climbing strategy revisits it. Candidates
  /// beyond the remaining evaluation budget score failedScore()
  /// without being evaluated; since the budget only ever shrinks they
  /// are memoized as failures too (counted on tune.budget_denials).
  std::vector<double> evaluate(const std::vector<Candidate> &Batch);

  /// Unique candidate evaluations performed so far.
  std::size_t evaluations() const { return Evals; }
  std::size_t remaining() const {
    return Evals >= Cfg.MaxEvaluations ? 0 : Cfg.MaxEvaluations - Evals;
  }

private:
  class StageMemo;

  /// predictInflTimeUs(K, O) under the candidate budget, through the
  /// stage memo. Thread-safe.
  double score(const PipelineOptions &O) const;
  double scoreOne(const Candidate &C) const;

  const Kernel &K;
  PipelineOptions Base;
  const SearchSpace &Space;
  Config Cfg;
  std::unique_ptr<StageMemo> Stages;
  std::map<Candidate, double> Memo;
  double BaselineScore = 0;
  bool HaveBaseline = false;
  std::size_t Evals = 0;
};

/// The scoring primitive: the simulated kernel time of \p K's infl
/// configuration under \p O, through the pipeline's stages —
/// influenced scheduling, the reference schedule when that is not
/// usable, vector finalization, mapping and simulation. Equals
/// runOperator(K, O).Infl.TimeUs whenever that run does not degrade.
/// \returns failedScore() when no simulatable schedule results, a stage
/// fails, or any solver budget tripped (a tripped run's schedule is not
/// what the un-tripped pipeline would produce). The Evaluator's stages
/// without the memo.
double predictInflTimeUs(const Kernel &K, const PipelineOptions &O);

/// The scheduling-and-mapping front half of predictInflTimeUs: produces
/// the mapped kernel a candidate's score would simulate, without scoring
/// it. \returns false in exactly the cases predictInflTimeUs returns
/// failedScore(). The calibration tool uses this to accumulate a row's
/// transaction counters once and re-score them under candidate
/// time-model constants.
bool buildInflMappedKernel(const Kernel &K, const PipelineOptions &O,
                           MappedKernel &Out);

} // namespace tune
} // namespace pinj

#endif // POLYINJECT_TUNE_EVALUATOR_H
