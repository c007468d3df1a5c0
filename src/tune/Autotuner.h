//===- tune/Autotuner.h - The pipeline's tuning hook ------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The TuningHook implementation: per operator, replay a winning config
/// from the tuning database when one exists for this exact request
/// fingerprint and search-space shape, otherwise search the space with
/// the configured strategy and persist the winner. The baseline (the
/// unmodified pipeline options) is always evaluated with the same
/// evaluator, and a searched candidate is applied only when its
/// simulated time is strictly better — tuning never selects a config
/// the cost model scores worse than the paper default.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_TUNE_AUTOTUNER_H
#define POLYINJECT_TUNE_AUTOTUNER_H

#include "tune/Strategy.h"
#include "tune/TuningDb.h"

namespace pinj {
namespace tune {

class Autotuner final : public TuningHook {
public:
  struct Config {
    /// Strategy name ("exhaustive", "greedy", "anneal", or "surrogate"
    /// when Model is set); unknown names — and "surrogate" without a
    /// model — fall back to greedy.
    std::string Strategy = "greedy";
    /// Seed for stochastic strategies (--tune-seed).
    std::uint64_t Seed = 1;
    /// Unique candidate evaluations per operator (--tune-budget).
    std::size_t MaxEvaluations = 64;
    /// Worker threads per search (1 inside batch compilation, where
    /// operators are already evaluated concurrently).
    unsigned Jobs = 1;
    /// The space to search; defaultSearchSpace() unless narrowed.
    SearchSpace Space;
    /// Optional persistent store; not owned. May be shared by
    /// concurrent Autotuners (TuningDb is thread-safe).
    TuningDb *Db = nullptr;
    /// The trained cost model for Strategy == "surrogate"
    /// (model/GbStumps.h, loaded via loadModel). Shared because
    /// prediction is const and the batch compiler's workers tune
    /// concurrently.
    std::shared_ptr<const model::GbStumpsModel> Model;
    /// Candidates the surrogate strategy gpusim-evaluates per operator
    /// (--tune-topk); ignored by the other strategies.
    std::size_t TopK = 8;
  };

  explicit Autotuner(Config Cfg);

  /// TuningHook: chooses options for \p K (see class comment). Always
  /// returns true — a search that finds nothing better reports the
  /// "baseline" encoding. Thread-safe.
  bool tune(const Kernel &K, PipelineOptions &Tuned,
            TunedConfig &Out) override;

  const Config &config() const { return Cfg; }

private:
  Config Cfg;
  std::unique_ptr<Strategy> Strat;
  std::string SpaceSignature;
};

} // namespace tune
} // namespace pinj

#endif // POLYINJECT_TUNE_AUTOTUNER_H
