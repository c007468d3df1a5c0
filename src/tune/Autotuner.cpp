//===- tune/Autotuner.cpp -------------------------------------------------===//

#include "tune/Autotuner.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <cmath>

using namespace pinj;
using namespace pinj::tune;

Autotuner::Autotuner(Config Cfg) : Cfg(std::move(Cfg)) {
  if (this->Cfg.Space.empty())
    this->Cfg.Space = defaultSearchSpace();
  if (this->Cfg.Strategy == "surrogate")
    Strat = makeSurrogateStrategy(this->Cfg.Model, this->Cfg.TopK);
  else
    Strat = makeStrategy(this->Cfg.Strategy);
  if (!Strat) {
    this->Cfg.Strategy = "greedy";
    Strat = makeStrategy("greedy");
  }
  SpaceSignature = this->Cfg.Space.signature();
}

bool Autotuner::tune(const Kernel &K, PipelineOptions &Tuned,
                     TunedConfig &Out) {
  static obs::Counter &Searches = obs::metrics().counter("tune.searches");
  static obs::Counter &DbHits = obs::metrics().counter("tune.db_hits");
  static obs::Counter &DbStale = obs::metrics().counter("tune.db_stale");
  static obs::Counter &Improvements =
      obs::metrics().counter("tune.improvements");

  obs::Span Sp("tune.operator");
  if (Sp.active())
    Sp.arg("kernel", K.Name);

  // Key on the exact request the pipeline would compile: same kernel
  // structure + same base options. Any base-option change re-tunes.
  service::Fingerprint Key = service::fingerprintRequest(K, Tuned);

  // Warm path: replay the stored decision, byte-identical, no search.
  if (Cfg.Db) {
    DbEntry E;
    if (Cfg.Db->lookup(Key, E)) {
      bool Usable = E.SpaceSignature == SpaceSignature;
      Candidate C;
      if (Usable && E.Encoding != "baseline")
        Usable = Cfg.Space.decode(E.Encoding, C);
      if (Usable) {
        if (E.Encoding != "baseline")
          Cfg.Space.apply(C, Tuned);
        Out.Encoding = E.Encoding;
        Out.PredictedTimeUs = E.PredictedTimeUs;
        Out.FromDb = true;
        Out.Strategy = E.Strategy;
        DbHits.inc();
        if (Sp.active())
          Sp.arg("db", "hit");
        return true;
      }
      // Entry from another space shape (or undecodable): stale, re-run
      // the search and overwrite it below.
      DbStale.inc();
    }
  }

  Searches.inc();
  Evaluator::Config EvalCfg;
  EvalCfg.Jobs = Cfg.Jobs;
  EvalCfg.MaxEvaluations = Cfg.MaxEvaluations;
  Evaluator Eval(K, Tuned, Cfg.Space, EvalCfg);
  double Baseline = Eval.baseline();
  std::optional<ScoredCandidate> Best = Strat->run(Cfg.Space, Eval, Cfg.Seed);

  // Never-worse guarantee: apply the winner only when the cost model
  // scores it strictly below the unmodified options; ties and losses
  // keep the paper default.
  if (Best && Best->TimeUs < Baseline) {
    Cfg.Space.apply(Best->C, Tuned);
    Out.Encoding = Cfg.Space.encode(Best->C);
    Out.PredictedTimeUs = Best->TimeUs;
    Improvements.inc();
  } else {
    Out.Encoding = "baseline";
    // A baseline that itself failed to evaluate has no finite
    // prediction; report 0 rather than a non-JSON infinity.
    Out.PredictedTimeUs = std::isfinite(Baseline) ? Baseline : 0;
  }
  Out.FromDb = false;
  Out.Strategy = Strat->name();

  if (Cfg.Db)
    Cfg.Db->store(Key, {Out.Encoding, Out.PredictedTimeUs, Out.Strategy,
                        SpaceSignature});
  if (Sp.active()) {
    Sp.arg("choice", Out.Encoding);
    Sp.arg("evaluations", std::to_string(Eval.evaluations()));
  }
  return true;
}
