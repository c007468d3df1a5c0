//===- bench/bench_surrogate.cpp - Surrogate autotuning gate --------------===//
//
// Measures what the learned cost model (src/model/) buys the autotuner:
// a surrogate-guided search that ranks the whole space with the model
// and gpusim-evaluates only the top-K candidates must match exhaustive
// search quality at a fraction of the evaluation cost. The run trains
// the model in-process on the shared tuning corpus, then tunes every
// operator twice — full exhaustive search vs surrogate top-K — and
// gates:
//
//   1. evaluation savings — the surrogate pass must spend at least 5x
//      fewer full evaluator scorings (tune.evaluations) than the
//      exhaustive pass;
//   2. quality parity — the corpus geomean of the surrogate's tuned
//      times must stay within 0.5% of the exhaustive geomean
//      (exhaustive is optimal per operator, so the ratio is >= 1 by
//      construction and only the upper bound binds);
//   3. never worse — every surrogate-tuned operator simulates at or
//      below the paper-default options;
//   4. determinism — surrogate encodings are byte-identical across
//      --jobs=1 and --jobs=8 evaluator parallelism.
//
// Everything is the analytic cost model; there is no GPU in the loop.
//
//   bench_surrogate [--json=FILE] [--ops=N] [--topk=K] [--candidates=N]
//                   [--rounds=N]
//
// The JSON artifact (BENCH_tune_surrogate.json in CI) records per-op
// times plus the aggregate evaluation counts and ratios.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "model/Dataset.h"
#include "model/GbStumps.h"
#include "obs/Metrics.h"
#include "tune/Autotuner.h"
#include "tune/Evaluator.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace pinj;

namespace {

struct OpRow {
  std::string Name;
  double BaselineUs = 0;
  double ExhaustiveUs = 0;
  double SurrogateUs = 0;
  std::string Encoding; ///< Surrogate choice at --jobs=1.
};

struct PassResult {
  std::vector<double> TunedUs;
  std::vector<std::string> Encodings;
  std::uint64_t Evaluations = 0;
  double WallMs = 0;
};

/// Tunes every corpus operator with one Autotuner configuration and
/// returns per-op tuned times/encodings plus the tune.evaluations
/// delta the pass cost.
PassResult runPass(const std::vector<Kernel> &Corpus,
                   tune::Autotuner::Config Cfg) {
  PassResult R;
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  auto Start = std::chrono::steady_clock::now();
  tune::Autotuner Tuner(std::move(Cfg));
  for (const Kernel &K : Corpus) {
    PipelineOptions Tuned;
    TunedConfig Chosen;
    Tuner.tune(K, Tuned, Chosen);
    R.TunedUs.push_back(tune::predictInflTimeUs(K, Tuned));
    R.Encodings.push_back(Chosen.Encoding);
  }
  R.WallMs = std::chrono::duration<double, std::milli>(
                 std::chrono::steady_clock::now() - Start)
                 .count();
  R.Evaluations =
      obs::metrics().snapshot().since(Before).counter("tune.evaluations");
  return R;
}

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = nullptr;
  unsigned Limit = 0;
  std::size_t TopK = 8;
  std::size_t Candidates = 48;
  unsigned Rounds = 400;
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--json=", 7) == 0)
      JsonPath = Arg + 7;
    else if (std::strncmp(Arg, "--ops=", 6) == 0)
      Limit = static_cast<unsigned>(std::strtoul(Arg + 6, nullptr, 10));
    else if (std::strncmp(Arg, "--topk=", 7) == 0)
      TopK = std::strtoull(Arg + 7, nullptr, 10);
    else if (std::strncmp(Arg, "--candidates=", 13) == 0)
      Candidates = std::strtoull(Arg + 13, nullptr, 10);
    else if (std::strncmp(Arg, "--rounds=", 9) == 0)
      Rounds = static_cast<unsigned>(std::strtoul(Arg + 9, nullptr, 10));
    else {
      std::fprintf(stderr,
                   "usage: bench_surrogate [--json=FILE] [--ops=N] "
                   "[--topk=K] [--candidates=N] [--rounds=N]\n");
      return 2;
    }
  }
  if (TopK == 0 || Candidates == 0) {
    std::fprintf(stderr, "--topk and --candidates must be positive\n");
    return 2;
  }

  std::vector<Kernel> Corpus = makeCorpus(Limit);
  tune::SearchSpace Space = tune::defaultSearchSpace();
  unsigned Jobs = std::max(1u, std::thread::hardware_concurrency());

  std::printf("surrogate gate: %zu operators, space %zu candidates, "
              "top-%zu, jobs=%u\n\n",
              Corpus.size(), Space.size(), TopK, Jobs);

  // ---- Train the cost model on the corpus (offline in production;
  // ---- here in-process so the gate is self-contained). --------------
  auto TrainStart = std::chrono::steady_clock::now();
  model::Dataset Data;
  {
    model::DatasetBuildConfig BuildCfg;
    BuildCfg.CandidatesPerKernel = Candidates;
    BuildCfg.Jobs = Jobs;
    for (const Kernel &K : Corpus)
      model::appendSamples(Data, K, PipelineOptions(), Space, nullptr,
                           BuildCfg);
  }
  if (Data.Samples.empty()) {
    std::printf("GATE FAIL: dataset build produced no samples\n");
    return 1;
  }
  std::vector<model::FeatureVector> X;
  std::vector<double> Y;
  X.reserve(Data.Samples.size());
  Y.reserve(Data.Samples.size());
  for (const model::Sample &S : Data.Samples) {
    X.push_back(S.X);
    Y.push_back(model::regressionTarget(S.TimeUs));
  }
  model::TrainConfig TC;
  TC.Rounds = Rounds;
  auto Model = std::make_shared<const model::GbStumpsModel>(
      model::trainGbStumps(X, Y, TC));
  double TrainMs = std::chrono::duration<double, std::milli>(
                       std::chrono::steady_clock::now() - TrainStart)
                       .count();
  std::printf("trained on %zu samples (%zu stumps, %.1f ms)\n\n",
              Data.Samples.size(), Model->Stumps.size(), TrainMs);

  // ---- Exhaustive reference pass. -----------------------------------
  tune::Autotuner::Config ExCfg;
  ExCfg.Strategy = "exhaustive";
  ExCfg.MaxEvaluations = Space.size() + 1; // whole space + baseline
  ExCfg.Jobs = Jobs;
  PassResult Ex = runPass(Corpus, ExCfg);

  // ---- Surrogate passes: --jobs=1 and --jobs=8 must agree. ----------
  tune::Autotuner::Config SuCfg;
  SuCfg.Strategy = "surrogate";
  SuCfg.MaxEvaluations = Space.size() + 1;
  SuCfg.Model = Model;
  SuCfg.TopK = TopK;
  SuCfg.Jobs = 1;
  PassResult Su = runPass(Corpus, SuCfg);
  SuCfg.Jobs = 8;
  PassResult Su8 = runPass(Corpus, SuCfg);

  // ---- Per-op table + gates. ----------------------------------------
  std::vector<OpRow> Rows;
  bool NeverWorseViolated = false;
  bool JobsDiverged = false;
  std::vector<double> Ratios;
  for (std::size_t I = 0; I != Corpus.size(); ++I) {
    OpRow R;
    R.Name = Corpus[I].Name;
    R.BaselineUs = tune::predictInflTimeUs(Corpus[I], PipelineOptions());
    R.ExhaustiveUs = Ex.TunedUs[I];
    R.SurrogateUs = Su.TunedUs[I];
    R.Encoding = Su.Encodings[I];
    if (R.SurrogateUs > R.BaselineUs * (1 + 1e-9)) {
      std::printf("FAIL %-22s surrogate %.3f us > baseline %.3f us\n",
                  R.Name.c_str(), R.SurrogateUs, R.BaselineUs);
      NeverWorseViolated = true;
    }
    if (Su.Encodings[I] != Su8.Encodings[I]) {
      std::printf("FAIL %-22s encoding differs across jobs: '%s' vs '%s'\n",
                  R.Name.c_str(), Su.Encodings[I].c_str(),
                  Su8.Encodings[I].c_str());
      JobsDiverged = true;
    }
    if (R.ExhaustiveUs > 0)
      Ratios.push_back(R.SurrogateUs / R.ExhaustiveUs);
    std::printf("%-22s baseline %8.3f  exhaustive %8.3f  surrogate "
                "%8.3f us  %s\n",
                R.Name.c_str(), R.BaselineUs, R.ExhaustiveUs, R.SurrogateUs,
                R.Encoding == "baseline" ? "-" : R.Encoding.c_str());
    Rows.push_back(std::move(R));
  }

  double GeoRatio = geomean(Ratios);
  double EvalRatio =
      Su.Evaluations ? double(Ex.Evaluations) / double(Su.Evaluations) : 0;
  obs::MetricsSnapshot Final = obs::metrics().snapshot();
  std::printf("\nexhaustive: %llu evaluations, %.1f ms\n",
              static_cast<unsigned long long>(Ex.Evaluations), Ex.WallMs);
  std::printf("surrogate:  %llu evaluations, %.1f ms (%llu predictions, "
              "%llu evals saved)\n",
              static_cast<unsigned long long>(Su.Evaluations), Su.WallMs,
              static_cast<unsigned long long>(
                  Final.counter("model.predictions")),
              static_cast<unsigned long long>(
                  Final.counter("tune.surrogate_evals_saved")));
  std::printf("eval ratio %.1fx, geomean quality ratio %.5f\n", EvalRatio,
              GeoRatio);

  // ---- Gates. -------------------------------------------------------
  int Failures = 0;
  if (NeverWorseViolated) {
    std::printf("GATE FAIL: a surrogate config was worse than baseline\n");
    ++Failures;
  }
  if (EvalRatio < 5.0) {
    std::printf("GATE FAIL: eval ratio %.1fx below 5x (%llu vs %llu)\n",
                EvalRatio, static_cast<unsigned long long>(Ex.Evaluations),
                static_cast<unsigned long long>(Su.Evaluations));
    ++Failures;
  }
  if (Ratios.empty() || GeoRatio > 1.005) {
    std::printf("GATE FAIL: geomean quality ratio %.5f outside 0.5%% of "
                "exhaustive\n",
                GeoRatio);
    ++Failures;
  }
  if (JobsDiverged) {
    std::printf("GATE FAIL: surrogate choice depends on --jobs\n");
    ++Failures;
  }
  bool Pass = Failures == 0;
  if (Pass)
    std::printf("all surrogate gates passed\n");

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 2;
    }
    std::fprintf(F, "{\n  \"ops\": [\n");
    for (std::size_t I = 0; I != Rows.size(); ++I)
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"baseline_us\": %.6f, "
                   "\"exhaustive_us\": %.6f, \"surrogate_us\": %.6f, "
                   "\"encoding\": \"%s\"}%s\n",
                   Rows[I].Name.c_str(), Rows[I].BaselineUs,
                   Rows[I].ExhaustiveUs, Rows[I].SurrogateUs,
                   Rows[I].Encoding.c_str(),
                   I + 1 == Rows.size() ? "" : ",");
    std::fprintf(F,
                 "  ],\n  \"space_size\": %zu,\n  \"topk\": %zu,\n"
                 "  \"train_samples\": %zu,\n  \"model_stumps\": %zu,\n"
                 "  \"exhaustive_evals\": %llu,\n"
                 "  \"surrogate_evals\": %llu,\n"
                 "  \"eval_ratio\": %.3f,\n  \"geomean_ratio\": %.6f,\n"
                 "  \"pass\": %s\n}\n",
                 Space.size(), TopK, Data.Samples.size(),
                 Model->Stumps.size(),
                 static_cast<unsigned long long>(Ex.Evaluations),
                 static_cast<unsigned long long>(Su.Evaluations), EvalRatio,
                 GeoRatio, Pass ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }
  return Pass ? 0 : 1;
}
