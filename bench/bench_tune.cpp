//===- bench/bench_tune.cpp - Autotuning benchmark & gate -----------------===//
//
// Measures what the autotuner (src/tune/) buys on the generated
// operator corpus, and enforces the subsystem's contract:
//
//   1. never worse — for every operator the tuned options' simulated
//      infl time is <= the paper-default options' time (exit 1
//      otherwise);
//   2. measurably better — the geometric-mean speedup over the corpus
//      must clear 1.01x, with at least one operator improved (the
//      vector-width cap and thread-budget knobs are known wins on the
//      reduce-tail and hostile-order shapes);
//   3. warm replay — a second pass over the same tuning database must
//      answer every operator from the database (tune.db_hits), skip all
//      searches, and reproduce byte-identical encodings.
//
// Everything is the analytic cost model; there is no GPU in the loop.
//
//   bench_tune [--strategy=greedy] [--budget=64] [--ops=N] [--jobs=N]
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "obs/Metrics.h"
#include "tune/Autotuner.h"
#include "tune/Evaluator.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pinj;

namespace {

struct OpResult {
  std::string Name;
  double BaselineUs = 0;
  double TunedUs = 0;
  std::string Encoding;
};

} // namespace

int main(int Argc, char **Argv) {
  std::string Strategy = "greedy";
  std::size_t Budget = 64;
  unsigned Limit = 0;
  unsigned Jobs = std::max(1u, std::thread::hardware_concurrency());
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--strategy=", 11) == 0)
      Strategy = Arg + 11;
    else if (std::strncmp(Arg, "--budget=", 9) == 0)
      Budget = std::strtoull(Arg + 9, nullptr, 10);
    else if (std::strncmp(Arg, "--ops=", 6) == 0)
      Limit = static_cast<unsigned>(std::strtoul(Arg + 6, nullptr, 10));
    else if (std::strncmp(Arg, "--jobs=", 7) == 0)
      Jobs = static_cast<unsigned>(std::strtoul(Arg + 7, nullptr, 10));
    else {
      std::fprintf(stderr,
                   "usage: bench_tune [--strategy=NAME] [--budget=N] "
                   "[--ops=N] [--jobs=N]\n");
      return 2;
    }
  }

  std::vector<Kernel> Corpus = makeCorpus(Limit);
  std::filesystem::path DbDir =
      std::filesystem::temp_directory_path() /
      ("bench_tune-" + std::to_string(::getpid()));
  std::filesystem::remove_all(DbDir);
  std::filesystem::create_directories(DbDir);
  std::string DbPath = (DbDir / "tune.db").string();

  std::printf("autotuning %zu operators (strategy=%s, budget=%zu, "
              "jobs=%u)\n\n",
              Corpus.size(), Strategy.c_str(), Budget, Jobs);

  // ---- Cold pass: search every operator, gate never-worse. ----------
  std::vector<OpResult> Results;
  bool NeverWorseViolated = false;
  double LogSum = 0;
  unsigned Improved = 0;
  auto ColdStart = std::chrono::steady_clock::now();
  {
    tune::TuningDb Db(DbPath);
    tune::Autotuner::Config Cfg;
    Cfg.Strategy = Strategy;
    Cfg.MaxEvaluations = Budget;
    Cfg.Jobs = Jobs;
    Cfg.Db = &Db;
    tune::Autotuner Tuner(std::move(Cfg));

    for (const Kernel &K : Corpus) {
      PipelineOptions Base;
      PipelineOptions Tuned = Base;
      TunedConfig Chosen;
      Tuner.tune(K, Tuned, Chosen);

      OpResult R;
      R.Name = K.Name;
      R.BaselineUs = tune::predictInflTimeUs(K, Base);
      R.TunedUs = tune::predictInflTimeUs(K, Tuned);
      R.Encoding = Chosen.Encoding;
      // Never-worse: the applied options must simulate at or below the
      // paper default (identical when the encoding is "baseline").
      if (R.TunedUs > R.BaselineUs * (1 + 1e-9)) {
        std::printf("FAIL %-22s tuned %.3f us > baseline %.3f us\n",
                    R.Name.c_str(), R.TunedUs, R.BaselineUs);
        NeverWorseViolated = true;
      }
      double Speedup = R.TunedUs > 0 ? R.BaselineUs / R.TunedUs : 1.0;
      LogSum += std::log(Speedup);
      Improved += Speedup > 1.0 ? 1 : 0;
      std::printf("%-22s baseline %8.3f us  tuned %8.3f us  %5.2fx  %s\n",
                  R.Name.c_str(), R.BaselineUs, R.TunedUs, Speedup,
                  R.Encoding == "baseline" ? "-" : R.Encoding.c_str());
      Results.push_back(std::move(R));
    }
  }
  double ColdMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - ColdStart)
                      .count();
  double Geomean = std::exp(LogSum / double(Results.size()));
  std::printf("\ncold pass: %.1f ms, geomean speedup %.3fx, %u/%zu "
              "operators improved\n",
              ColdMs, Geomean, Improved, Results.size());

  // ---- Warm pass: everything must replay from the database. ---------
  obs::MetricsSnapshot BeforeWarm = obs::metrics().snapshot();
  bool WarmViolated = false;
  auto WarmStart = std::chrono::steady_clock::now();
  {
    tune::TuningDb Db(DbPath);
    tune::Autotuner::Config Cfg;
    Cfg.Strategy = Strategy;
    Cfg.MaxEvaluations = Budget;
    Cfg.Jobs = Jobs;
    Cfg.Db = &Db;
    tune::Autotuner Tuner(std::move(Cfg));
    for (std::size_t I = 0; I < Corpus.size(); ++I) {
      PipelineOptions Tuned;
      TunedConfig Chosen;
      Tuner.tune(Corpus[I], Tuned, Chosen);
      if (!Chosen.FromDb || Chosen.Encoding != Results[I].Encoding) {
        std::printf("FAIL %-22s warm replay diverged (from_db=%d, %s)\n",
                    Results[I].Name.c_str(), Chosen.FromDb ? 1 : 0,
                    Chosen.Encoding.c_str());
        WarmViolated = true;
      }
    }
  }
  double WarmMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - WarmStart)
                      .count();
  obs::MetricsSnapshot WarmDelta =
      obs::metrics().snapshot().since(BeforeWarm);
  std::uint64_t WarmHits = WarmDelta.counter("tune.db_hits");
  std::uint64_t WarmSearches = WarmDelta.counter("tune.searches");
  std::printf("warm pass: %.1f ms (%.1fx over cold), db hits %llu/%zu, "
              "searches %llu\n",
              WarmMs, WarmMs > 0 ? ColdMs / WarmMs : 0.0,
              static_cast<unsigned long long>(WarmHits), Corpus.size(),
              static_cast<unsigned long long>(WarmSearches));

  std::filesystem::remove_all(DbDir);

  // ---- Gates. -------------------------------------------------------
  int Failures = 0;
  if (NeverWorseViolated) {
    std::printf("GATE FAIL: a tuned config was worse than baseline\n");
    ++Failures;
  }
  if (Geomean < 1.01 || Improved == 0) {
    std::printf("GATE FAIL: geomean %.3fx below 1.01x (improved %u)\n",
                Geomean, Improved);
    ++Failures;
  }
  if (WarmViolated || WarmHits != Corpus.size() || WarmSearches != 0) {
    std::printf("GATE FAIL: warm pass searched instead of replaying\n");
    ++Failures;
  }
  if (Failures == 0)
    std::printf("all tuning gates passed\n");
  return Failures == 0 ? 0 : 1;
}
