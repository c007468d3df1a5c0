//===- bench/bench_target.cpp - Cross-target tuning matrix gate -----------===//
//
// Measures what the target backend subsystem (src/target/) buys: tuning
// is target-sensitive, and the fingerprint keeps per-target tuning
// state separate. The run tunes the whole operator corpus once per
// built-in target (v100/a100/p100/cpu-simd) with an exhaustive search
// over the shared space and one shared tuning database, then scores
// every tuned config on every other target (the transfer matrix), and
// gates:
//
//   1. never worse, per target — for every operator and every target
//      the tuned options simulate at or below the paper-default options
//      *on that target* (the existing bench_tune gate, preserved per
//      backend);
//   2. target-sensitive winners — cpu-simd must choose a different
//      tuned encoding than v100 on at least one corpus operator (the
//      cache-line transaction model and additive time model trade off
//      differently than GPU sectors);
//   3. transfer is never super-optimal — a config tuned on target A and
//      scored on target B can only tie or lose to B's own tuned config
//      (both searched the same candidate set, so B's winner is optimal
//      within it); the diagonal of the matrix is exactly 1;
//   4. no aliasing — a warm pass over the shared database must replay
//      all |targets| x |ops| entries byte-identically with zero
//      searches: per-target fingerprints keep the entries apart.
//
// Everything is the analytic cost model; there is no GPU in the loop.
//
//   bench_target [--json=FILE] [--ops=N] [--jobs=N]
//
// The JSON artifact (BENCH_target_matrix.json in CI) records per-target
// per-op rows, the geomean tuning speedup per target, the 4x4 transfer
// matrix (geomean of tuned-on-A-scored-on-B over B's own tuned), and
// the operators where cpu-simd and v100 disagree.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "obs/Metrics.h"
#include "target/Target.h"
#include "tune/Autotuner.h"
#include "tune/Evaluator.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace pinj;

namespace {

struct TargetPass {
  std::string Name;
  std::string Kind;
  std::shared_ptr<const target::TargetModel> Model;
  std::vector<double> BaselineUs;
  std::vector<double> TunedUs;
  std::vector<std::string> Encodings;
  std::vector<PipelineOptions> TunedOpts; ///< For cross-target scoring.
  double GeomeanSpeedup = 1.0;
};

} // namespace

int main(int Argc, char **Argv) {
  const char *JsonPath = nullptr;
  unsigned Limit = 0;
  unsigned Jobs = std::max(1u, std::thread::hardware_concurrency());
  for (int I = 1; I != Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--json=", 7) == 0)
      JsonPath = Arg + 7;
    else if (std::strncmp(Arg, "--ops=", 6) == 0)
      Limit = static_cast<unsigned>(std::strtoul(Arg + 6, nullptr, 10));
    else if (std::strncmp(Arg, "--jobs=", 7) == 0)
      Jobs = static_cast<unsigned>(std::strtoul(Arg + 7, nullptr, 10));
    else {
      std::fprintf(stderr,
                   "usage: bench_target [--json=FILE] [--ops=N] [--jobs=N]\n");
      return 2;
    }
  }

  std::vector<Kernel> Corpus = makeCorpus(Limit);
  std::vector<std::string> Names = target::builtinTargetNames();
  tune::SearchSpace Space = tune::defaultSearchSpace();

  std::filesystem::path DbDir =
      std::filesystem::temp_directory_path() /
      ("bench_target-" + std::to_string(::getpid()));
  std::filesystem::remove_all(DbDir);
  std::filesystem::create_directories(DbDir);
  std::string DbPath = (DbDir / "tune.db").string();

  std::printf("target matrix: %zu operators x %zu targets, space %zu "
              "candidates, jobs=%u\n\n",
              Corpus.size(), Names.size(), Space.size(), Jobs);

  // ---- Cold pass: tune the corpus once per target, shared database. --
  std::vector<TargetPass> Passes;
  bool NeverWorseViolated = false;
  auto ColdStart = std::chrono::steady_clock::now();
  {
    tune::TuningDb Db(DbPath);
    tune::Autotuner::Config Cfg;
    Cfg.Strategy = "exhaustive";
    Cfg.MaxEvaluations = Space.size() + 1; // whole space + baseline
    Cfg.Jobs = Jobs;
    Cfg.Db = &Db;
    tune::Autotuner Tuner(std::move(Cfg));

    for (const std::string &Name : Names) {
      TargetPass P;
      P.Name = Name;
      P.Model = target::makeBuiltinTarget(Name);
      if (!P.Model) {
        std::fprintf(stderr, "unknown built-in target '%s'\n", Name.c_str());
        return 2;
      }
      P.Kind = P.Model->kind();

      PipelineOptions Base;
      Base.Target = P.Model;
      double LogSum = 0;
      for (const Kernel &K : Corpus) {
        PipelineOptions Tuned = Base;
        TunedConfig Chosen;
        Tuner.tune(K, Tuned, Chosen);

        double BaselineUs = tune::predictInflTimeUs(K, Base);
        double TunedUs = tune::predictInflTimeUs(K, Tuned);
        if (TunedUs > BaselineUs * (1 + 1e-9)) {
          std::printf("FAIL %-10s %-22s tuned %.3f us > baseline %.3f us\n",
                      Name.c_str(), K.Name.c_str(), TunedUs, BaselineUs);
          NeverWorseViolated = true;
        }
        LogSum += std::log(TunedUs > 0 ? BaselineUs / TunedUs : 1.0);
        P.BaselineUs.push_back(BaselineUs);
        P.TunedUs.push_back(TunedUs);
        P.Encodings.push_back(Chosen.Encoding);
        P.TunedOpts.push_back(std::move(Tuned));
      }
      P.GeomeanSpeedup = std::exp(LogSum / double(Corpus.size()));
      std::printf("%-10s (%-12s) geomean tuning speedup %.3fx\n",
                  P.Name.c_str(), P.Kind.c_str(), P.GeomeanSpeedup);
      Passes.push_back(std::move(P));
    }
  }
  double ColdMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - ColdStart)
                      .count();
  std::printf("cold pass: %.1f ms\n\n", ColdMs);

  // ---- Warm pass: every (target, op) replays from the shared db. -----
  obs::MetricsSnapshot BeforeWarm = obs::metrics().snapshot();
  bool WarmViolated = false;
  {
    tune::TuningDb Db(DbPath);
    tune::Autotuner::Config Cfg;
    Cfg.Strategy = "exhaustive";
    Cfg.MaxEvaluations = Space.size() + 1;
    Cfg.Jobs = Jobs;
    Cfg.Db = &Db;
    tune::Autotuner Tuner(std::move(Cfg));
    for (const TargetPass &P : Passes) {
      PipelineOptions Base;
      Base.Target = P.Model;
      for (std::size_t I = 0; I != Corpus.size(); ++I) {
        PipelineOptions Tuned = Base;
        TunedConfig Chosen;
        Tuner.tune(Corpus[I], Tuned, Chosen);
        if (!Chosen.FromDb || Chosen.Encoding != P.Encodings[I]) {
          std::printf("FAIL %-10s %-22s warm replay diverged (from_db=%d, "
                      "'%s' vs '%s')\n",
                      P.Name.c_str(), Corpus[I].Name.c_str(),
                      Chosen.FromDb ? 1 : 0, Chosen.Encoding.c_str(),
                      P.Encodings[I].c_str());
          WarmViolated = true;
        }
      }
    }
  }
  obs::MetricsSnapshot WarmDelta = obs::metrics().snapshot().since(BeforeWarm);
  std::uint64_t WarmHits = WarmDelta.counter("tune.db_hits");
  std::uint64_t WarmSearches = WarmDelta.counter("tune.searches");
  std::size_t WantHits = Passes.size() * Corpus.size();
  std::printf("warm pass: db hits %llu/%zu, searches %llu (per-target "
              "fingerprints keep entries apart)\n\n",
              static_cast<unsigned long long>(WarmHits), WantHits,
              static_cast<unsigned long long>(WarmSearches));

  std::filesystem::remove_all(DbDir);

  // ---- Transfer matrix: tuned on A, scored on B, over B's tuned. -----
  // Cell (A, B) = geomean over ops of score_B(tuned_A) / tuned_B. Both
  // targets searched the same candidate set, so B's own winner is
  // optimal within it and every cell is >= 1; the diagonal is exactly 1.
  std::size_t N = Passes.size();
  std::vector<std::vector<double>> Transfer(N, std::vector<double>(N, 1.0));
  bool TransferViolated = false;
  for (std::size_t A = 0; A != N; ++A)
    for (std::size_t B = 0; B != N; ++B) {
      double LogSum = 0;
      for (std::size_t I = 0; I != Corpus.size(); ++I) {
        PipelineOptions Cross = Passes[A].TunedOpts[I];
        Cross.Target = Passes[B].Model;
        double CrossUs = tune::predictInflTimeUs(Corpus[I], Cross);
        double OwnUs = Passes[B].TunedUs[I];
        double Ratio = OwnUs > 0 ? CrossUs / OwnUs : 1.0;
        if (Ratio < 1 - 1e-9) {
          std::printf("FAIL transfer %s->%s beat %s's own tuned on %s "
                      "(%.3f vs %.3f us)\n",
                      Passes[A].Name.c_str(), Passes[B].Name.c_str(),
                      Passes[B].Name.c_str(), Corpus[I].Name.c_str(),
                      CrossUs, OwnUs);
          TransferViolated = true;
        }
        LogSum += std::log(Ratio);
      }
      Transfer[A][B] = std::exp(LogSum / double(Corpus.size()));
      if (A == B && std::fabs(Transfer[A][B] - 1.0) > 1e-9) {
        std::printf("FAIL transfer diagonal %s is %.9f, not 1\n",
                    Passes[A].Name.c_str(), Transfer[A][B]);
        TransferViolated = true;
      }
    }

  std::printf("transfer matrix (tuned on row, scored on column; geomean "
              "over column's own tuned):\n%-10s", "");
  for (const TargetPass &P : Passes)
    std::printf(" %9s", P.Name.c_str());
  std::printf("\n");
  for (std::size_t A = 0; A != N; ++A) {
    std::printf("%-10s", Passes[A].Name.c_str());
    for (std::size_t B = 0; B != N; ++B)
      std::printf(" %9.4f", Transfer[A][B]);
    std::printf("\n");
  }

  // ---- Different-winner gate: cpu-simd vs v100. ---------------------
  std::size_t Cpu = N, V100 = N;
  for (std::size_t I = 0; I != N; ++I) {
    if (Passes[I].Name == "cpu-simd")
      Cpu = I;
    if (Passes[I].Name == "v100")
      V100 = I;
  }
  std::vector<std::string> DifferentWinners;
  if (Cpu != N && V100 != N)
    for (std::size_t I = 0; I != Corpus.size(); ++I)
      if (Passes[Cpu].Encodings[I] != Passes[V100].Encodings[I])
        DifferentWinners.push_back(Corpus[I].Name);
  std::printf("\ncpu-simd vs v100: different tuned winner on %zu/%zu "
              "operators\n",
              DifferentWinners.size(), Corpus.size());
  for (const std::string &Op : DifferentWinners)
    std::printf("  %s\n", Op.c_str());

  // ---- Gates. -------------------------------------------------------
  int Failures = 0;
  if (NeverWorseViolated) {
    std::printf("GATE FAIL: a tuned config was worse than baseline on its "
                "own target\n");
    ++Failures;
  }
  if (Cpu == N || V100 == N || DifferentWinners.empty()) {
    std::printf("GATE FAIL: cpu-simd and v100 chose identical winners on "
                "every operator\n");
    ++Failures;
  }
  if (TransferViolated) {
    std::printf("GATE FAIL: transfer matrix inconsistent with per-target "
                "optimality\n");
    ++Failures;
  }
  if (WarmViolated || WarmHits != WantHits || WarmSearches != 0) {
    std::printf("GATE FAIL: warm pass searched instead of replaying "
                "(fingerprint aliasing?)\n");
    ++Failures;
  }
  bool Pass = Failures == 0;
  if (Pass)
    std::printf("all target matrix gates passed\n");

  if (JsonPath) {
    std::FILE *F = std::fopen(JsonPath, "w");
    if (!F) {
      std::fprintf(stderr, "cannot write %s\n", JsonPath);
      return 2;
    }
    std::fprintf(F, "{\n  \"targets\": [\n");
    for (std::size_t T = 0; T != N; ++T) {
      const TargetPass &P = Passes[T];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"kind\": \"%s\", "
                   "\"geomean_speedup\": %.6f, \"ops\": [\n",
                   P.Name.c_str(), P.Kind.c_str(), P.GeomeanSpeedup);
      for (std::size_t I = 0; I != Corpus.size(); ++I)
        std::fprintf(F,
                     "      {\"name\": \"%s\", \"baseline_us\": %.6f, "
                     "\"tuned_us\": %.6f, \"encoding\": \"%s\"}%s\n",
                     Corpus[I].Name.c_str(), P.BaselineUs[I], P.TunedUs[I],
                     P.Encodings[I].c_str(),
                     I + 1 == Corpus.size() ? "" : ",");
      std::fprintf(F, "    ]}%s\n", T + 1 == N ? "" : ",");
    }
    std::fprintf(F, "  ],\n  \"transfer\": [\n");
    for (std::size_t A = 0; A != N; ++A)
      for (std::size_t B = 0; B != N; ++B)
        std::fprintf(F,
                     "    {\"tuned_on\": \"%s\", \"scored_on\": \"%s\", "
                     "\"geomean_ratio\": %.6f}%s\n",
                     Passes[A].Name.c_str(), Passes[B].Name.c_str(),
                     Transfer[A][B],
                     A + 1 == N && B + 1 == N ? "" : ",");
    std::fprintf(F, "  ],\n  \"different_winner_ops\": [");
    for (std::size_t I = 0; I != DifferentWinners.size(); ++I)
      std::fprintf(F, "%s\"%s\"", I ? ", " : "",
                   DifferentWinners[I].c_str());
    std::fprintf(F, "],\n  \"pass\": %s\n}\n", Pass ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath);
  }
  return Pass ? 0 : 1;
}
