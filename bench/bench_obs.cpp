//===- bench/bench_obs.cpp - Observability overhead gate ------------------===//
//
// Measures what always-on observability costs: the factory corpus is
// compiled repeatedly with the journal + file sink + periodic exposition
// writer fully enabled and fully disabled, interleaved so machine drift
// hits both sides equally, and the smaller of two noise-robust ratio
// estimates is compared against the allowed overhead (default 5%) — the
// contract that lets a fleet leave the journal on in production.
//
//   bench_obs [--reps=N] [--ops=N] [--max-overhead-pct=X] [--json=FILE]
//
// The JSON artifact records every sample plus the medians and verdict,
// so CI can archive the trajectory.
//
//===----------------------------------------------------------------------===//

#include "obs/Exposition.h"
#include "obs/Journal.h"
#include "ops/OpFactory.h"
#include "service/BatchCompiler.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <vector>

using namespace pinj;

namespace {

double nowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N == 0 ? 0
         : N % 2 ? V[N / 2]
                 : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double minimum(const std::vector<double> &V) {
  return V.empty() ? 0 : *std::min_element(V.begin(), V.end());
}

/// One timed sample: several corpus compilations back to back (single
/// worker: the gate measures per-event cost, not pool contention). A
/// single pass is ~100 ms, short enough that scheduler noise on a
/// shared core rivals the overhead being measured; several passes per
/// sample average the bursts out.
double runOnceMs(const std::vector<service::BatchJob> &Jobs) {
  constexpr unsigned Passes = 6;
  PipelineOptions Options;
  service::BatchCompiler Compiler(Options, 1);
  double Start = nowMs();
  for (unsigned P = 0; P != Passes; ++P)
    (void)Compiler.run(Jobs);
  return nowMs() - Start;
}

std::string jsonArray(const std::vector<double> &V) {
  std::string Out = "[";
  for (std::size_t I = 0; I != V.size(); ++I) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%s%.3f", I ? "," : "", V[I]);
    Out += Buf;
  }
  return Out + "]";
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Reps = 11;
  unsigned Limit = 0;
  double MaxOverheadPct = 5.0;
  std::string JsonPath;
  for (int I = 1; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--reps=", 7) == 0)
      Reps = static_cast<unsigned>(std::strtoul(Argv[I] + 7, nullptr, 10));
    else if (std::strncmp(Argv[I], "--ops=", 6) == 0)
      Limit = static_cast<unsigned>(std::strtoul(Argv[I] + 6, nullptr, 10));
    else if (std::strncmp(Argv[I], "--max-overhead-pct=", 19) == 0)
      MaxOverheadPct = std::strtod(Argv[I] + 19, nullptr);
    else if (std::strncmp(Argv[I], "--json=", 7) == 0)
      JsonPath = Argv[I] + 7;
  }
  if (Reps == 0)
    Reps = 1;

  // The whole corpus keeps each timed rep large enough that the noise
  // floor of a shared machine stays well under the budget measured.
  std::vector<service::BatchJob> Jobs;
  for (Kernel &K : makeCorpus(Limit))
    Jobs.push_back(service::BatchJob{std::move(K)});
  std::printf("observability overhead gate: %zu operators, %u reps, "
              "%.1f%% budget\n\n",
              Jobs.size(), Reps, MaxOverheadPct);

  namespace fs = std::filesystem;
  fs::path Scratch =
      fs::temp_directory_path() / "polyinject_bench_obs";
  std::error_code Ec;
  fs::remove_all(Scratch, Ec);
  fs::create_directories(Scratch, Ec);
  const std::string JournalPath = (Scratch / "journal.jsonl").string();
  const std::string ExpoPath = (Scratch / "metrics.prom").string();

  // Warm-up: populate allocator pools and code caches outside the
  // measurement so the first measured rep is not special (two rounds:
  // the first reps otherwise still ride the frequency/cache ramp).
  (void)runOnceMs(Jobs);
  (void)runOnceMs(Jobs);

  // One full measurement: interleaved off/on samples, alternating the
  // order each rep so slow thermal/frequency drift cancels from the
  // comparison. A burst on a shared core only ever *adds* time, so the
  // two ratio estimates computed afterwards are both biased upward,
  // each with a different breakdown mode, and the gate takes the
  // smaller:
  //  * ratio of per-side minima: exact when each side caught at least
  //    one clean rep; breaks when every rep of one side was hit.
  //  * median of per-rep on/off ratios: drift-immune (the two sides of
  //    a rep run back to back); breaks when bursts contaminate more
  //    than half the reps.
  // A real regression inflates both, so min() still catches it. An
  // attempt that still exceeds the budget is remeasured from scratch
  // (bounded retries): noise rarely survives three independent
  // measurements, a real regression always does.
  std::vector<double> OffMs, OnMs;
  double MedOff = 0, MedOn = 0, MinOff = 0, MinOn = 0;
  double MinRatioPct = 0, MedianRatioPct = 0, OverheadPct = 0;
  bool Pass = false;
  constexpr unsigned MaxAttempts = 3;
  for (unsigned Attempt = 0; Attempt != MaxAttempts && !Pass; ++Attempt) {
    OffMs.clear();
    OnMs.clear();
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      auto MeasureOff = [&]() {
        obs::Journal::get().disable();
        obs::Journal::get().closeFile();
        OffMs.push_back(runOnceMs(Jobs));
      };
      auto MeasureOn = [&]() {
        std::string Error;
        obs::Journal::get().enable();
        if (!obs::Journal::get().openFile(JournalPath, Error)) {
          std::fprintf(stderr, "error: %s\n", Error.c_str());
          return;
        }
        obs::ExpositionWriter Writer;
        // A production-shaped scrape cadence: frequent enough that
        // every rep sees periodic writes, far from the pathological
        // every-scheduler-quantum end.
        Writer.start(ExpoPath, /*IntervalMs=*/100);
        OnMs.push_back(runOnceMs(Jobs));
        Writer.stop();
        obs::Journal::get().closeFile();
        obs::Journal::get().disable();
        obs::Journal::get().reset();
      };
      if (Rep % 2 == 0) {
        MeasureOff();
        MeasureOn();
      } else {
        MeasureOn();
        MeasureOff();
      }
    }

    MedOff = median(OffMs);
    MedOn = median(OnMs);
    MinOff = minimum(OffMs);
    MinOn = minimum(OnMs);
    std::vector<double> Ratios;
    for (std::size_t I = 0; I != OffMs.size() && I != OnMs.size(); ++I)
      if (OffMs[I] > 0)
        Ratios.push_back(OnMs[I] / OffMs[I]);
    MinRatioPct = MinOff > 0 ? 100.0 * (MinOn / MinOff - 1.0) : 0.0;
    MedianRatioPct = 100.0 * (median(Ratios) - 1.0);
    OverheadPct = std::min(MinRatioPct, MedianRatioPct);
    Pass = OverheadPct <= MaxOverheadPct;

    std::printf("attempt %u/%u:\n", Attempt + 1, MaxAttempts);
    std::printf("  off: min %8.1f ms  median %8.1f ms  %s\n", MinOff,
                MedOff, jsonArray(OffMs).c_str());
    std::printf("  on:  min %8.1f ms  median %8.1f ms  %s\n", MinOn,
                MedOn, jsonArray(OnMs).c_str());
    std::printf("  overhead %+.2f%% (min of ratio-of-minima %+.2f%% and "
                "median per-rep ratio %+.2f%%) — %s the %.1f%% budget\n\n",
                OverheadPct, MinRatioPct, MedianRatioPct,
                Pass ? "within" : "EXCEEDS", MaxOverheadPct);
  }

  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    char Buf[512];
    std::snprintf(Buf, sizeof(Buf),
                  "{\"reps\":%u,\"operators\":%zu,"
                  "\"min_off_ms\":%.3f,\"min_on_ms\":%.3f,"
                  "\"median_off_ms\":%.3f,\"median_on_ms\":%.3f,"
                  "\"min_ratio_pct\":%.3f,\"median_ratio_pct\":%.3f,"
                  "\"overhead_pct\":%.3f,\"max_overhead_pct\":%.3f,"
                  "\"pass\":%s,",
                  Reps, Jobs.size(), MinOff, MinOn, MedOff, MedOn,
                  MinRatioPct, MedianRatioPct, OverheadPct,
                  MaxOverheadPct, Pass ? "true" : "false");
    Out << Buf << "\"off_ms\":" << jsonArray(OffMs)
        << ",\"on_ms\":" << jsonArray(OnMs) << "}\n";
  }

  fs::remove_all(Scratch, Ec);
  return Pass ? 0 : 1;
}
