//===- tools/polyinject-serve.cpp - Compilation daemon CLI ----------------===//
//
// The persistent compilation service (service/Daemon.h) on stdin/stdout:
// one JSON request per input line, one JSON response per request.
//
// Usage:
//   polyinject-serve [options]
//     --workers=N              worker threads (default 2)
//     --queue-cap=N            admission queue capacity (default 64)
//     --retry-hint-ms=X        base backoff unit for shed responses
//     --cache-dir=PATH         persistent schedule cache directory
//     --cache-capacity=N       in-memory cache entries (default 256)
//     --cache-stripes=N        in-memory cache shards (default 8)
//     --memory-cap-mb=X        in-memory cache byte cap (0 = unlimited)
//     --tuning-db=FILE         tuning DB to sweep at startup
//     --drain-deadline-ms=X    graceful-drain wait (default 5000)
//     --max-pivots=N           base per-request pivot cap
//     --max-nodes=N            base per-request branch-and-bound cap
//     --deadline-ms=X          base per-request wall budget (requests
//                              with their own deadline_ms tighten it)
//     --sync                   process each line to its terminal
//                              response before reading the next
//                              (deterministic responses; protocol test)
//     --timing                 include wall_us in ok responses
//     --journal=FILE           structured event journal (JSONL)
//     --gpu=PRESET             GPU model preset (v100, a100, p100)
//     --target=NAME|FILE.ptgt  backend target: built-in name (v100,
//                              a100, p100, cpu-simd) or a calibrated
//                              .ptgt file; for GPU presets identical
//                              to --gpu (the two are mutually
//                              exclusive)
//     --chaos=SEED             run the chaos harness instead of serving
//     --chaos-requests=N       chaos request count (default 200)
//
// Request lines:
//   {"id":"k1","kernel_file":"ops/bias.pinj","deadline_ms":250}
//   {"id":"k2","kernel":"kernel ew\ntensor A 8 8\n..."}
//   {"id":"p1","op":"ping"} | {"op":"stats"} | {"op":"shutdown"}
//
// SIGINT/SIGTERM trigger a graceful drain: in-flight requests finish
// under the drain deadline, everything queued sheds with `draining`,
// and the exit code reports whether the drain was clean.
//
//===----------------------------------------------------------------------===//

#include "obs/Journal.h"
#include "service/Daemon.h"
#include "target/Target.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

using namespace pinj;

namespace {

void printUsage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--workers=N] [--queue-cap=N] [--retry-hint-ms=X] "
      "[--cache-dir=PATH] [--cache-capacity=N] [--cache-stripes=N] "
      "[--memory-cap-mb=X] [--tuning-db=FILE] [--drain-deadline-ms=X] "
      "[--max-pivots=N] [--max-nodes=N] [--deadline-ms=X] [--sync] "
      "[--timing] [--journal=FILE] [--gpu=PRESET] "
      "[--target=NAME|FILE.ptgt] [--chaos=SEED] "
      "[--chaos-requests=N]\n",
      Argv0);
}

void onSignal(int) { service::Daemon::requestStop(); }

} // namespace

int main(int Argc, char **Argv) {
  service::DaemonConfig Cfg;
  Cfg.Cache.Stripes = 8;
  std::string JournalPath;
  const char *GpuPreset = nullptr;
  const char *TargetSpec = nullptr;
  bool Chaos = false;
  std::uint64_t ChaosSeed = 0;
  std::size_t ChaosRequests = 200;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--workers=", 10) == 0) {
      Cfg.Workers = std::strtoul(Arg + 10, nullptr, 10);
    } else if (std::strncmp(Arg, "--queue-cap=", 12) == 0) {
      Cfg.Admission.QueueCapacity = std::strtoul(Arg + 12, nullptr, 10);
    } else if (std::strncmp(Arg, "--retry-hint-ms=", 16) == 0) {
      Cfg.Admission.RetryHintMs = std::strtod(Arg + 16, nullptr);
    } else if (std::strncmp(Arg, "--cache-dir=", 12) == 0) {
      Cfg.Cache.DiskDir = Arg + 12;
    } else if (std::strncmp(Arg, "--cache-capacity=", 17) == 0) {
      Cfg.Cache.Capacity = std::strtoul(Arg + 17, nullptr, 10);
    } else if (std::strncmp(Arg, "--cache-stripes=", 16) == 0) {
      Cfg.Cache.Stripes = std::strtoul(Arg + 16, nullptr, 10);
    } else if (std::strncmp(Arg, "--memory-cap-mb=", 16) == 0) {
      Cfg.Cache.MemoryCapBytes = static_cast<std::size_t>(
          std::strtod(Arg + 16, nullptr) * 1024.0 * 1024.0);
    } else if (std::strncmp(Arg, "--tuning-db=", 12) == 0) {
      Cfg.TuningDbPath = Arg + 12;
    } else if (std::strncmp(Arg, "--drain-deadline-ms=", 20) == 0) {
      Cfg.DrainDeadlineMs = std::strtod(Arg + 20, nullptr);
    } else if (std::strncmp(Arg, "--max-pivots=", 13) == 0) {
      Cfg.Admission.BaseBudget.MaxPivots =
          std::strtoull(Arg + 13, nullptr, 10);
    } else if (std::strncmp(Arg, "--max-nodes=", 12) == 0) {
      Cfg.Admission.BaseBudget.MaxIlpNodes =
          std::strtoull(Arg + 12, nullptr, 10);
    } else if (std::strncmp(Arg, "--deadline-ms=", 14) == 0) {
      Cfg.Admission.BaseBudget.WallMs = std::strtod(Arg + 14, nullptr);
    } else if (std::strcmp(Arg, "--sync") == 0) {
      Cfg.Sync = true;
    } else if (std::strcmp(Arg, "--timing") == 0) {
      Cfg.TimingInResponses = true;
    } else if (std::strncmp(Arg, "--journal=", 10) == 0) {
      JournalPath = Arg + 10;
    } else if (std::strncmp(Arg, "--gpu=", 6) == 0) {
      GpuPreset = Arg + 6;
    } else if (std::strncmp(Arg, "--target=", 9) == 0) {
      TargetSpec = Arg + 9;
    } else if (std::strncmp(Arg, "--chaos=", 8) == 0) {
      Chaos = true;
      ChaosSeed = std::strtoull(Arg + 8, nullptr, 10);
    } else if (std::strncmp(Arg, "--chaos-requests=", 17) == 0) {
      ChaosRequests = std::strtoul(Arg + 17, nullptr, 10);
    } else {
      printUsage(Argv[0]);
      return 1;
    }
  }

  if (GpuPreset && TargetSpec) {
    std::fprintf(stderr, "error: --gpu and --target are mutually "
                         "exclusive (use --target=%s)\n",
                 TargetSpec);
    return 1;
  }
  // Both flags resolve through the target registry; --gpu=PRESET is the
  // historical spelling of --target=PRESET.
  if (GpuPreset || TargetSpec) {
    const bool FromTarget = TargetSpec != nullptr;
    std::string Err;
    Cfg.Pipeline.Target =
        target::resolveTarget(FromTarget ? TargetSpec : GpuPreset, &Err);
    if (!Cfg.Pipeline.Target) {
      std::fprintf(stderr, "error: %s: %s\n",
                   FromTarget ? "--target" : "--gpu", Err.c_str());
      return 1;
    }
  }

  if (!JournalPath.empty()) {
    std::string Error;
    obs::journal().enable();
    if (!obs::journal().openFile(JournalPath, Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      return 1;
    }
  }

  if (Chaos) {
    service::ChaosReport R =
        service::runChaos(Cfg, ChaosSeed, ChaosRequests);
    std::printf("chaos: seed %llu, %zu submitted, %zu responses "
                "(%zu ok, %zu shed, %zu error, %zu other)\n",
                static_cast<unsigned long long>(ChaosSeed), R.Submitted,
                R.Responses, R.Ok, R.Shed, R.Errors, R.Other);
    for (const std::string &V : R.Violations)
      std::printf("chaos violation: %s\n", V.c_str());
    if (!JournalPath.empty())
      obs::journal().closeFile();
    if (!R.invariantHolds()) {
      std::printf("chaos: INVARIANT VIOLATED\n");
      return 1;
    }
    std::printf("chaos: invariant held (one terminal response per "
                "request)\n");
    return 0;
  }

  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  service::Daemon D(Cfg);
  const service::RecoveryReport &Rec = D.recovery();
  if (Rec.Cache.Scanned || Rec.TuningDbRejects)
    std::fprintf(stderr,
                 "recovery: %zu cache entries scanned, %zu kept, "
                 "%zu quarantined; tuning db rejects %llu\n",
                 Rec.Cache.Scanned, Rec.Cache.Kept, Rec.Cache.Quarantined,
                 static_cast<unsigned long long>(Rec.TuningDbRejects));

  int Exit = D.serve(std::cin, std::cout);

  service::DaemonStats S = D.stats();
  std::fprintf(stderr,
               "served: %llu submitted, %llu admitted, %llu completed, "
               "%llu shed (%llu expired, %llu queue_full, %llu draining), "
               "%llu parse errors, %llu responses, drain %s\n",
               static_cast<unsigned long long>(S.Submitted),
               static_cast<unsigned long long>(S.Admitted),
               static_cast<unsigned long long>(S.Completed),
               static_cast<unsigned long long>(S.shedTotal()),
               static_cast<unsigned long long>(S.ShedExpired),
               static_cast<unsigned long long>(S.ShedQueueFull),
               static_cast<unsigned long long>(S.ShedDraining),
               static_cast<unsigned long long>(S.ParseErrors),
               static_cast<unsigned long long>(S.Responses),
               D.cleanDrain() ? "clean" : "timed out");
  if (!JournalPath.empty())
    obs::journal().closeFile();
  return Exit;
}
