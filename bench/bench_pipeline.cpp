//===- bench/bench_pipeline.cpp - Per-layer compile-cost ledger -----------===//
//
// Three serial passes over the corpus: cold (no cache), warm (a fresh
// ScheduleCache per round over a directory filled once, so every lookup
// is a disk hit) and tune (greedy/64, a fresh tuning database per
// round). Per pass: the wall time of 10 rounds after a discarded warm-up,
// with tracing off; each layer's total and self time over 10 traced
// rounds (obs::foldSpans), all with their noise floor (sd / mean); and
// the work, every nonzero counter, histogram count and span count, which
// every round must repeat exactly. A fourth pass, journal, compiles the
// cold corpus with the journal, its file sink and an exposition writer
// on; it must do the cold pass's work and drop no record, and its cost
// is estimated, not timed: records x the cost of one emit + 10 renders/s
// x the cost of one exposition render, over the cold pass's wall time.
// Both modes fail above the 5% budget. Then the wall time of the cold
// corpus through service::BatchCompiler at 1, 2, 4 and 8 workers, each
// of which must do the cold pass's work.
//
//   bench_pipeline [--json=FILE]  measure, print, write the ledger
//   bench_pipeline --check=FILE   run each pass once; exit 1 unless the
//                                 work equals FILE's (wall not gated)
//                                 and the journal is within budget
//
//===----------------------------------------------------------------------===//

#include "obs/Exposition.h"
#include "obs/Journal.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "ops/OpFactory.h"
#include "service/BatchCompiler.h"
#include "service/Cache.h"
#include "support/TextFile.h"
#include "tune/Autotuner.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <optional>
#include <thread>
#include <unistd.h>
#include <variant>

using namespace pinj;
using obs::json::number;

namespace {

constexpr unsigned Rounds = 10;
/// The journal's cost contract: fully on, it may cost this share of the
/// cold pass's wall time.
constexpr double JournalBudgetPct = 5;
/// A production scrape cadence for the journal pass's exposition writer.
constexpr unsigned ExpositionIntervalMs = 100;

/// The ledger's temp directory, removed on exit: the warm pass's cache
/// directory and the journal pass's sinks.
const std::filesystem::path Scratch =
    std::filesystem::temp_directory_path() /
    ("bench_pipeline-" + std::to_string(::getpid()));

using Counts = std::map<std::string, std::uint64_t>;
using Work = std::map<std::string, Counts>;

struct Pass {
  std::string Name;
  std::function<void()> Compile;
  bool Journaled = false; ///< Compile under JournalOn.
};

/// One round of a pass. Work maps "counters", "histogram_counts" and
/// (traced rounds only) "span_counts" to their nonzero entries, and
/// (journaled rounds only) "journal_records" to the record count per
/// type plus "dropped", the journal's drop count, even when 0.
struct Round {
  double WallMs = 0;
  Work Did;
  std::map<std::string, obs::SpanLayer> Layers;
  std::vector<obs::JournalRecord> Records; ///< Journaled rounds only.
};

/// For its lifetime, turns on what a fleet leaves on: the journal (its
/// ring emptied first) with a file sink, and an exposition writer.
class JournalOn {
public:
  JournalOn() {
    obs::Journal &J = obs::journal();
    std::string Error;
    J.reset();
    J.enable();
    if (!J.openFile((Scratch / "journal.jsonl").string(), Error)) {
      std::fprintf(stderr, "error: %s\n", Error.c_str());
      std::exit(1);
    }
    Writer.start((Scratch / "metrics.prom").string(), ExpositionIntervalMs);
  }
  JournalOn(const JournalOn &) = delete;
  JournalOn &operator=(const JournalOn &) = delete;
  ~JournalOn() {
    Writer.stop();
    obs::journal().closeFile();
    obs::journal().disable();
  }

private:
  obs::ExpositionWriter Writer;
};

Round runRound(const Pass &P, bool Traced) {
  obs::Tracer &T = obs::tracer();
  T.reset();
  if (Traced)
    T.enable(obs::Tracer::Json);
  std::optional<JournalOn> On;
  if (P.Journaled)
    On.emplace();
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  auto Start = std::chrono::steady_clock::now();
  P.Compile();
  std::chrono::duration<double, std::milli> Wall =
      std::chrono::steady_clock::now() - Start;
  obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
  On.reset();
  T.disable();

  Round R;
  R.WallMs = Wall.count();
  Counts &C = R.Did["counters"], &H = R.Did["histogram_counts"];
  for (const auto &[Name, Value] : Delta.Counters)
    if (Value)
      C[Name] = Value;
  for (const auto &[Name, Hist] : Delta.Histograms)
    if (Hist.Count)
      H[Name] = Hist.Count;
  if (Traced) {
    R.Layers = obs::foldSpans(T.events());
    for (const auto &[Name, L] : R.Layers)
      R.Did["span_counts"][Name] = L.Count;
  }
  if (P.Journaled) {
    R.Records = obs::journal().snapshot();
    Counts &J = R.Did["journal_records"];
    J["dropped"] = obs::journal().dropped();
    for (const obs::JournalRecord &Rec : R.Records)
      ++J[Rec.Type];
  }
  return R;
}

std::vector<Round> runRounds(const Pass &P, bool Traced, unsigned N) {
  std::vector<Round> Out;
  for (unsigned I = 0; I != N; ++I)
    Out.push_back(runRound(P, Traced));
  return Out;
}

/// \returns whether every round of \p Rs did \p Want's work in each
/// table both count (an untraced round has no span counts, an unjournaled
/// pass no records); says so on stderr when not.
bool didWork(const std::string &Name, const std::vector<Round> &Rs,
             const Work &Want) {
  for (const Round &R : Rs)
    for (const auto &[Table, C] : R.Did)
      if (auto It = Want.find(Table); It != Want.end() && C != It->second) {
        std::fprintf(stderr, "error: %s: the rounds did different work\n",
                     Name.c_str());
        return false;
      }
  return true;
}

struct Spread {
  double Mean = 0, Sd = 0;
  double floorPct() const { return Mean > 0 ? 100 * Sd / Mean : 0; }
};

Spread spreadOf(const std::vector<double> &V) {
  Spread S;
  for (double X : V)
    S.Mean += X / V.size();
  for (double X : V)
    S.Sd += (X - S.Mean) * (X - S.Mean);
  S.Sd = V.size() > 1 ? std::sqrt(S.Sd / (V.size() - 1)) : 0;
  return S;
}

/// The wall time of \p Timed without its first (warm-up) round, printed
/// after \p Label and returned as a `"wall_ms"` JSON member.
std::string wallOf(const std::vector<Round> &Timed, const std::string &Label,
                   Spread &Wall) {
  std::vector<double> WallMs;
  for (unsigned I = 1; I != Timed.size(); ++I)
    WallMs.push_back(Timed[I].WallMs);
  Wall = spreadOf(WallMs);
  std::printf("%-6s wall %8.2f ms  sd %6.2f ms  noise floor %4.1f%%",
              Label.c_str(), Wall.Mean, Wall.Sd, Wall.floorPct());
  return "\"wall_ms\": {\"mean\": " + number(Wall.Mean) +
         ", \"sd\": " + number(Wall.Sd) + "}";
}

/// `"Key": {` with one `"name": value` line per row, at pass indent.
std::string jsonTable(const std::string &Key,
                      const std::map<std::string, std::string> &Rows) {
  std::string Out = ",\n      \"" + Key + "\": {";
  const char *Sep = "\n";
  for (const auto &[Name, Value] : Rows) {
    Out += Sep + ("        \"" + obs::json::escape(Name) + "\": " + Value);
    Sep = ",\n";
  }
  return Out + "\n      }";
}

/// One jsonTable per table of \p Did.
std::string jsonWork(const Work &Did) {
  std::string Out;
  for (const auto &[Table, C] : Did) {
    std::map<std::string, std::string> Rows;
    for (const auto &[Name, Value] : C)
      Rows[Name] = std::to_string(Value);
    Out += jsonTable(Table, Rows);
  }
  return Out;
}

/// The least over 5 runs of the mean time of a call, in us, when
/// \p Call runs \p N times in a row.
template <typename F> double bestOf5Us(unsigned N, F Call) {
  double Best = INFINITY;
  for (unsigned Run = 0; Run != 5; ++Run) {
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I != N; ++I)
      Call(I);
    std::chrono::duration<double, std::micro> Us =
        std::chrono::steady_clock::now() - Start;
    Best = std::min(Best, Us.count() / N);
  }
  return Best;
}

/// A journal record as its emit site built it: each field with the type
/// it was given, recovered from its rendering.
struct TypedRecord {
  using Value = std::variant<std::string, bool, long long, double>;
  std::string Type;
  std::vector<std::pair<std::string, Value>> Fields;
};

TypedRecord typed(const obs::JournalRecord &R) {
  TypedRecord T{R.Type, {}};
  for (const obs::JournalField &F : R.Fields) {
    char *End = nullptr;
    long long Int = std::strtoll(F.Value.c_str(), &End, 10);
    TypedRecord::Value V = Int;
    if (F.IsString)
      V = F.Value;
    else if (F.Value == "true" || F.Value == "false")
      V = F.Value == "true";
    else if (*End)
      V = std::strtod(F.Value.c_str(), nullptr);
    T.Fields.push_back({F.Key, std::move(V)});
  }
  return T;
}

/// What the journal pass costs, estimated from its parts.
struct JournalCost {
  std::size_t Records = 0;
  double RecordUs = 0; ///< One emit, with the file sink on.
  double RenderUs = 0; ///< One exposition render and atomic write.
  double ColdMs = 0;   ///< The cold pass's wall time.

  static constexpr double RendersPerS = 1000.0 / ExpositionIntervalMs;
  double pct() const {
    return 100 * (Records * RecordUs + ColdMs / 1000 * RendersPerS * RenderUs) /
           (ColdMs * 1000);
  }
  /// Prints the estimate with its inputs; \returns whether it is within
  /// the budget.
  bool print() const {
    std::printf("journal overhead %.2f%% = (%zu records x %.2f us + %g "
                "renders/s x %.1f us) / cold %.2f ms: %s the %g%% budget\n",
                pct(), Records, RecordUs, RendersPerS, RenderUs, ColdMs,
                pct() <= JournalBudgetPct ? "within" : "EXCEEDS",
                JournalBudgetPct);
    return pct() <= JournalBudgetPct;
  }
};

/// Estimates what journaling \p Records, captured from one journal pass
/// round, costs over a cold pass of \p ColdMs: re-emits them through
/// obs::JournalEvent under JournalOn (at least 100k emits per run), and
/// renders and writes the exposition 100 times per run.
JournalCost journalCost(const std::vector<obs::JournalRecord> &Records,
                        double ColdMs) {
  JournalCost C;
  C.Records = Records.size();
  C.ColdMs = ColdMs;
  if (!Records.empty()) {
    std::vector<TypedRecord> Typed;
    for (const obs::JournalRecord &R : Records)
      Typed.push_back(typed(R));
    unsigned Emits = (100000 + Typed.size() - 1) / Typed.size() * Typed.size();
    JournalOn On;
    obs::RequestScope Scope(obs::nextRequestId());
    C.RecordUs = bestOf5Us(Emits, [&Typed](unsigned I) {
      const TypedRecord &R = Typed[I % Typed.size()];
      obs::JournalEvent E(R.Type.c_str());
      for (const auto &[Key, Value] : R.Fields)
        std::visit([&E, K = Key.c_str()](const auto &V) { E.field(K, V); },
                   Value);
    });
  }
  obs::journal().reset();
  const std::string Path = (Scratch / "metrics.prom").string();
  C.RenderUs = bestOf5Us(100, [&Path](unsigned) {
    writeFileAtomic(Path, obs::metrics().renderExposition(), nullptr);
  });
  return C;
}

/// Runs the journaled pass \p P, which must repeat \p Cold's work and
/// drop no record, estimates its cost over a cold pass of \p ColdMs,
/// prints both and appends them to \p Json. Fails above the budget too.
bool measureJournal(const Pass &P, const Work &Cold, double ColdMs,
                    std::string &Json) {
  std::vector<Round> Traced = runRounds(P, true, Rounds);
  const Work &Did = Traced.front().Did;
  if (!didWork(P.Name, Traced, Did) || !didWork(P.Name, Traced, Cold))
    return false;
  const Counts &Records = Did.at("journal_records");
  if (Records.at("dropped")) {
    std::fprintf(stderr, "error: %s: the journal dropped records\n",
                 P.Name.c_str());
    return false;
  }
  JournalCost C = journalCost(Traced.back().Records, ColdMs);
  bool Within = C.print();
  Json += "    \"" + P.Name + "\": {\n      \"overhead\": {\"pct\": " +
          number(C.pct()) + ", \"budget_pct\": " + number(JournalBudgetPct) +
          ", \"records\": " + std::to_string(C.Records) +
          ", \"record_us\": " + number(C.RecordUs) +
          ", \"renders_per_s\": " + number(JournalCost::RendersPerS) +
          ", \"render_us\": " + number(C.RenderUs) +
          ", \"cold_wall_ms\": " + number(C.ColdMs) + "}";
  Json += jsonWork(Did) + "\n    }";
  std::printf("\n");
  return Within;
}

/// Measures \p P, prints its ledger and appends it to \p Json; \p Did
/// receives its work and \p Wall its wall time. Fails when two rounds
/// did different work.
bool measure(const Pass &P, std::string &Json, Work &Did, Spread &Wall) {
  std::vector<Round> Timed = runRounds(P, false, Rounds + 1),
                     Traced = runRounds(P, true, Rounds);
  Did = Traced.front().Did;
  if (!didWork(P.Name, Timed, Did) || !didWork(P.Name, Traced, Did))
    return false;

  Json += "    \"" + P.Name + "\": {\n      " + wallOf(Timed, P.Name, Wall);
  std::printf("\n  %-24s %7s %10s %10s %12s\n", "layer", "spans",
              "total ms", "self ms", "noise floor");
  std::map<std::string, std::string> Layers;
  for (const auto &[Name, Count] : Did.at("span_counts")) {
    std::vector<double> TotalMs, SelfMs;
    for (const Round &R : Traced) {
      TotalMs.push_back(R.Layers.at(Name).TotalUs / 1000);
      SelfMs.push_back(R.Layers.at(Name).SelfUs / 1000);
    }
    Spread Total = spreadOf(TotalMs), Self = spreadOf(SelfMs);
    std::printf("  %-24s %7llu %10.2f %10.2f %11.1f%%\n", Name.c_str(),
                static_cast<unsigned long long>(Count), Total.Mean,
                Self.Mean, Self.floorPct());
    Layers[Name] = "{\"total_ms\": " + number(Total.Mean) +
                   ", \"self_ms\": " + number(Self.Mean) +
                   ", \"self_sd_ms\": " + number(Self.Sd) + "}";
  }
  Json += jsonTable("layers", Layers);
  Json += jsonWork(Did) + "\n    }";
  std::printf("\n");
  return true;
}

/// Measures every pass, then the cold corpus at 1/2/4/8 BatchCompiler
/// workers, and writes the ledger to \p Path unless it is empty.
int writeLedger(const std::vector<Pass> &Passes,
                const std::vector<Kernel> &Corpus, const std::string &Path) {
  std::printf("pipeline ledger: %zu operators; per pass 1 warm-up, %u "
              "timed and %u traced rounds (journaled: traced only)\n\n",
              Corpus.size(), Rounds, Rounds);
  std::string Json =
      "{\n  \"rounds\": " + std::to_string(Rounds) + ",\n  \"passes\": {\n";
  Work Cold, Did;
  Spread ColdWall, Wall;
  for (const Pass &P : Passes) {
    bool First = &P == &Passes.front();
    if (P.Journaled ? !measureJournal(P, Cold, ColdWall.Mean, Json)
                    : !measure(P, Json, First ? Cold : Did,
                               First ? ColdWall : Wall))
      return 1;
    Json += &P == &Passes.back() ? "\n  },\n  \"workers\": {" : ",\n";
  }

  std::printf("workers: the cold corpus through BatchCompiler, %u "
              "hardware threads\n",
              std::thread::hardware_concurrency());
  std::vector<service::BatchJob> Jobs(Corpus.begin(), Corpus.end());
  double Jobs1Ms = 0;
  for (unsigned W : {1u, 2u, 4u, 8u}) {
    Pass P{"jobs=" + std::to_string(W), [&Jobs, W] {
             (void)service::BatchCompiler(PipelineOptions(), W).run(Jobs);
           }};
    std::vector<Round> Timed = runRounds(P, false, Rounds + 1);
    if (!didWork(P.Name, Timed, Cold))
      return 1;
    Spread Wall;
    Json += std::string(W == 1 ? "\n" : ",\n") + "    \"" +
            std::to_string(W) + "\": {" + wallOf(Timed, P.Name, Wall) + "}";
    Jobs1Ms = W == 1 ? Wall.Mean : Jobs1Ms;
    std::printf("  %4.2fx vs jobs=1\n", Jobs1Ms / Wall.Mean);
  }
  Json += "\n  }\n}\n";
  std::string Error;
  if (!Path.empty() && !writeFileAtomic(Path, Json, &Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  return 0;
}

/// Runs each pass once and prints every count that differs from the
/// ledger at \p Path. Both sides hold only nonzero counts (and the
/// journal's drop count), so a name or a whole table on one side only
/// reads as 0 on the other and differs. Estimates the journaled pass's
/// cost over an untraced cold round. \returns 1 when any count differs
/// or the journal exceeds its budget.
int check(const std::vector<Pass> &Passes, const std::string &Path) {
  std::string Text, Error;
  std::optional<obs::json::Value> Doc;
  if (!readFile(Path, Text) || !(Doc = obs::json::parse(Text, Error))) {
    std::fprintf(stderr, "error: cannot read %s %s\n", Path.c_str(),
                 Error.c_str());
    return 1;
  }
  unsigned Diffs = 0;
  bool Within = true;
  double ColdMs = runRound(Passes.front(), /*Traced=*/false).WallMs;
  for (const Pass &P : Passes) {
    Round R = runRound(P, /*Traced=*/true);
    const obs::json::Value &Ledger = Doc->at("passes").at(P.Name);
    unsigned Before = Diffs;
    for (const char *Table : {"counters", "histogram_counts", "span_counts",
                              "journal_records"}) {
      Counts Want, &Got = R.Did[Table], Names = Got;
      for (const auto &[Name, V] : Ledger.at(Table).Members)
        Names[Name] = Want[Name] = V.Num;
      for (const auto &Entry : Names)
        if (Want[Entry.first] != Got[Entry.first] && ++Diffs)
          std::printf("  %s %s %s: ledger %llu, run %llu\n", P.Name.c_str(),
                      Table, Entry.first.c_str(),
                      static_cast<unsigned long long>(Want[Entry.first]),
                      static_cast<unsigned long long>(Got[Entry.first]));
    }
    const char *Verdict = Diffs > Before ? "DIFFERS" : "exact";
    if (P.Journaled) {
      std::printf("%-7s work %s; ", P.Name.c_str(), Verdict);
      Within &= journalCost(R.Records, ColdMs).print();
    } else {
      std::printf("%-7s wall %.2f ms traced (not gated): work %s\n",
                  P.Name.c_str(), R.WallMs, Verdict);
    }
  }
  return Diffs || !Within ? 1 : 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string JsonPath, CheckPath;
  for (int I = 1; I != Argc; ++I) {
    if (std::strncmp(Argv[I], "--json=", 7) == 0 && Argv[I][7] &&
        CheckPath.empty()) {
      JsonPath = Argv[I] + 7;
    } else if (std::strncmp(Argv[I], "--check=", 8) == 0 && Argv[I][8] &&
               JsonPath.empty()) {
      CheckPath = Argv[I] + 8;
    } else {
      std::fprintf(stderr, "usage: %s [--json=FILE | --check=FILE]\n",
                   Argv[0]);
      return 2;
    }
  }

  std::vector<Kernel> Corpus = makeCorpus();
  auto CompileAll = [&Corpus](const PipelineOptions &O) {
    for (const Kernel &K : Corpus)
      (void)runOperator(K, O);
  };
  std::error_code Ec;
  std::filesystem::create_directories(Scratch, Ec);
  service::ScheduleCache::Config Disk;
  Disk.DiskDir = (Scratch / "cache").string();
  auto CompileWithCache = [&] {
    service::ScheduleCache Cache(Disk); // Empty in memory.
    PipelineOptions O;
    O.Cache = &Cache;
    CompileAll(O);
  };
  CompileWithCache(); // Fills the directory: every warm lookup hits there.
  const std::vector<Pass> Passes = {
      {"cold", [&] { CompileAll(PipelineOptions()); }},
      {"warm", CompileWithCache},
      {"tune", [&] {
         tune::TuningDb Db;
         tune::Autotuner::Config C;
         C.Strategy = "greedy";
         C.MaxEvaluations = 64;
         C.Db = &Db;
         tune::Autotuner Tuner(C);
         PipelineOptions O;
         O.Tuner = &Tuner;
         CompileAll(O);
       }},
      {"journal", [&] { CompileAll(PipelineOptions()); }, true}};
  int Status = CheckPath.empty() ? writeLedger(Passes, Corpus, JsonPath)
                                 : check(Passes, CheckPath);
  std::filesystem::remove_all(Scratch, Ec);
  return Status;
}
