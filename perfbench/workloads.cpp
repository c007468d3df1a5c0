//===- perfbench/workloads.cpp --------------------------------------------===//
//
// The three workloads and the per-layer ledger. Every layer time comes
// from a span the benchmark records around a call it makes into the
// layer's public function; every work count comes from obs::metrics()
// counter deltas taken around the same calls. Nothing inside src/ is
// instrumented for this.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "baselines/TvmProxy.h"
#include "codegen/Ast.h"
#include "codegen/Mapping.h"
#include "codegen/Vectorizer.h"
#include "exec/Interpreter.h"
#include "influence/TreeBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "obs/Json.h"
#include "obs/Metrics.h"
#include "ops/OpFactory.h"
#include "pipeline/Pipeline.h"
#include "poly/Dependence.h"
#include "sched/Scheduler.h"
#include "service/Cache.h"
#include "service/Daemon.h"
#include "service/Fingerprint.h"
#include "support/Status.h"
#include "target/Target.h"
#include "tune/Autotuner.h"
#include "tune/Evaluator.h"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sched.h>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

using namespace pinj;
using namespace perfbench;

namespace {

//===----------------------------------------------------------------------===//
// Workload constants. Fixed here, never derived from the code under test.
//===----------------------------------------------------------------------===//

/// Seeded op-factory operators added to the 22-operator corpus: four
/// whole blocks of the nine families (see drawKernel).
constexpr std::size_t CompileDrawn = 36;
/// Distinct kernels the serve stream draws from (the corpus and four
/// drawn blocks); more than the cache holds, so misses, stores and
/// evictions go on beside hits.
constexpr std::size_t ServePool = 58;
/// The pool is the same for every run, so seeds vary only the stream:
/// which kernels are drawn hot or cold then does not swing the figures.
constexpr std::uint64_t ServePoolSeed = 2022;
constexpr std::size_t ServeCacheCapacity = 24;
constexpr std::size_t ServeWorkers = 3;
constexpr double ServeZipfS = 1.0;
/// The offered rate the serve latency metrics are reported at.
constexpr double ServeReferenceRps = 300;
/// The rate ladder searched for the highest sustainable rate.
constexpr double ServeLadderRps[] = {700,  800,  900,  1000,
                                     1100, 1200, 1400, 1600};
/// The p99 latency limit a sustainable rate must meet.
constexpr double ServeLimitMs = 50;
/// Requests of the traced serve stream replayed through the cache hook.
constexpr std::size_t ServeReplayRequests = 600;
/// The autotuner the tune workload runs.
constexpr const char *TuneStrategy = "greedy";
constexpr std::size_t TuneBudget = 64;
/// Set-up repetitions; setup_s is their median.
constexpr int SetupRepeats = 5;

using Counts = std::map<std::string, std::uint64_t>;

Counts counterValues() { return obs::metrics().snapshot().Counters; }

Counts counterDelta(const Counts &Before, const Counts &After) {
  Counts D;
  for (const auto &[Name, V] : After) {
    auto It = Before.find(Name);
    std::uint64_t B = It == Before.end() ? 0 : It->second;
    if (V != B)
      D[Name] = V - B;
  }
  return D;
}

/// Closes a span and attaches the counter deltas across it.
struct SpanCloser {
  Ledger *L;
  int Index;
  Counts Before;
  ~SpanCloser() {
    L->end(Index);
    L->setCounters(Index, counterDelta(Before, counterValues()));
  }
};

/// Runs \p F, recorded as span \p Name of operation \p Op when \p L is
/// set. The counter snapshots sit outside the timed interval.
template <typename Fn>
decltype(auto) traced(Ledger *L, const char *Name, std::uint64_t Op,
                      Fn &&F) {
  if (!L)
    return F();
  Counts Before = counterValues();
  SpanCloser Close{L, L->begin(Name, Op), std::move(Before)};
  return F();
}

double median(const std::vector<double> &V) { return percentile(V, 50); }

double secondsSince(double StartUs) { return (nowUs() - StartUs) / 1e6; }

//===----------------------------------------------------------------------===//
// Inputs
//===----------------------------------------------------------------------===//

/// One operator as the program receives it: generated .pinj text.
struct Op {
  std::string Name;
  std::string Text;
};

std::string readFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  if (!In)
    throw std::runtime_error("cannot read " + P.string());
  std::ostringstream S;
  S << In.rdbuf();
  return S.str();
}

/// The 22-operator corpus listed in tools/kernels/corpus.txt.
std::vector<Op> corpusOps(const std::string &Root) {
  std::filesystem::path Dir = std::filesystem::path(Root) / "tools/kernels";
  std::istringstream List(readFile(Dir / "corpus.txt"));
  std::vector<Op> Ops;
  for (std::string Line; std::getline(List, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    Ops.push_back({Line, readFile(Dir / Line)});
  }
  if (Ops.empty())
    throw std::runtime_error("empty operator corpus");
  return Ops;
}

/// Drawn operators come in blocks of one per op-factory family; block
/// L uses shape level L for every family, and the chain family takes
/// one length per level in a seeded order. A draw of whole blocks thus
/// holds the same mix of families, sizes and chain lengths for every
/// seed: the seed changes op kinds, orientation and pairing, not how
/// much work the draw is, so it does not swing the figures.
constexpr std::size_t Families = 9;
constexpr std::size_t Levels = 4;

/// Operator \p Index of a draw; \p ChainLength is the seeded length
/// order of the chain family.
Kernel drawKernel(Rng &R, std::size_t Index,
                  const std::vector<unsigned> &ChainLength) {
  // Per level: 2D extents of equal area, 3D extents of equal volume.
  static const Int Rows[Levels] = {32, 48, 64, 96};
  static const Int Cols[Levels] = {96, 64, 48, 32};
  static const Int C3[Levels] = {4, 8, 12, 16}, H3[Levels] = {32, 16, 16, 12},
                   W3[Levels] = {48, 48, 32, 32};
  static const Int Square[Levels] = {32, 40, 48, 56};
  std::size_t L = (Index / Families) % Levels;
  std::string Name = "drawn_" + std::to_string(Index);
  unsigned S = 1 + static_cast<unsigned>(R.below(9));
  bool Swap = R.below(2);
  Int H = Swap ? Cols[L] : Rows[L], W = Swap ? Rows[L] : Cols[L];
  switch (Index % Families) {
  case 0: {
    Kernel K = makeFusedMulSubMulTensorAdd(Square[L]);
    K.Name = Name;
    return K;
  }
  case 1:
    return makeElementwiseChain(Name, H, W, ChainLength[L], S);
  case 2:
    return makeBiasActivation(Name, H, W, S);
  case 3:
    return makeHostileOrderCopy(Name, H, W, S);
  case 4:
    return makeHostileOrderPermute3D(Name, C3[L], H3[L], W3[L], S);
  case 5:
    return makeMiddlePermuted3D(Name, C3[L], H3[L], W3[L], S);
  case 6:
    return makeReduceTail(Name, H, W, S);
  case 7:
    return makeSoftmaxLike(Name, H, W);
  default:
    return makeProducerConsumerPair(Name, H, W, S);
  }
}

/// \p N operators drawn with \p R (see drawKernel), distinct from each
/// other and from \p Existing by request fingerprint, printed to .pinj
/// text.
std::vector<Op> drawnOps(Rng &R, std::size_t N,
                         const std::vector<Op> &Existing) {
  PipelineOptions Defaults;
  std::set<service::Fingerprint> Seen;
  for (const Op &O : Existing) {
    std::string Error;
    if (std::optional<Kernel> K = parseKernel(O.Text, Error))
      Seen.insert(service::fingerprintRequest(*K, Defaults));
  }
  std::vector<unsigned> ChainLength = {2, 3, 4, 5};
  for (std::size_t I = ChainLength.size(); I > 1; --I)
    std::swap(ChainLength[I - 1], ChainLength[R.below(I)]);
  std::vector<Op> Ops;
  for (std::size_t I = 0; I != N; ++I) {
    // A collision redraws the seeded details; the shape level stays.
    for (int Attempt = 0;; ++Attempt) {
      if (Attempt == 100)
        throw std::runtime_error("cannot draw distinct operators");
      Kernel K = drawKernel(R, I, ChainLength);
      if (!Seen.insert(service::fingerprintRequest(K, Defaults)).second)
        continue;
      std::string Error;
      std::optional<std::string> Text = printPinj(K, Error);
      if (!Text)
        throw std::runtime_error("cannot print " + K.Name + ": " + Error);
      Ops.push_back({K.Name, *Text});
      break;
    }
  }
  return Ops;
}

Kernel parseOrThrow(const Op &O) {
  std::string Error;
  std::optional<Kernel> K = parseKernel(O.Text, Error);
  if (!K)
    throw std::runtime_error("cannot parse " + O.Name + ": " + Error);
  return std::move(*K);
}

/// A seeded order over \p N operators, reshuffled every pass.
class PassOrder {
public:
  PassOrder(std::size_t N, std::uint64_t Seed) : R(Seed), Order(N) {
    for (std::size_t I = 0; I != N; ++I)
      Order[I] = I;
  }
  /// The next operator index; \p NewPass tells whether a pass begins.
  std::size_t next(bool &NewPass) {
    NewPass = Pos == 0;
    if (NewPass)
      for (std::size_t I = Order.size(); I > 1; --I)
        std::swap(Order[I - 1], Order[R.below(I)]);
    std::size_t Idx = Order[Pos];
    Pos = (Pos + 1) % Order.size();
    return Idx;
  }

private:
  Rng R;
  std::vector<std::size_t> Order;
  std::size_t Pos = 0;
};

/// Sets up \p SetupRepeats times through \p Once and \returns the
/// median set-up time in seconds; the last set-up's state is kept.
template <typename Fn> double timedSetup(Fn &&Once) {
  std::vector<double> Times;
  for (int I = 0; I != SetupRepeats; ++I) {
    double T0 = nowUs();
    Once();
    Times.push_back(secondsSince(T0));
  }
  return median(Times);
}

//===----------------------------------------------------------------------===//
// Correctness reference
//===----------------------------------------------------------------------===//

/// What one distinct operator must produce, from a validating compile
/// outside the timed region.
struct Reference {
  bool Ok = false;
  double IslUs = 0;
  double InflUs = 0;
  std::string Encoding; ///< Tuned config (tune workload only).
  double TunedUs = 0;
};

/// Validates \p K under \p O with the exec interpreter
/// (PipelineOptions::Validate): ok when every schedule matches the
/// original order and nothing degraded.
Reference validate(const Kernel &K, PipelineOptions O) {
  O.Validate = true;
  Reference Ref;
  OperatorReport R = runOperator(K, O);
  Ref.Ok = R.Validated && !R.degraded() && R.Infl.TimeUs > 0;
  Ref.IslUs = R.Isl.TimeUs;
  Ref.InflUs = R.Infl.TimeUs;
  if (R.Tuned) {
    Ref.Encoding = R.Tuning.Encoding;
    Ref.TunedUs = R.Tuning.PredictedTimeUs;
  }
  if (!Ref.Ok)
    std::fprintf(stderr, "validation failed: %s\n", K.Name.c_str());
  return Ref;
}

/// A timed report agrees with its operator's reference.
bool matchesReference(const OperatorReport &R, const Reference &Ref) {
  return Ref.Ok && !R.degraded() && R.Isl.TimeUs == Ref.IslUs &&
         R.Infl.TimeUs == Ref.InflUs &&
         (Ref.Encoding.empty() || R.Tuning.Encoding == Ref.Encoding);
}

//===----------------------------------------------------------------------===//
// The per-layer ledger
//===----------------------------------------------------------------------===//

/// Replays \p O through the public calls runOperator makes, one span
/// per call, then runs runOperator itself. \returns false when a call
/// failed.
bool replayLayers(Ledger &L, const Op &O, const PipelineOptions &Opts,
                  std::uint64_t Id) {
  int Root = L.begin("operator", Id);
  bool Ok = true;
  try {
    Kernel K = traced(&L, "ir.parse", Id, [&] { return parseOrThrow(O); });
    traced(&L, "poly.deps", Id, [&] { return computeDependences(K); });
    auto Simulate = [&](const Schedule &S) {
      MappedKernel M = traced(&L, "codegen.map", Id,
                              [&] { return mapToGpu(K, S, Opts.Mapping); });
      traced(&L, "target.simulate", Id,
             [&] { return target::simulateForOptions(M, Opts); });
      return M;
    };

    SchedulerOptions IslOpts = Opts.Sched;
    IslOpts.SerializeSccs = true;
    SchedulerResult Isl = traced(&L, "sched.isl", Id,
                                 [&] { return scheduleKernel(K, IslOpts); });
    traced(&L, "codegen.vectorize", Id, [&] {
      return finalizeVectorMarks(K, Isl.Sched, /*DisableVectorization=*/true);
    });
    Simulate(Isl.Sched);

    InfluenceTree Tree = traced(&L, "influence.tree", Id, [&] {
      return buildInfluenceTree(K, Opts.Influence);
    });
    SchedulerOptions InflOpts = Opts.Sched;
    InflOpts.SerializeSccs = false;
    SchedulerResult Infl = traced(&L, "sched.infl", Id, [&] {
      return scheduleKernel(K, InflOpts, &Tree);
    });
    // The pipeline falls back to the reference schedule when the
    // backend cannot generate the influenced one.
    Schedule Novec = isSimulatableSchedule(K, Infl.Sched) ? Infl.Sched
                                                          : Isl.Sched;
    Schedule Vec = Novec;
    traced(&L, "codegen.vectorize", Id, [&] {
      return finalizeVectorMarks(K, Novec, /*DisableVectorization=*/true);
    });
    Simulate(Novec);
    traced(&L, "codegen.vectorize", Id, [&] {
      return finalizeVectorMarks(K, Vec, /*DisableVectorization=*/false);
    });
    MappedKernel M = Simulate(Vec);
    traced(&L, "baselines.tvm", Id, [&] {
      return Opts.Target
                 ? simulateTvmProxy(K, *Opts.Target, Opts.Mapping)
                 : simulateTvmProxy(K, Opts.Gpu, Opts.Mapping);
    });
    traced(&L, "codegen.print", Id, [&] { return printCuda(M); });
    OperatorReport R = traced(&L, "pipeline.operator", Id,
                              [&] { return runOperator(K, Opts); });
    // The interpreter's cost, as PipelineOptions::Validate spends it.
    bool Valid = traced(&L, "exec.validate", Id, [&] {
      return scheduleIsSemanticallyEqual(K, R.Isl.Sched) &&
             scheduleIsSemanticallyEqual(K, R.Infl.Sched);
    });
    Ok = Valid && !R.degraded();
  } catch (const RecoverableError &E) {
    std::fprintf(stderr, "replay of %s failed: %s\n", O.Name.c_str(),
                 E.status().str().c_str());
    Ok = false;
  }
  L.end(Root);
  return Ok;
}

/// The spans of runOperator's own calls in a replay; what is left of
/// pipeline.operator after them is the pipeline's self time.
const std::set<std::string> &pipelineCalls() {
  static const std::set<std::string> Calls = {
      "sched.isl",      "influence.tree",  "sched.infl",   "codegen.vectorize",
      "codegen.map",    "target.simulate", "baselines.tvm"};
  return Calls;
}

/// Counter deltas of every span, keyed by operator and position within
/// it, for the exact-repeat check between two replays.
std::map<std::pair<std::uint64_t, std::size_t>, Counts>
countsBySpan(const std::vector<Span> &Spans) {
  std::map<std::pair<std::uint64_t, std::size_t>, Counts> Out;
  std::map<std::uint64_t, std::size_t> Ordinal;
  for (const Span &S : Spans)
    Out[{S.Op, Ordinal[S.Op]++}] = S.Counters;
  return Out;
}

/// Per-operator sums of the self time of spans named \p Name.
std::vector<double> perOpSelfUs(const std::vector<Span> &Spans,
                                const std::vector<double> &Self,
                                const std::string &Name) {
  std::map<std::uint64_t, double> PerOp;
  for (std::size_t I = 0; I != Spans.size(); ++I)
    if (Spans[I].Name == Name)
      PerOp[Spans[I].Op] += Self[I];
  std::vector<double> Out;
  for (const auto &[Op, V] : PerOp)
    Out.push_back(V);
  return Out;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// What a traced run measured beside the layer replay.
struct LayerInputs {
  /// Replay spans (layer times).
  const Ledger *Replay = nullptr;
  /// Work counts summed over WorkOps operations of the workload.
  Counts Work;
  std::size_t WorkOps = 0;
  /// Workload-specific metrics, by name.
  std::map<std::string, double> Extra;
};

/// Every per-layer metric, in a fixed order. A layer the workload does
/// not call reports 0.
std::vector<Metric> layerMetrics(const LayerInputs &In) {
  const std::vector<Span> &Spans = In.Replay->spans();
  std::vector<double> Self = selfTimesUs(Spans);
  auto Us = [&](const std::string &Name) {
    return median(perOpSelfUs(Spans, Self, Name));
  };
  // pipeline.self_us: runOperator's time outside the calls it makes.
  std::map<std::uint64_t, double> PipelineSelf;
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    if (S.Name == "pipeline.operator")
      PipelineSelf[S.Op] += S.durationUs();
    else if (pipelineCalls().count(S.Name))
      PipelineSelf[S.Op] -= S.durationUs();
  }
  std::vector<double> PipelineSelfUs;
  for (const auto &[Op, V] : PipelineSelf)
    PipelineSelfUs.push_back(V);

  auto C = [&](const std::string &Name) -> double {
    auto It = In.Work.find(Name);
    return It == In.Work.end() ? 0 : static_cast<double>(It->second);
  };
  auto PerOp = [&](double V) { return ratio(V, In.WorkOps); };
  auto Extra = [&](const std::string &Name) {
    auto It = In.Extra.find(Name);
    return It == In.Extra.end() ? 0.0 : It->second;
  };
  return {
      {"ir.parse_us", Us("ir.parse"), "us"},
      {"poly.deps_us", Us("poly.deps"), "us"},
      {"poly.dependence_runs", PerOp(C("poly.dependence_runs")), "count"},
      {"influence.tree_us", Us("influence.tree"), "us"},
      {"influence.scenarios_enumerated",
       PerOp(C("influence.scenarios_enumerated")), "count"},
      {"influence.scenario_reject_ratio",
       ratio(C("influence.scenarios_rejected"),
             C("influence.scenarios_enumerated")),
       "ratio"},
      {"sched.isl_us", Us("sched.isl"), "us"},
      {"sched.infl_us", Us("sched.infl"), "us"},
      {"sched.runs", PerOp(C("sched.runs")), "count"},
      {"sched.backtracks",
       PerOp(C("sched.sibling_moves") + C("sched.ancestor_backtracks")),
       "count"},
      {"sched.farkas_hit_ratio",
       ratio(C("sched.farkas_cache_hits"), C("sched.ilp_solves")), "ratio"},
      {"lp.simplex_pivots", PerOp(C("lp.simplex_pivots")), "count"},
      {"lp.ilp_solves", PerOp(C("lp.ilp_solves")), "count"},
      {"lp.ilp_nodes", PerOp(C("lp.ilp_nodes")), "count"},
      {"lp.ilp_fail_ratio", ratio(C("lp.ilp_failures"), C("lp.ilp_solves")),
       "ratio"},
      {"lp.widepath_ratio",
       ratio(C("lp.rational_widepath"), C("lp.simplex_solves")), "ratio"},
      {"codegen.vectorize_us", Us("codegen.vectorize"), "us"},
      {"codegen.map_us", Us("codegen.map"), "us"},
      {"codegen.print_us", Us("codegen.print"), "us"},
      {"target.simulate_us", Us("target.simulate"), "us"},
      {"gpusim.transactions", PerOp(C("gpusim.transactions")), "count"},
      {"baselines.tvm_us", Us("baselines.tvm"), "us"},
      {"pipeline.operator_us", Us("pipeline.operator"), "us"},
      {"pipeline.self_us", median(PipelineSelfUs), "us"},
      {"service.cache.lookup_us", Extra("service.cache.lookup_us"), "us"},
      {"service.cache.store_us", Extra("service.cache.store_us"), "us"},
      {"service.cache.hit_ratio",
       ratio(C("service.cache.hits"),
             C("service.cache.hits") + C("service.cache.misses")),
       "ratio"},
      {"service.cache.evictions", C("service.cache.evictions"), "count"},
      {"service.queue_wait_ms_p99", Extra("service.queue_wait_ms_p99"), "ms"},
      {"service.hit_ms_p50", Extra("service.hit_ms_p50"), "ms"},
      {"service.miss_ms_p50", Extra("service.miss_ms_p50"), "ms"},
      {"service.shed", Extra("service.shed"), "count"},
      {"tune.search_ms", Extra("tune.search_ms"), "ms"},
      {"tune.evaluate_us", Extra("tune.evaluate_us"), "us"},
      {"tune.evaluations", PerOp(C("tune.evaluations")), "count"},
      {"tune.improve_ratio",
       ratio(C("tune.improvements"), C("tune.searches")), "ratio"},
      {"exec.validate_ms", Us("exec.validate") / 1000.0, "ms"},
      {"obs.trace_overhead_pct", Extra("obs.trace_overhead_pct"), "%"},
  };
}

/// Replays every operator of \p Ops twice through the layers. Counts a
/// failure for each operator that failed or whose work counts differ
/// between the two replays; \returns the first replay's ledger.
Ledger layerReplay(const std::vector<Op> &Ops, const PipelineOptions &Opts,
                   RunResult &Out) {
  Ledger First, Second;
  for (std::size_t I = 0; I != Ops.size(); ++I) {
    bool Ok1 = replayLayers(First, Ops[I], Opts, I);
    bool Ok2 = replayLayers(Second, Ops[I], Opts, I);
    ++Out.Attempted;
    if (!Ok1 || !Ok2)
      ++Out.Failed;
  }
  auto A = countsBySpan(First.spans()), B = countsBySpan(Second.spans());
  if (A != B) {
    std::fprintf(stderr, "work counts differ between two replays\n");
    ++Out.Failed;
  }
  return First;
}

/// Sums the counters of spans named \p Name.
Counts workOf(const std::vector<Span> &Spans, const std::string &Name) {
  Counts Total;
  for (const Span &S : Spans)
    if (S.Name == Name)
      for (const auto &[K, V] : S.Counters)
        Total[K] += V;
  return Total;
}

void writeSpans(const Args &A, const Ledger &L, const std::string &Tag) {
  std::filesystem::path Dir = A.OutDir;
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  std::string Path = (Dir / ("spans-" + A.Workload + "-" + Tag + "-" +
                             std::to_string(A.Seed) + ".jsonl"))
                         .string();
  if (!L.write(Path))
    std::fprintf(stderr, "cannot write %s\n", Path.c_str());
}

double overheadPct(const std::vector<double> &Traced,
                   const std::vector<double> &Plain) {
  double P = median(Plain);
  return P > 0 ? (median(Traced) / P - 1.0) * 100.0 : 0;
}

/// Moves the calling thread to the next CPU it may run on, in turn;
/// restores its CPU set when destroyed. On the host this was written on
/// one core can run a fifth slower than another for minutes at a time
/// (whatever shares it), so a pinned-by-habit caller would measure its
/// core, not the code. Rotating per pass lets the median over passes
/// see every core.
class CpuRotation {
public:
  CpuRotation() {
    CPU_ZERO(&Saved);
    if (sched_getaffinity(0, sizeof(Saved), &Saved) != 0)
      return;
    for (int C = 0; C != CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Saved))
        Cpus.push_back(C);
  }
  ~CpuRotation() {
    if (!Cpus.empty())
      sched_setaffinity(0, sizeof(Saved), &Saved);
  }
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;

  void next() {
    if (Cpus.empty())
      return;
    cpu_set_t One;
    CPU_ZERO(&One);
    CPU_SET(Cpus[Turn++ % Cpus.size()], &One);
    sched_setaffinity(0, sizeof(One), &One);
  }

private:
  cpu_set_t Saved;
  std::vector<int> Cpus;
  std::size_t Turn = 0;
};

/// What a closed loop measured.
struct LoopResult {
  /// Untraced latencies, one vector per pass.
  std::vector<std::vector<double>> PassLatMs;
  /// Operations per second of each pass.
  std::vector<double> PassRate;
  Ledger Spans; ///< Spans of the traced operations.
  /// Median over operators of traced against untraced latency.
  double TraceOverheadPct = 0;
};

/// One caller runs \p One over \p N operators in seeded passes until
/// \p A.Seconds have passed, finishing the pass in progress: a partial
/// pass would tilt the operator mix, and with it the percentiles, by
/// where the clock happened to stop. With tracing on, operations
/// alternate between traced and untraced. \p One gets the operator,
/// the ledger to record into (null when untraced) and whether a pass
/// begins.
template <typename Fn>
LoopResult closedLoop(const Args &A, std::size_t N, Fn &&One) {
  LoopResult R;
  PassOrder Order(N, A.Seed ^ 0x5eedull);
  std::vector<std::vector<double>> Plain(N), Traced(N);
  CpuRotation Cpus;
  double T0 = nowUs(), PassStart = T0;
  for (bool Trace = false;; Trace = A.Trace && !Trace) {
    bool NewPass = false;
    std::size_t I = Order.next(NewPass);
    if (NewPass && !R.PassLatMs.empty()) {
      double Now = nowUs();
      R.PassRate.push_back(N / ((Now - PassStart) / 1e6));
      PassStart = Now;
    }
    if (NewPass && secondsSince(T0) >= A.Seconds)
      break;
    if (NewPass) {
      R.PassLatMs.emplace_back();
      Cpus.next();
    }
    double S = nowUs();
    One(I, Trace ? &R.Spans : nullptr, NewPass);
    double Ms = (nowUs() - S) / 1000.0;
    (Trace ? Traced : Plain)[I].push_back(Ms);
    if (!Trace)
      R.PassLatMs.back().push_back(Ms);
  }
  // Per operator, so the comparison does not depend on which operators
  // happened to fall on traced turns.
  std::vector<double> Ratios;
  for (std::size_t I = 0; I != N; ++I)
    if (!Plain[I].empty() && !Traced[I].empty())
      Ratios.push_back(median(Traced[I]) / median(Plain[I]));
  if (!Ratios.empty())
    R.TraceOverheadPct = (median(Ratios) - 1.0) * 100.0;
  return R;
}

void addEndToEnd(RunResult &Out, double P50, double Tail, double Throughput,
                 double Speedup, double SetupS) {
  Out.Metrics = {
      {"latency_p50_ms", P50, "ms"},
      {"latency_tail_ms", Tail, "ms"},
      {"throughput_per_s", Throughput, "1/s"},
      {"speedup_geomean", Speedup, "x"},
      {"setup_s", SetupS, "s"},
      {"peak_rss_mb", peakRssMb(), "MiB"},
  };
}

/// \p Q, or the highest percentile with ten samples beyond it among
/// \p N when the run is too short for \p Q.
double tailPercentile(const char *What, std::size_t N, double Q) {
  double Supported = highestSupportedPercentile(N);
  if (Supported >= Q)
    return Q;
  std::fprintf(stderr, "%s: %zu samples support only p%g\n", What, N,
               Supported);
  return Supported;
}

/// The closed loop's end-to-end figures. The host's speed drifts by a
/// fifth over seconds, so each percentile is taken per pass and the
/// median over passes is reported: a slow or fast stretch then moves
/// a few passes, not the figure.
void addLoopMetrics(RunResult &Out, const char *What, const LoopResult &L,
                    double Q, double Speedup, double SetupS) {
  std::size_t N = 0;
  for (const std::vector<double> &P : L.PassLatMs)
    N += P.size();
  Q = tailPercentile(What, N, Q);
  auto OverPasses = [&](double P) {
    std::vector<double> V;
    for (const std::vector<double> &Pass : L.PassLatMs)
      V.push_back(percentile(Pass, P));
    return median(V);
  };
  double P50 = OverPasses(50), Tail = OverPasses(Q);
  std::printf("%s: n=%zu in %zu passes, p50=%.4f ms p%g=%.4f ms\n", What, N,
              L.PassLatMs.size(), P50, Q, Tail);
  addEndToEnd(Out, P50, Tail, median(L.PassRate), Speedup, SetupS);
}

void finish(RunResult &Out) { Out.Correct = Out.Failed == 0; }

} // namespace

//===----------------------------------------------------------------------===//
// compile
//===----------------------------------------------------------------------===//

RunResult perfbench::runCompile(const Args &A) {
  RunResult Out;
  PipelineOptions Opts;
  std::vector<Op> Ops;
  double SetupS = timedSetup([&] {
    Rng R(A.Seed);
    Ops = corpusOps(A.Root);
    std::vector<Op> Drawn = drawnOps(R, CompileDrawn, Ops);
    Ops.insert(Ops.end(), Drawn.begin(), Drawn.end());
    // Warm-up: every operator compiles once.
    for (const Op &O : Ops)
      runOperator(parseOrThrow(O), Opts);
  });

  std::vector<Reference> Refs;
  std::vector<double> Speedups;
  for (const Op &O : Ops) {
    Refs.push_back(validate(parseOrThrow(O), Opts));
    if (Refs.back().Ok)
      Speedups.push_back(Refs.back().IslUs / Refs.back().InflUs);
  }

  // One compile as a user makes it: parse the text, run the pipeline.
  LoopResult Loop =
      closedLoop(A, Ops.size(), [&](std::size_t I, Ledger *L, bool) {
        Kernel K =
            traced(L, "ir.parse", I, [&] { return parseOrThrow(Ops[I]); });
        OperatorReport R = traced(L, "pipeline.operator", I,
                                  [&] { return runOperator(K, Opts); });
        ++Out.Attempted;
        if (!matchesReference(R, Refs[I]))
          ++Out.Failed;
      });

  if (!A.Trace) {
    addLoopMetrics(Out, "compile", Loop, 99, geomean(Speedups), SetupS);
  } else {
    Ledger Replay = layerReplay(Ops, Opts, Out);
    LayerInputs In;
    In.Replay = &Replay;
    In.Work = workOf(Replay.spans(), "pipeline.operator");
    In.WorkOps = Ops.size();
    In.Extra["obs.trace_overhead_pct"] = Loop.TraceOverheadPct;
    Out.Metrics = layerMetrics(In);
    writeSpans(A, Loop.Spans, "loop");
    writeSpans(A, Replay, "replay");
  }
  finish(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// tune
//===----------------------------------------------------------------------===//

RunResult perfbench::runTune(const Args &A) {
  RunResult Out;
  PipelineOptions Base;
  auto MakeTuner = [](tune::TuningDb &Db) {
    tune::Autotuner::Config C;
    C.Strategy = TuneStrategy;
    C.MaxEvaluations = TuneBudget;
    C.Db = &Db;
    return std::make_unique<tune::Autotuner>(C);
  };
  std::vector<Op> Ops;
  double SetupS = timedSetup([&] {
    Ops = corpusOps(A.Root);
    // Warm-up: the first operator tunes once.
    tune::TuningDb Db;
    PipelineOptions O = Base;
    auto Tuner = MakeTuner(Db);
    O.Tuner = Tuner.get();
    runOperator(parseOrThrow(Ops.front()), O);
  });

  std::vector<Reference> Refs;
  std::vector<double> Speedups;
  {
    tune::TuningDb Db;
    auto Tuner = MakeTuner(Db);
    PipelineOptions O = Base;
    O.Tuner = Tuner.get();
    for (const Op &Item : Ops) {
      Kernel K = parseOrThrow(Item);
      Reference Ref = validate(K, O);
      double BaselineUs = tune::predictInflTimeUs(K, Base);
      Ref.Ok = Ref.Ok && Ref.TunedUs > 0 && std::isfinite(BaselineUs);
      if (Ref.Ok)
        Speedups.push_back(BaselineUs / Ref.TunedUs);
      Refs.push_back(Ref);
    }
  }

  // One tuning as a user makes it: parse, then the pipeline with the
  // tuner installed (search, then compile under the chosen options).
  // A fresh database per pass: every operator searches.
  std::unique_ptr<tune::TuningDb> Db;
  std::unique_ptr<tune::Autotuner> Tuner;
  LoopResult Loop = closedLoop(
      A, Ops.size(), [&](std::size_t I, Ledger *L, bool NewPass) {
        if (NewPass) {
          Tuner.reset();
          Db = std::make_unique<tune::TuningDb>();
          Tuner = MakeTuner(*Db);
        }
        Kernel K =
            traced(L, "ir.parse", I, [&] { return parseOrThrow(Ops[I]); });
        PipelineOptions O = Base;
        O.Tuner = Tuner.get();
        OperatorReport R = traced(L, "pipeline.operator", I,
                                  [&] { return runOperator(K, O); });
        ++Out.Attempted;
        if (!matchesReference(R, Refs[I]) || !R.Tuned || R.Tuning.FromDb)
          ++Out.Failed;
      });

  if (!A.Trace) {
    addLoopMetrics(Out, "tune", Loop, 95, geomean(Speedups), SetupS);
  } else {
    // The search and one candidate evaluation, each timed from outside
    // through its public entry point, with a fresh database.
    Ledger Search;
    tune::TuningDb SearchDb;
    auto SearchTuner = MakeTuner(SearchDb);
    for (std::size_t I = 0; I != Ops.size(); ++I) {
      Kernel K = parseOrThrow(Ops[I]);
      PipelineOptions Tuned = Base;
      TunedConfig Chosen;
      int Root = Search.begin("tune.op", I);
      traced(&Search, "tune.search", I,
             [&] { return SearchTuner->tune(K, Tuned, Chosen); });
      traced(&Search, "tune.evaluate", I,
             [&] { return tune::predictInflTimeUs(K, Tuned); });
      OperatorReport R = traced(&Search, "pipeline.operator", I,
                                [&] { return runOperator(K, Tuned); });
      Search.end(Root);
      ++Out.Attempted;
      if (Chosen.Encoding != Refs[I].Encoding || R.Infl.TimeUs <= 0)
        ++Out.Failed;
    }
    Ledger Replay = layerReplay(Ops, Base, Out);
    LayerInputs In;
    In.Replay = &Replay;
    In.Work = workOf(Search.spans(), "tune.search");
    for (const auto &[K, V] : workOf(Search.spans(), "pipeline.operator"))
      In.Work[K] += V;
    In.WorkOps = Ops.size();
    std::vector<double> Self = selfTimesUs(Search.spans());
    In.Extra["tune.search_ms"] =
        median(perOpSelfUs(Search.spans(), Self, "tune.search")) / 1000.0;
    In.Extra["tune.evaluate_us"] =
        median(perOpSelfUs(Search.spans(), Self, "tune.evaluate"));
    In.Extra["obs.trace_overhead_pct"] = Loop.TraceOverheadPct;
    Out.Metrics = layerMetrics(In);
    writeSpans(A, Loop.Spans, "loop");
    writeSpans(A, Search, "search");
    writeSpans(A, Replay, "replay");
  }
  finish(Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// serve
//===----------------------------------------------------------------------===//

namespace {

/// Collects daemon responses with their arrival time; parsing happens
/// later, off the workers' delivery path.
class ResponseLog {
public:
  void add(const std::string &Line) {
    double Now = nowUs();
    std::lock_guard<std::mutex> L(Mu);
    Lines.push_back({Now, Line});
    ++Total;
    Cv.notify_all();
  }
  /// Waits until \p N responses have arrived since construction.
  bool waitFor(std::size_t N, double TimeoutS) {
    std::unique_lock<std::mutex> L(Mu);
    return Cv.wait_for(L, std::chrono::duration<double>(TimeoutS),
                       [&] { return Total >= N; });
  }
  std::vector<std::pair<double, std::string>> take() {
    std::lock_guard<std::mutex> L(Mu);
    return std::move(Lines);
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  std::vector<std::pair<double, std::string>> Lines;
  std::size_t Total = 0;
};

/// One request of the stream and what came back.
struct Request {
  std::size_t PoolIndex = 0;
  RequestTiming T;
  bool Answered = false;
  bool Ok = false;
  bool Hit = false;
};

struct PhaseResult {
  std::vector<Request> Requests;
  std::size_t Shed = 0;
  std::size_t Errors = 0;
  std::size_t Wrong = 0; ///< Ok responses that disagree with the reference.

  std::vector<double> latencies() const {
    std::vector<double> Out;
    for (const Request &R : Requests)
      if (R.Ok)
        Out.push_back(R.T.latencyMs());
    return Out;
  }
  std::size_t failed() const {
    std::size_t Missing = 0;
    for (const Request &R : Requests)
      Missing += !R.Answered;
    return Shed + Errors + Wrong + Missing;
  }
};

struct ServeState {
  std::vector<Op> Pool;
  /// Escaped kernel text per pool entry, for the request line.
  std::vector<std::string> Escaped;
  std::vector<Reference> Refs;
  /// Reference "speedup" and "time_us" fields as the daemon prints them.
  std::vector<std::string> RefSpeedup, RefTime;
  std::vector<std::size_t> Stream; ///< Pool index per request.
  std::size_t Cursor = 0;          ///< Next stream position.
  /// One log per daemon, declared first so the daemon goes first.
  std::unique_ptr<ResponseLog> Log;
  std::unique_ptr<service::Daemon> D;
  std::size_t Sent = 0; ///< Lines submitted to D.
};

service::DaemonConfig serveConfig() {
  service::DaemonConfig C;
  C.Workers = ServeWorkers;
  C.Cache.Capacity = ServeCacheCapacity;
  // Nothing sheds: overload must show as latency, not refusals.
  C.Admission.QueueCapacity = 1 << 20;
  C.TimingInResponses = true;
  return C;
}

/// The pool index of stream position \p Pos.
std::size_t streamAt(ServeState &S, std::size_t Pos) {
  return S.Stream[Pos % S.Stream.size()];
}

/// Offers requests at \p Rps for \p Seconds from the one generator
/// thread, timing each from its due time, and waits for every answer.
PhaseResult drivePhase(ServeState &S, double Rps, double Seconds,
                       Ledger *L) {
  PhaseResult P;
  auto N = static_cast<std::size_t>(Rps * Seconds);
  P.Requests.resize(N);
  std::size_t FirstLine = S.Sent + 1;
  double Start = nowUs() + 1000;
  for (std::size_t I = 0; I != N; ++I) {
    Request &R = P.Requests[I];
    R.PoolIndex = streamAt(S, S.Cursor++);
    R.T.DueUs = dueUs(Start, I, Rps);
    std::this_thread::sleep_until(
        Clock::now() + std::chrono::duration<double, std::micro>(
                           std::max(0.0, R.T.DueUs - nowUs())));
    std::uint64_t Id = FirstLine + I;
    std::string Line = "{\"id\":\"" + std::to_string(Id) +
                       "\",\"kernel\":\"" + S.Escaped[R.PoolIndex] + "\"}";
    R.T.SentUs = nowUs();
    if (L) {
      int Root = L->begin("serve.request", Id);
      // The daemon parses on this thread too; parse once more here to
      // time the ir layer.
      traced(L, "ir.parse", Id,
             [&] { return parseOrThrow(S.Pool[R.PoolIndex]); });
      traced(L, "service.submit", Id, [&] { S.D->submitLine(Line); });
      L->end(Root);
    } else {
      S.D->submitLine(Line);
    }
  }
  S.Sent += N;
  if (!S.Log->waitFor(S.Sent, 120))
    std::fprintf(stderr, "serve: responses missing after 120 s\n");

  for (const auto &[DoneUs, Line] : S.Log->take()) {
    std::string Error;
    std::optional<obs::json::Value> V = obs::json::parse(Line, Error);
    if (!V) {
      ++P.Errors;
      continue;
    }
    const obs::json::Value &Id = V->at("id");
    std::size_t Idx = Id.isString() ? std::strtoull(Id.Str.c_str(), nullptr, 10)
                                    : 0;
    if (Idx < FirstLine || Idx >= FirstLine + N) {
      ++P.Errors;
      continue;
    }
    Request &R = P.Requests[Idx - FirstLine];
    R.Answered = true;
    R.T.DoneUs = DoneUs;
    const std::string &Status = V->at("status").Str;
    if (Status == "shed") {
      ++P.Shed;
      continue;
    }
    if (Status != "ok") {
      ++P.Errors;
      continue;
    }
    R.Ok = true;
    R.Hit = V->at("cache").Str == "hit";
    R.T.WallUs = V->at("wall_us").Num;
    if (V->at("degraded").Num != 0 || !S.Refs[R.PoolIndex].Ok ||
        obs::json::number(V->at("speedup").Num) != S.RefSpeedup[R.PoolIndex] ||
        obs::json::number(V->at("time_us").Num) != S.RefTime[R.PoolIndex])
      ++P.Wrong;
  }
  if (P.failed())
    std::fprintf(stderr,
                 "serve: %.0f rps: %zu requests, %zu shed, %zu errors, "
                 "%zu wrong, %zu unanswered\n",
                 Rps, N, P.Shed, P.Errors, P.Wrong,
                 P.failed() - P.Shed - P.Errors - P.Wrong);
  return P;
}

/// Whether the daemon sustained phase \p P: p99 within the limit and no
/// growing backlog (the last fifth of the phase keeps its median within
/// the limit too).
bool sustained(const PhaseResult &P, double *P99) {
  std::vector<double> Lat = P.latencies();
  *P99 = percentile(Lat, 99);
  std::vector<double> Last(Lat.end() - Lat.size() / 5, Lat.end());
  return P.failed() == 0 && *P99 <= ServeLimitMs &&
         median(Last) <= ServeLimitMs;
}

/// A timing CompilationCacheHook around a ScheduleCache: each lookup and
/// store becomes a span of the current request.
class TimingCache final : public CompilationCacheHook {
public:
  TimingCache(service::ScheduleCache &Inner, Ledger &L, std::uint64_t &Op)
      : Inner(Inner), L(L), Op(Op) {}
  bool lookup(const Kernel &K, const PipelineOptions &O,
              CachedCompilation &Out) override {
    return traced(&L, "service.cache.lookup", Op,
                  [&] { return Inner.lookup(K, O, Out); });
  }
  void store(const Kernel &K, const PipelineOptions &O,
             const CachedCompilation &E) override {
    traced(&L, "service.cache.store", Op, [&] { Inner.store(K, O, E); });
  }

private:
  service::ScheduleCache &Inner;
  Ledger &L;
  std::uint64_t &Op;
};

} // namespace

RunResult perfbench::runServe(const Args &A) {
  RunResult Out;
  ServeState S;
  PipelineOptions Base;
  double SetupS = timedSetup([&] {
    // The pool in popularity order: the corpus, then a fixed draw. The
    // seed draws the request stream over it.
    Rng PoolRng(ServePoolSeed);
    S.Pool = corpusOps(A.Root);
    std::vector<Op> Drawn =
        drawnOps(PoolRng, ServePool - S.Pool.size(), S.Pool);
    S.Pool.insert(S.Pool.end(), Drawn.begin(), Drawn.end());
    Rng R(A.Seed);
    S.Escaped.clear();
    for (const Op &O : S.Pool)
      S.Escaped.push_back(obs::json::escape(O.Text));
    Zipf Z(S.Pool.size(), ServeZipfS);
    S.Stream.clear();
    for (std::size_t I = 0; I != 1 << 16; ++I)
      S.Stream.push_back(Z.draw(R));
    S.Cursor = 0;
    S.Sent = 0;
    S.D.reset();
    S.Log = std::make_unique<ResponseLog>();
    S.D = std::make_unique<service::Daemon>(serveConfig());
    S.D->start(
        [Log = S.Log.get()](const std::string &Line) { Log->add(Line); });
    // Warm-up: fill the cache in a closed loop.
    for (std::size_t I = 0; I != 2 * ServeCacheCapacity; ++I) {
      std::string Line = "{\"id\":\"0\",\"kernel\":\"" +
                         S.Escaped[streamAt(S, S.Cursor++)] + "\"}";
      S.D->submitLine(Line);
      S.Log->waitFor(++S.Sent, 60);
    }
    S.Log->take();
  });

  std::vector<double> Speedups;
  for (const Op &O : S.Pool) {
    S.Refs.push_back(validate(parseOrThrow(O), Base));
    const Reference &Ref = S.Refs.back();
    S.RefSpeedup.push_back(obs::json::number(
        Ref.InflUs > 0 ? Ref.IslUs / Ref.InflUs : 0));
    S.RefTime.push_back(obs::json::number(Ref.InflUs));
    if (Ref.Ok)
      Speedups.push_back(Ref.IslUs / Ref.InflUs);
  }

  auto Account = [&](const PhaseResult &P) {
    Out.Attempted += P.Requests.size();
    Out.Failed += P.failed();
  };
  auto Lateness = [](const PhaseResult &P) {
    std::vector<double> L;
    for (const Request &R : P.Requests)
      L.push_back(R.T.latenessMs());
    return L;
  };

  if (!A.Trace) {
    // Reference rate for the latency metrics, then the ladder.
    double RefSeconds = A.Seconds * 0.4;
    double StepSeconds = A.Seconds * 0.6 / std::size(ServeLadderRps);
    PhaseResult Ref = drivePhase(S, ServeReferenceRps, RefSeconds, nullptr);
    Account(Ref);
    std::vector<double> Lat = Ref.latencies();
    std::vector<double> Late = Lateness(Ref);
    // The reference phase is the first point of the curve.
    double MaxRps = 0;
    double PrevP99 = 0, PrevRps = 0;
    if (sustained(Ref, &PrevP99)) {
      MaxRps = ServeReferenceRps;
      PrevRps = ServeReferenceRps;
    }
    for (double Rps : ServeLadderRps) {
      PhaseResult P = drivePhase(S, Rps, StepSeconds, nullptr);
      Account(P);
      std::vector<double> L = Lateness(P);
      Late.insert(Late.end(), L.begin(), L.end());
      double P99 = 0;
      bool Ok = sustained(P, &P99);
      std::printf("serve: %.0f rps p99=%.3f ms %s\n", Rps, P99,
                  Ok ? "sustained" : "not sustained");
      if (Ok) {
        MaxRps = Rps;
      } else {
        // Interpolate, on log latency, where p99 crossed the limit
        // between the last sustained rate and this one.
        if (PrevRps > 0 && P99 > PrevP99)
          MaxRps = PrevRps + (Rps - PrevRps) *
                                 std::clamp(std::log(ServeLimitMs / PrevP99) /
                                                std::log(P99 / PrevP99),
                                            0.0, 1.0);
        break;
      }
      PrevP99 = P99;
      PrevRps = Rps;
    }
    std::printf("serve: generator lateness max=%.3f ms p99=%.3f ms\n",
                *std::max_element(Late.begin(), Late.end()),
                percentile(Late, 99));
    // As on the closed loops, the p50 is the median over one-second
    // windows, so a slow or fast stretch of the host moves few windows.
    std::map<long, std::vector<double>> Windows;
    for (const Request &R : Ref.Requests)
      if (R.Ok)
        Windows[static_cast<long>(R.T.DueUs / 1e6)].push_back(
            R.T.latencyMs());
    std::vector<double> WindowP50;
    for (const auto &[W, V] : Windows)
      WindowP50.push_back(median(V));
    double Q = tailPercentile("serve", Lat.size(), 99);
    double P50 = median(WindowP50), Tail = percentile(Lat, Q);
    std::printf("serve: n=%zu at %.0f rps, p50=%.4f ms p%g=%.4f ms\n",
                Lat.size(), ServeReferenceRps, P50, Q, Tail);
    addEndToEnd(Out, P50, Tail, MaxRps, geomean(Speedups), SetupS);
  } else {
    double PhaseSeconds = A.Seconds * 0.5;
    PhaseResult Plain = drivePhase(S, ServeReferenceRps, PhaseSeconds, nullptr);
    Account(Plain);
    Ledger Loop;
    PhaseResult Traced = drivePhase(S, ServeReferenceRps, PhaseSeconds, &Loop);
    Account(Traced);

    std::vector<double> Wait, HitMs, MissMs;
    for (const Request &R : Traced.Requests) {
      if (!R.Ok)
        continue;
      Wait.push_back(R.T.queueWaitMs());
      (R.Hit ? HitMs : MissMs).push_back(R.T.WallUs / 1000.0);
    }

    // Replay the traced stream through a timing hook around a cache
    // configured like the daemon's, one request at a time, twice.
    auto CacheReplay = [&](Ledger &L) {
      service::ScheduleCache Cache(serveConfig().Cache);
      std::uint64_t Id = 0;
      TimingCache Hook(Cache, L, Id);
      PipelineOptions O = Base;
      O.Cache = &Hook;
      std::size_t N = std::min(ServeReplayRequests, Traced.Requests.size());
      for (std::size_t I = 0; I != N; ++I) {
        Id = I;
        const Request &R = Traced.Requests[I];
        int Root = L.begin("serve.request", Id);
        Kernel K = traced(&L, "ir.parse", Id,
                          [&] { return parseOrThrow(S.Pool[R.PoolIndex]); });
        OperatorReport Rep = traced(&L, "pipeline.operator", Id,
                                    [&] { return runOperator(K, O); });
        L.end(Root);
        ++Out.Attempted;
        if (!matchesReference(Rep, S.Refs[R.PoolIndex]))
          ++Out.Failed;
      }
      return N;
    };
    Ledger CacheA, CacheB;
    std::size_t Replayed = CacheReplay(CacheA);
    CacheReplay(CacheB);
    if (workOf(CacheA.spans(), "pipeline.operator") !=
        workOf(CacheB.spans(), "pipeline.operator")) {
      std::fprintf(stderr, "serve: work counts differ between replays\n");
      ++Out.Failed;
    }

    Ledger Replay = layerReplay(S.Pool, Base, Out);
    LayerInputs In;
    In.Replay = &Replay;
    In.Work = workOf(CacheA.spans(), "pipeline.operator");
    In.WorkOps = Replayed;
    auto Fold = foldSelfTimes(CacheA.spans());
    In.Extra["service.cache.lookup_us"] = median(Fold["service.cache.lookup"]);
    In.Extra["service.cache.store_us"] = median(Fold["service.cache.store"]);
    In.Extra["service.queue_wait_ms_p99"] = percentile(Wait, 99);
    In.Extra["service.hit_ms_p50"] = median(HitMs);
    In.Extra["service.miss_ms_p50"] = median(MissMs);
    In.Extra["service.shed"] = static_cast<double>(Plain.Shed + Traced.Shed);
    In.Extra["obs.trace_overhead_pct"] =
        overheadPct(Traced.latencies(), Plain.latencies());
    std::vector<double> Late = Lateness(Traced);
    std::printf("serve: generator lateness max=%.3f ms p99=%.3f ms\n",
                *std::max_element(Late.begin(), Late.end()),
                percentile(Late, 99));
    Out.Metrics = layerMetrics(In);
    writeSpans(A, Loop, "loop");
    writeSpans(A, CacheA, "cache");
    writeSpans(A, Replay, "replay");
  }
  S.D->drainAndStop();
  finish(Out);
  return Out;
}
