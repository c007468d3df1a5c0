//===- pipeline/Pipeline.cpp ----------------------------------------------===//

#include "pipeline/Pipeline.h"

#include "codegen/Vectorizer.h"
#include "exec/Interpreter.h"
#include "lp/Budget.h"
#include "obs/Journal.h"
#include "obs/Trace.h"
#include "support/Status.h"
#include "target/Target.h"

#include <chrono>
#include <cstdio>

using namespace pinj;

bool pinj::isSimulatableSchedule(const Kernel &K, const Schedule &S) {
  if (!isGeneratableSchedule(K, S))
    return false;
  for (unsigned D = 0, ND = S.numDims(); D != ND; ++D) {
    Int Extent = 0;
    for (unsigned Stmt = 0, E = K.Stmts.size(); Stmt != E; ++Stmt) {
      RowShape Shape = analyzeRow(K, S, Stmt, D);
      if (Shape.Kind != RowShape::Unit)
        continue;
      Int StmtExtent = K.Stmts[Stmt].Extents[Shape.Iter];
      if (Extent != 0 && StmtExtent != Extent)
        return false;
      Extent = StmtExtent;
    }
  }
  return true;
}

namespace {

/// The verdict on a finished scheduler run (see ScheduleRun).
ScheduleRun judge(const Kernel &K, SchedulerResult Run) {
  ScheduleRun Out;
  Out.Usable = Run.Outcome.ok() && isSimulatableSchedule(K, Run.Sched);
  Out.Run = std::move(Run);
  return Out;
}

/// Nesting depth of runOperator on this thread. Exactly one
/// request_start/request_end pair is journaled per operator compilation:
/// the outermost call owns them, so the tuner-dispatch recursion and any
/// evaluation runs the tuner performs internally never double-emit.
thread_local unsigned RequestDepth = 0;

struct RequestDepthGuard {
  RequestDepthGuard() { ++RequestDepth; }
  ~RequestDepthGuard() { --RequestDepth; }
};

double stageClockUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Journals one stage_end record (isl/novec/infl/tvm/validate) with the
/// stage's wall time and the solver-effort counters attributed to it.
void journalStageEnd(const char *Stage, double DurUs,
                     const obs::MetricsSnapshot &Delta,
                     const Status &Outcome) {
  if (!obs::Journal::fastEnabled())
    return;
  obs::JournalEvent("stage_end")
      .field("stage", Stage)
      .field("dur_us", DurUs)
      .field("ilp_nodes", Delta.counter("lp.ilp_nodes"))
      .field("ilp_solves", Delta.counter("lp.ilp_solves"))
      .field("pivots", Delta.counter("lp.simplex_pivots"))
      .field("outcome", Outcome.ok() ? "ok" : statusCodeName(Outcome.code()));
}

} // namespace

InfluenceTree pinj::tryBuildInfluenceTree(const Kernel &K,
                                          const InfluenceOptions &Options,
                                          Status &Why) {
  try {
    return buildInfluenceTree(K, Options);
  } catch (const RecoverableError &E) {
    Why = E.status();
    return InfluenceTree();
  }
}

ScheduleRun pinj::scheduleInfluenced(const Kernel &K,
                                     const InfluenceTree *Tree,
                                     const SchedulerOptions &Sched,
                                     const DependenceMemo *Deps) {
  ScheduleRun Out;
  if (!Tree)
    return Out;
  SchedulerOptions InflOptions = Sched;
  InflOptions.SerializeSccs = false; // Let fusion constraints act.
  try {
    return judge(K, scheduleKernel(K, InflOptions, Tree, Deps));
  } catch (const RecoverableError &E) {
    Out.Run.Outcome = E.status();
    return Out;
  }
}

ScheduleRun pinj::scheduleReference(const Kernel &K,
                                    const SchedulerOptions &Sched,
                                    const DependenceMemo *Deps) {
  SchedulerOptions IslOptions = Sched;
  IslOptions.SerializeSccs = true;
  return judge(K, scheduleKernel(K, IslOptions, nullptr, Deps));
}

Status pinj::finalizeVectors(const Kernel &K, Schedule &S,
                             bool DisableVectorization,
                             const DependenceMemo *Deps, unsigned *Marked) {
  try {
    unsigned Count = finalizeVectorMarks(K, S, DisableVectorization, Deps);
    if (Marked)
      *Marked = Count;
    return Status();
  } catch (const RecoverableError &E) {
    for (DimInfo &D : S.Dims) {
      D.VectorStmts.clear();
      D.VectorWidth = 0;
    }
    return E.status();
  }
}

MappedKernel pinj::mapSchedule(const Kernel &K, const Schedule &S,
                               const GpuMappingOptions &Mapping) {
  // The last-resort original-order fallback is always executable by the
  // interpreter, but not always expressible as a single fused launch.
  if (!isSimulatableSchedule(K, S))
    raiseError(StatusCode::Internal, "codegen.map",
               "schedule not generatable; simulation skipped");
  return mapToGpu(K, S, Mapping);
}

std::string pinj::renderCuda(const Kernel &K, const Schedule &S,
                             const GpuMappingOptions &Mapping) {
  MappedKernel M = mapToGpu(K, S, Mapping);
  return printCuda(M);
}

OperatorReport pinj::runOperator(const Kernel &K,
                                 const PipelineOptions &Options) {
  // Request identity: the outermost runOperator call on this thread owns
  // the request — it allocates the id (unless the batch compiler
  // pre-assigned one via RequestScope) and journals the single
  // request_start/request_end pair. Tuner-dispatch recursion and the
  // tuner's internal evaluation runs inherit the id and stay silent.
  const bool Outermost = RequestDepth == 0;
  std::string Rid = obs::currentRequestId();
  if (Rid.empty())
    Rid = obs::nextRequestId();
  obs::RequestScope Request(Rid);
  RequestDepthGuard DepthGuard;
  const double RequestT0 = stageClockUs();
  if (Outermost && obs::Journal::fastEnabled())
    obs::JournalEvent("request_start")
        .field("operator", K.Name)
        .field("tuner", Options.Tuner != nullptr);
  auto journalRequestEnd = [&](const OperatorReport &R) {
    if (!Outermost || !obs::Journal::fastEnabled())
      return;
    obs::JournalEvent("request_end")
        .field("operator", K.Name)
        .field("dur_us", stageClockUs() - RequestT0)
        .field("degradations", R.Degradations.size())
        .field("influenced", R.Influenced)
        .field("vec_eligible", R.VecEligible)
        .field("cache_hit", R.CacheHit)
        .field("tuned", R.Tuned);
  };

  // Autotuning dispatch: the hook picks the options this operator runs
  // under (possibly unchanged), and the compilation below proceeds as a
  // plain run of those options — the cache keys on them, so tuned and
  // untuned compilations never alias. The sink record is written here
  // so it carries the tuning outcome.
  if (Options.Tuner) {
    PipelineOptions Inner = Options;
    Inner.Tuner = nullptr;
    Inner.Sink = nullptr;
    TunedConfig Chosen;
    bool Applied = Options.Tuner->tune(K, Inner, Chosen);
    OperatorReport Report = runOperator(K, Inner);
    if (Applied) {
      Report.Tuned = true;
      Report.Tuning = std::move(Chosen);
    }
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("tuning")
          .field("applied", Applied)
          .field("encoding", Report.Tuned ? Report.Tuning.Encoding
                                          : std::string())
          .field("from_db", Report.Tuned && Report.Tuning.FromDb)
          .field("strategy", Report.Tuned ? Report.Tuning.Strategy
                                          : std::string());
    if (Options.Sink)
      Options.Sink->add(toSinkRecord(Report));
    journalRequestEnd(Report);
    return Report;
  }

  obs::Span Op("pipeline.operator");
  if (Op.active())
    Op.arg("name", K.Name).arg("request_id", Rid);
  obs::MetricsRegistry &M = obs::metrics();
  static obs::Counter &Operators = M.counter("pipeline.operators");
  static obs::Counter &Degradations = M.counter("pipeline.degradations");
  Operators.inc();
  obs::MetricsSnapshot Begin = M.snapshot();

  OperatorReport Report;
  Report.Name = K.Name;
  Report.RequestId = Rid;

  // Whole-operator budget: WallMs is the operator deadline; pivot/node
  // caps apply across every solve of every configuration. Per-run
  // scheduler budgets (Options.Sched.Budget) nest inside it.
  budget::BudgetScope OpBudget(Options.Budget);
  // One dependence analysis serves every scheduler run and vector
  // finalization of this operator. It is computed on first use, under
  // the budgets of that use, so the deadline and caps stop it where they
  // stop a fresh analysis; a cache hit computes none.
  const DependenceMemo Deps(K);

  auto recordDegradation = [&](const char *Config, const Status &St) {
    Degradations.inc();
    DegradationEvent E;
    E.Config = Config;
    E.Site = St.site();
    E.Code = St.code();
    E.Detail = St.message().empty() ? St.str() : St.message();
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("degradation")
          .field("config", Config)
          .field("site", E.Site)
          .field("code", statusCodeName(E.Code))
          .field("detail", E.Detail);
    Report.Degradations.push_back(std::move(E));
    // A degradation marks an abnormal path: flush the trace and journal
    // sinks now, so a run that dies further on still leaves loadable
    // artifacts (both flushes are cheap no-ops when unconfigured).
    obs::Tracer::get().autoFlush();
    obs::Journal::get().flushFile();
  };
  // Vector finalization; a failure strips the marks and degrades.
  auto finalizeGuarded = [&](const char *Config, Schedule &S, bool Disable,
                             unsigned *Marked = nullptr) {
    Status Outcome = finalizeVectors(K, S, Disable, &Deps, Marked);
    if (!Outcome.ok())
      recordDegradation(Config, Outcome);
    return Outcome;
  };
  // Maps and simulates \p S into \p Out; on failure (a schedule the
  // backend cannot generate included) Out keeps the schedule but
  // reports zero simulation results.
  auto simulateGuarded = [&](const char *Config, const Schedule &S,
                             ConfigResult &Out) {
    Out.Sched = S;
    try {
      Out.Sim =
          target::simulateForOptions(mapSchedule(K, S, Options.Mapping),
                                     Options);
      Out.TimeUs = Out.Sim.TimeUs;
    } catch (const RecoverableError &E) {
      Out.Sim = KernelSim();
      Out.TimeUs = 0;
      Out.Outcome = E.status();
      recordDegradation(Config, E.status());
    }
  };
  // The operator deadline: once expired, remaining stages are skipped
  // and the skip is recorded once per stage.
  auto deadlineExpired = [&](const char *Config) {
    if (!budget::deadlineExpired())
      return false;
    recordDegradation(Config,
                      Status(StatusCode::BudgetExceeded, "pipeline.deadline",
                             "operator budget exhausted; stage skipped"));
    return true;
  };

  // Compilation-cache fast path: on a hit the scheduling phase is
  // skipped entirely and the cached schedules are replayed through
  // mapping/simulation below. A hook returning structurally
  // incompatible schedules (corrupt entry that slipped through its own
  // validation) is treated as a miss.
  CachedCompilation Cached;
  bool CacheHit = false;
  if (Options.Cache && Options.Cache->lookup(K, Options, Cached) &&
      Cached.Isl.compatibleWith(K) && Cached.Novec.compatibleWith(K) &&
      Cached.Infl.compatibleWith(K))
    CacheHit = true;
  Report.CacheHit = CacheHit;
  if (Op.active())
    Op.arg("cache_hit", CacheHit);
  if (Options.Cache && obs::Journal::fastEnabled())
    obs::JournalEvent("cache_lookup").field("hit", CacheHit);

  // Reference configuration: plain scheduling, SCCs serialized up front
  // (the isl behaviour observed in the paper's Fig. 2(b)). On any
  // recoverable failure the scheduler already degraded to the original
  // program order; the report only needs to record why.
  SchedulerResult IslRun;
  double StageT0 = stageClockUs();
  {
    obs::Span Cfg("pipeline.config.isl");
    if (CacheHit) {
      IslRun.Sched = Cached.Isl;
    } else {
      IslRun = scheduleReference(K, Options.Sched, &Deps).Run;
      if (!IslRun.Outcome.ok()) {
        Report.Isl.Outcome = IslRun.Outcome;
        recordDegradation("isl", IslRun.Outcome);
      }
      finalizeGuarded("isl", IslRun.Sched, /*Disable=*/true);
      if (!isSimulatableSchedule(K, IslRun.Sched)) {
        // A constructed reference schedule is generatable on every kernel
        // the operator library produces; reaching this means the
        // construction itself was degraded. Fall to the original order.
        recordDegradation(
            "isl", Status(StatusCode::Internal, "pipeline.isl",
                          "reference schedule not generatable; using "
                          "original program order"));
        IslRun.Sched = originalSchedule(K, &Deps);
      }
    }
    simulateGuarded("isl", IslRun.Sched, Report.Isl);
    Report.Isl.Stats = IslRun.Stats;
  }
  obs::MetricsSnapshot AfterIsl = M.snapshot();
  Report.Isl.Metrics = AfterIsl.since(Begin);
  journalStageEnd("isl", stageClockUs() - StageT0, Report.Isl.Metrics,
                  Report.Isl.Outcome);

  // Influenced scheduling (shared by novec and infl). A failed
  // influenced run degrades to the isl reference schedule.
  SchedulerResult InflRun;
  Schedule NovecSched;
  StageT0 = stageClockUs();
  {
    obs::Span Cfg("pipeline.config.novec");
    if (CacheHit) {
      InflRun.Sched = Cached.Novec;
      Report.Influenced = Cached.Influenced;
      NovecSched = Cached.Novec;
      simulateGuarded("novec", NovecSched, Report.Novec);
    } else if (deadlineExpired("novec")) {
      InflRun.Sched = IslRun.Sched;
      Report.Novec.Sched = InflRun.Sched;
      Report.Novec.Outcome =
          Status(StatusCode::BudgetExceeded, "pipeline.deadline");
    } else {
      Status Why;
      InfluenceTree Tree = tryBuildInfluenceTree(K, Options.Influence, Why);
      ScheduleRun Infl = scheduleInfluenced(K, Why.ok() ? &Tree : nullptr,
                                            Options.Sched, &Deps);
      InflRun = std::move(Infl.Run);
      InflRun.ReachedLeaf = nullptr; // Tree does not outlive this block.
      if (Why.ok())
        Why = InflRun.Outcome;
      if (!Infl.Usable) {
        // Degrade to the reference schedule: a failed tree build or run
        // is recorded; fusion the backend cannot generate together is
        // expected rejection, not a degradation.
        if (!Why.ok()) {
          recordDegradation("novec", Why);
          Report.Novec.Outcome = Why;
        }
        InflRun.Sched = IslRun.Sched;
      }
      Report.Influenced = InflRun.Sched.Transforms != IslRun.Sched.Transforms;

      NovecSched = InflRun.Sched;
      finalizeGuarded("novec", NovecSched, /*Disable=*/true);
      simulateGuarded("novec", NovecSched, Report.Novec);
      Report.Novec.Stats = InflRun.Stats;
    }
  }
  obs::MetricsSnapshot AfterNovec = M.snapshot();
  Report.Novec.Metrics = AfterNovec.since(AfterIsl);
  journalStageEnd("novec", stageClockUs() - StageT0, Report.Novec.Metrics,
                  Report.Novec.Outcome);

  // Vectorized configuration; a failed vectorizer degrades to novec.
  Schedule InflSched = CacheHit ? Cached.Infl : InflRun.Sched;
  StageT0 = stageClockUs();
  {
    obs::Span Cfg("pipeline.config.infl");
    if (CacheHit) {
      Report.VecEligible = Cached.VecEligible;
      simulateGuarded("infl", InflSched, Report.Infl);
    } else if (deadlineExpired("infl")) {
      Report.Infl.Sched = InflSched;
      Report.Infl.Outcome =
          Status(StatusCode::BudgetExceeded, "pipeline.deadline");
    } else {
      // A failed vectorizer leaves the novec schedule: the marks are
      // stripped from the same influenced schedule.
      unsigned Marked = 0;
      Report.Infl.Outcome =
          finalizeGuarded("infl", InflSched, /*Disable=*/false, &Marked);
      Report.VecEligible = Marked > 0;
      simulateGuarded("infl", InflSched, Report.Infl);
      Report.Infl.Stats = InflRun.Stats;
    }
  }
  Report.Infl.Metrics = M.snapshot().since(AfterNovec);
  journalStageEnd("infl", stageClockUs() - StageT0, Report.Infl.Metrics,
                  Report.Infl.Outcome);

  // Manual-schedule proxy.
  StageT0 = stageClockUs();
  {
    obs::Span Cfg("pipeline.config.tvm");
    if (!deadlineExpired("tvm")) {
      try {
        Report.Tvm = Options.Target
                         ? simulateTvmProxy(K, *Options.Target,
                                            Options.Mapping)
                         : simulateTvmProxy(K, Options.Gpu, Options.Mapping);
      } catch (const RecoverableError &E) {
        Report.Tvm = TvmProxyResult();
        recordDegradation("tvm", E.status());
      }
    }
  }
  journalStageEnd("tvm", stageClockUs() - StageT0, obs::MetricsSnapshot(),
                  Status());

  if (Options.Validate && !deadlineExpired("validate")) {
    obs::Span Val("pipeline.validate");
    StageT0 = stageClockUs();
    try {
      Report.Validated = scheduleIsSemanticallyEqual(K, IslRun.Sched) &&
                         scheduleIsSemanticallyEqual(K, InflSched);
    } catch (const RecoverableError &E) {
      Report.Validated = false;
      recordDegradation("validate", E.status());
    }
    journalStageEnd("validate", stageClockUs() - StageT0,
                    obs::MetricsSnapshot(), Status());
  }

  // Offer the result for caching: only full-fidelity compilations are
  // stored, so replays never resurrect a degraded schedule.
  if (Options.Cache && !CacheHit && Report.Degradations.empty()) {
    CachedCompilation Entry;
    Entry.Isl = Report.Isl.Sched;
    Entry.Novec = Report.Novec.Sched;
    Entry.Infl = Report.Infl.Sched;
    Entry.Influenced = Report.Influenced;
    Entry.VecEligible = Report.VecEligible;
    Options.Cache->store(K, Options, Entry);
    if (obs::Journal::fastEnabled())
      obs::JournalEvent("cache_store").field("operator", K.Name);
  }

  Report.Metrics = M.snapshot().since(Begin);
  if (Options.Sink)
    Options.Sink->add(toSinkRecord(Report));
  journalRequestEnd(Report);
  return Report;
}

namespace {

obs::ConfigRecord toConfigRecord(const char *Name, const ConfigResult &R) {
  obs::ConfigRecord C;
  C.Name = Name;
  C.TimeUs = R.TimeUs;
  C.Transactions = R.Sim.Transactions;
  C.TransactionBytes = R.Sim.TransactionBytes;
  C.UsefulBytes = R.Sim.UsefulBytes;
  C.Metrics = R.Metrics;
  return C;
}

} // namespace

obs::OperatorRecord pinj::toSinkRecord(const OperatorReport &R) {
  obs::OperatorRecord Record;
  Record.Name = R.Name;
  Record.RequestId = R.RequestId;
  Record.Influenced = R.Influenced;
  Record.VecEligible = R.VecEligible;
  Record.Validated = R.Validated;
  Record.CacheHit = R.CacheHit;
  Record.Tuned = R.Tuned;
  if (R.Tuned) {
    Record.TuneEncoding = R.Tuning.Encoding;
    Record.TunePredictedUs = R.Tuning.PredictedTimeUs;
    Record.TuneFromDb = R.Tuning.FromDb;
    Record.TuneStrategy = R.Tuning.Strategy;
  }
  for (const DegradationEvent &E : R.Degradations) {
    obs::DegradationRecord D;
    D.Config = E.Config;
    D.Site = E.Site;
    D.Code = statusCodeName(E.Code);
    D.Detail = E.Detail;
    Record.Degradations.push_back(std::move(D));
  }
  Record.Configs.push_back(toConfigRecord("isl", R.Isl));
  Record.Configs.push_back(toConfigRecord("novec", R.Novec));
  Record.Configs.push_back(toConfigRecord("infl", R.Infl));
  obs::ConfigRecord Tvm;
  Tvm.Name = "tvm";
  Tvm.TimeUs = R.Tvm.TimeUs;
  Record.Configs.push_back(std::move(Tvm));
  Record.Metrics = R.Metrics;
  return Record;
}

std::string pinj::printStatsTable(const OperatorReport &R) {
  char Buf[256];
  std::string Out;
  std::snprintf(Buf, sizeof(Buf), "%-6s %10s %13s %10s %10s %10s %9s\n",
                "config", "time_us", "transactions", "ilp_solves",
                "ilp_nodes", "pivots", "fallbacks");
  Out += Buf;
  auto Row = [&](const char *Name, const ConfigResult &C) {
    const SchedulerStats &S = C.Stats;
    unsigned long long Fallbacks = S.ProgressionDrops + S.SiblingMoves +
                                   S.BandBreaks + S.AncestorBacktracks +
                                   S.SccCuts;
    std::snprintf(Buf, sizeof(Buf),
                  "%-6s %10.2f %13.0f %10llu %10llu %10llu %9llu\n", Name,
                  C.TimeUs, C.Sim.Transactions,
                  static_cast<unsigned long long>(
                      C.Metrics.counter("lp.ilp_solves")),
                  static_cast<unsigned long long>(
                      C.Metrics.counter("lp.ilp_nodes")),
                  static_cast<unsigned long long>(
                      C.Metrics.counter("lp.simplex_pivots")),
                  Fallbacks);
    Out += Buf;
  };
  Row("isl", R.Isl);
  Row("novec", R.Novec);
  Row("infl", R.Infl);
  std::snprintf(Buf, sizeof(Buf), "%-6s %10.2f %13s (%u launches)\n", "tvm",
                R.Tvm.TimeUs, "-", R.Tvm.Launches);
  Out += Buf;
  if (R.Tuned) {
    std::snprintf(Buf, sizeof(Buf),
                  "tuned: %s predicted %.3f us (%s, %s)\n",
                  R.Tuning.Encoding.c_str(), R.Tuning.PredictedTimeUs,
                  R.Tuning.FromDb ? "db" : "search",
                  R.Tuning.Strategy.c_str());
    Out += Buf;
  }
  if (R.degraded()) {
    std::snprintf(Buf, sizeof(Buf), "degradations: %zu\n",
                  R.Degradations.size());
    Out += Buf;
    for (const DegradationEvent &E : R.Degradations) {
      std::snprintf(Buf, sizeof(Buf), "  %-8s %s at %s: %s\n",
                    E.Config.c_str(), statusCodeName(E.Code),
                    E.Site.c_str(), E.Detail.c_str());
      Out += Buf;
    }
  }
  return Out;
}
