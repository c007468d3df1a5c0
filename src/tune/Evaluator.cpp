//===- tune/Evaluator.cpp -------------------------------------------------===//

#include "tune/Evaluator.h"

#include "lp/Budget.h"
#include "obs/Metrics.h"
#include "support/Parallel.h"
#include "support/Status.h"
#include "target/Target.h"

#include <cstring>
#include <mutex>
#include <unordered_map>

using namespace pinj;
using namespace pinj::tune;

namespace {

// A new SchedulerOptions or GpuMappingOptions field must join the
// schedule or score key; these mirrors stop compiling until it does.
struct SchedulerOptionsMirror {
  Int CoeffBound;
  Int ConstBound;
  bool ProximityIncludesInput;
  bool SerializeSccs;
  bool PreferOriginalOrder;
  bool UseFeautrierFallback;
  unsigned MaxDims;
  SolverBudget Budget;
};
static_assert(sizeof(SchedulerOptionsMirror) == sizeof(SchedulerOptions),
              "new SchedulerOptions field: add it to scheduleStageKey");
static_assert(sizeof(GpuMappingOptions) == sizeof(Int),
              "new GpuMappingOptions field: add it to the score key");

/// The schedule a candidate scores: the influenced stage under \p Tree
/// (null: building it failed), the reference stage when that is not
/// usable, then vector finalization. \returns false when no usable
/// schedule results or finalization fails.
bool scheduleStage(const Kernel &K, const InfluenceTree *Tree,
                   const SchedulerOptions &Sched, const DependenceMemo *Deps,
                   Schedule &Out) {
  try {
    ScheduleRun Run = scheduleInfluenced(K, Tree, Sched, Deps);
    if (!Run.Usable)
      Run = scheduleReference(K, Sched, Deps);
    Out = std::move(Run.Run.Sched);
    return Run.Usable &&
           finalizeVectors(K, Out, /*DisableVectorization=*/false, Deps)
               .ok();
  } catch (const RecoverableError &) {
    return false;
  }
}

/// The score of \p S: failedScore() when mapping or simulation fails
/// or any budget tripped on the way here (the un-tripped pipeline would
/// produce a different schedule, so the score would be for the wrong
/// config).
double scoreStage(const Kernel &K, const Schedule &S,
                  const PipelineOptions &O) {
  if (budget::anyTripped())
    return failedScore();
  try {
    return target::simulateForOptions(mapSchedule(K, S, O.Mapping), O)
        .TimeUs;
  } catch (const RecoverableError &) {
    return failedScore();
  }
}

/// scheduleStage without a memo, under \p O's own tree. Callers install
/// runOperator's operator-wide budget (O.Budget) around it first.
bool scheduleFresh(const Kernel &K, const PipelineOptions &O, Schedule &S) {
  Status TreeStatus;
  InfluenceTree Tree = tryBuildInfluenceTree(K, O.Influence, TreeStatus);
  return scheduleStage(K, TreeStatus.ok() ? &Tree : nullptr, O.Sched,
                       nullptr, S);
}

void appendU64(std::string &Out, std::uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    Out += static_cast<char>((V >> (8 * I)) & 0xff);
}

} // namespace

std::string tune::scheduleStageKey(const InfluenceTree *Tree,
                                   const SchedulerOptions &Sched) {
  // SerializeSccs is left out: the stage sets it for each run itself.
  std::string Key;
  appendU64(Key, static_cast<std::uint64_t>(Sched.CoeffBound));
  appendU64(Key, static_cast<std::uint64_t>(Sched.ConstBound));
  appendU64(Key, Sched.ProximityIncludesInput);
  appendU64(Key, Sched.PreferOriginalOrder);
  appendU64(Key, Sched.UseFeautrierFallback);
  appendU64(Key, Sched.MaxDims);
  appendU64(Key, Sched.Budget.MaxPivots);
  appendU64(Key, Sched.Budget.MaxIlpNodes);
  std::uint64_t WallBits;
  std::memcpy(&WallBits, &Sched.Budget.WallMs, sizeof(WallBits));
  appendU64(Key, WallBits);
  Key += Tree ? 'T' : '-';
  if (Tree)
    Key += Tree->key();
  return Key;
}

bool tune::buildInflMappedKernel(const Kernel &K, const PipelineOptions &O,
                                 MappedKernel &Out) {
  budget::BudgetScope OpBudget(O.Budget);
  Schedule S;
  if (!scheduleFresh(K, O, S) || budget::anyTripped())
    return false;
  try {
    Out = mapSchedule(K, S, O.Mapping);
    return true;
  } catch (const RecoverableError &) {
    return false;
  }
}

double tune::predictInflTimeUs(const Kernel &K, const PipelineOptions &O) {
  budget::BudgetScope OpBudget(O.Budget);
  Schedule S;
  return scheduleFresh(K, O, S) ? scoreStage(K, S, O) : failedScore();
}

/// The stage memo of one search. Published schedule entries never
/// change and unordered_map never moves its nodes, so entry pointers
/// stay valid without the lock. Scores key on the schedule entry plus
/// the mapping options; the target is the evaluator's base target for
/// every candidate.
class Evaluator::StageMemo {
public:
  struct ScheduleEntry {
    bool Ok = false; ///< False: no simulatable schedule.
    Schedule Sched;
    SolverWork Work; ///< What computing the entry charged the budgets.
  };

  explicit StageMemo(const Kernel &K) : Deps(K) {}

  const ScheduleEntry *findSchedule(const std::string &Key) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Schedules.find(Key);
    return It == Schedules.end() ? nullptr : &It->second;
  }

  /// Publishes \p E under \p Key; a concurrent identical computation
  /// may have won the race, and its equal entry is returned instead.
  const ScheduleEntry *storeSchedule(const std::string &Key,
                                     ScheduleEntry E) {
    std::lock_guard<std::mutex> Lock(Mu);
    return &Schedules.try_emplace(Key, std::move(E)).first->second;
  }

  bool findScore(const ScheduleEntry *E, const GpuMappingOptions &Mapping,
                 double &Out) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Scores.find({E, Mapping.MaxThreadsPerBlock});
    if (It == Scores.end())
      return false;
    Out = It->second;
    return true;
  }

  void storeScore(const ScheduleEntry *E, const GpuMappingOptions &Mapping,
                  double Score) {
    std::lock_guard<std::mutex> Lock(Mu);
    Scores.emplace(std::make_pair(E, Mapping.MaxThreadsPerBlock), Score);
  }

  const DependenceMemo Deps;

private:
  std::mutex Mu;
  std::unordered_map<std::string, ScheduleEntry> Schedules;
  std::map<std::pair<const ScheduleEntry *, Int>, double> Scores;
};

Evaluator::Evaluator(const Kernel &K, const PipelineOptions &Base,
                     const SearchSpace &Space, Config Cfg)
    : K(K), Base(Base), Space(Space), Cfg(Cfg),
      Stages(std::make_unique<StageMemo>(K)) {
  // The evaluator owns its copies of the hooks' absence: candidates are
  // scored outside the pipeline, so downstream hooks must not fire.
  this->Base.Sink = nullptr;
  this->Base.Cache = nullptr;
  this->Base.Tuner = nullptr;
  if (this->Cfg.Jobs == 0)
    this->Cfg.Jobs = 1;
}

Evaluator::~Evaluator() = default;

double Evaluator::score(const PipelineOptions &O) const {
  static obs::Counter &ScheduleHits =
      obs::metrics().counter("tune.stage_schedule_hits");
  static obs::Counter &ScoreHits =
      obs::metrics().counter("tune.stage_score_hits");

  budget::BudgetScope Isolation(Cfg.CandidateBudget);
  // A scheduler deadline trips inside scheduleKernel without a trace, so
  // what such a run produces is not a function of the stage key.
  if (O.Sched.Budget.WallMs > 0)
    return predictInflTimeUs(K, O);
  budget::BudgetScope OpBudget(O.Budget);
  Status TreeStatus;
  InfluenceTree Tree = tryBuildInfluenceTree(K, O.Influence, TreeStatus);
  const InfluenceTree *T = TreeStatus.ok() ? &Tree : nullptr;
  std::string Key = scheduleStageKey(T, O.Sched);

  // Serve a stored schedule only where recomputing it would give the
  // same answer: under a tripped or expired budget recomputation fails,
  // and a budget that cannot absorb the entry's work would trip inside
  // it, so that case recomputes.
  const StageMemo::ScheduleEntry *Entry = Stages->findSchedule(Key);
  if (Entry) {
    budget::deadlineExpired();
    if (budget::anyTripped())
      return failedScore();
    if (budget::chargeWork(Entry->Work))
      ScheduleHits.inc();
    else
      Entry = nullptr;
  }
  if (!Entry) {
    StageMemo::ScheduleEntry E;
    {
      budget::WorkMeter Meter(budget::WorkMeter::Nested);
      E.Ok = scheduleStage(K, T, O.Sched, &Stages->Deps, E.Sched);
      E.Work = Meter.work();
    }
    // Never store what a tripped budget shaped; it scores as a failure.
    if (budget::anyTripped())
      return failedScore();
    Entry = Stages->storeSchedule(Key, std::move(E));
  }
  if (!Entry->Ok)
    return failedScore();

  double Score = failedScore();
  if (Stages->findScore(Entry, O.Mapping, Score)) {
    ScoreHits.inc();
    return Score;
  }
  Score = scoreStage(K, Entry->Sched, O);
  Stages->storeScore(Entry, O.Mapping, Score);
  return Score;
}

double Evaluator::scoreOne(const Candidate &C) const {
  PipelineOptions O = Base;
  Space.apply(C, O);
  return score(O);
}

double Evaluator::baseline() {
  if (!HaveBaseline) {
    BaselineScore = score(Base);
    HaveBaseline = true;
  }
  return BaselineScore;
}

std::vector<double> Evaluator::evaluate(const std::vector<Candidate> &Batch) {
  static obs::Counter &Evaluated = obs::metrics().counter("tune.evaluations");
  static obs::Counter &Failures =
      obs::metrics().counter("tune.candidate_failures");
  static obs::Counter &Denials =
      obs::metrics().counter("tune.budget_denials");

  std::vector<double> Out(Batch.size(), failedScore());

  // Collect the unique, uncached candidates in batch order, up to the
  // remaining evaluation budget; everything else resolves from the
  // memo. Candidates past the budget are memoized as failures right
  // here: the budget only ever shrinks, so this evaluator can never
  // score them, and recording that keeps revisits (greedy/anneal
  // neighbors) from re-asking every call.
  std::vector<Candidate> Fresh;
  std::map<Candidate, std::size_t> FreshIndex;
  for (const Candidate &C : Batch) {
    if (Memo.count(C) || FreshIndex.count(C))
      continue;
    if (Fresh.size() >= remaining()) {
      Memo.emplace(C, failedScore());
      Denials.inc();
      continue;
    }
    FreshIndex.emplace(C, Fresh.size());
    Fresh.push_back(C);
  }

  // Score the fresh candidates on the worker pool. Workers only write
  // disjoint Scores slots; the memo is filled after the join, so no
  // locking is needed and results are independent of the worker count.
  std::vector<double> Scores(Fresh.size(), failedScore());
  if (!Fresh.empty()) {
    parallelFor(Fresh.size(), Cfg.Jobs,
                [&](std::size_t I) { Scores[I] = scoreOne(Fresh[I]); });
    for (std::size_t I = 0; I < Fresh.size(); ++I) {
      Memo.emplace(Fresh[I], Scores[I]);
      if (Scores[I] == failedScore())
        Failures.inc();
    }
    Evals += Fresh.size();
    Evaluated.add(Fresh.size());
  }

  for (std::size_t I = 0; I < Batch.size(); ++I) {
    auto It = Memo.find(Batch[I]);
    if (It != Memo.end())
      Out[I] = It->second;
  }
  return Out;
}
