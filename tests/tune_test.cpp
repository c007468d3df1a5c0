//===- tests/tune_test.cpp - Autotuning subsystem tests -------------------===//
//
// Covers src/tune/: search-space enumeration and encoding round-trips,
// evaluator memoization and the never-worse guarantee, the evaluator's
// stage memo against fresh scoring (budgets, fail-points, worker
// counts, memo keys, work counters), strategy
// determinism across seeds and worker counts, tuning-database
// persistence (corruption, version and space-shape staleness all
// degrade to re-searches, never errors), and the pipeline-level tuning
// hook. Like service_test, this executable is built separately so the
// POLYINJECT_SANITIZE=thread configuration can run its worker-pool and
// shared-database tests under TSan.
//
//===----------------------------------------------------------------------===//

#include "lp/Budget.h"
#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"
#include "support/FailPoint.h"
#include "service/Fingerprint.h"
#include "target/Target.h"
#include "tune/Autotuner.h"
#include "tune/Evaluator.h"
#include "tune/SearchSpace.h"
#include "tune/Strategy.h"
#include "tune/TuningDb.h"

#include "TestKernels.h"

#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <fstream>
#include <sstream>
#include <thread>

#include "gtest/gtest.h"

using namespace pinj;
using namespace pinj::tune;

namespace {

std::filesystem::path freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

std::string slurp(const std::filesystem::path &P) {
  std::ifstream In(P, std::ios::binary);
  std::stringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

service::Fingerprint keyOf(std::uint64_t Hi, std::uint64_t Lo) {
  service::Fingerprint F;
  F.Hi = Hi;
  F.Lo = Lo;
  return F;
}

DbEntry entryFor(const SearchSpace &Space, const std::string &Encoding,
                 double TimeUs) {
  DbEntry E;
  E.Encoding = Encoding;
  E.PredictedTimeUs = TimeUs;
  E.Strategy = "exhaustive";
  E.SpaceSignature = Space.signature();
  return E;
}

//===----------------------------------------------------------------------===//
// SearchSpace
//===----------------------------------------------------------------------===//

TEST(SearchSpace, EnumerationCoversEveryCombination) {
  SearchSpace Space = tinySearchSpace();
  ASSERT_EQ(Space.dims().size(), 2u);
  EXPECT_EQ(Space.size(), 4u);
  std::set<std::string> Seen;
  for (std::size_t I = 0; I < Space.size(); ++I)
    Seen.insert(Space.encode(Space.candidateAt(I)));
  EXPECT_EQ(Seen.size(), 4u);
}

TEST(SearchSpace, DefaultSpaceShape) {
  SearchSpace Space = defaultSearchSpace();
  EXPECT_GE(Space.dims().size(), 5u);
  EXPECT_GT(Space.size(), 100u);
  // Every dimension leads with the paper-default value, so candidate 0
  // must read back as the default options' projection.
  PipelineOptions Defaults;
  EXPECT_EQ(Space.project(Defaults), Space.candidateAt(0));
}

TEST(SearchSpace, EncodeDecodeRoundTrip) {
  SearchSpace Space = defaultSearchSpace();
  for (std::size_t I : {std::size_t(0), Space.size() / 2, Space.size() - 1}) {
    Candidate C = Space.candidateAt(I);
    Candidate Back;
    ASSERT_TRUE(Space.decode(Space.encode(C), Back));
    EXPECT_EQ(Back, C);
  }
}

TEST(SearchSpace, DecodeRejectsForeignEncodings) {
  SearchSpace Tiny = tinySearchSpace();
  SearchSpace Full = defaultSearchSpace();
  Candidate C;
  // A full-space encoding has segments the tiny space does not know.
  EXPECT_FALSE(Tiny.decode(Full.encode(Full.candidateAt(0)), C));
  // And vice versa: too few segments.
  EXPECT_FALSE(Full.decode(Tiny.encode(Tiny.candidateAt(0)), C));
  // Unknown value.
  EXPECT_FALSE(
      Tiny.decode("influence.max_vector_width=3,mapping.max_threads=256", C));
  // Garbage.
  EXPECT_FALSE(Tiny.decode("", C));
  EXPECT_FALSE(Tiny.decode("baseline", C));
}

TEST(SearchSpace, DecodeRejectsMalformedNameValueStrings) {
  SearchSpace Space = tinySearchSpace();
  Candidate Good;
  std::string GoodText = Space.encode(Space.candidateAt(1));
  ASSERT_TRUE(Space.decode(GoodText, Good));

  Candidate C = Good;
  // Segment without '='.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width,mapping.max_threads=256", C));
  // Empty value.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width=,mapping.max_threads=256", C));
  // Non-numeric value, and trailing garbage after the number.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width=two,mapping.max_threads=256", C));
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_width=1x,mapping.max_threads=256", C));
  // Misspelled dimension name.
  EXPECT_FALSE(Space.decode(
      "influence.max_vector_widt=1,mapping.max_threads=256", C));
  // Segments are positional: reordering is not the same encoding.
  EXPECT_FALSE(Space.decode(
      "mapping.max_threads=256,influence.max_vector_width=1", C));
  // Trailing comma / trailing bytes / leading whitespace.
  EXPECT_FALSE(Space.decode(GoodText + ",", C));
  EXPECT_FALSE(Space.decode(GoodText + " ", C));
  EXPECT_FALSE(Space.decode(" " + GoodText, C));
  // A failed decode never leaves a partial write behind.
  EXPECT_EQ(C, Good);
}

TEST(SearchSpace, ApplyChangesOptions) {
  SearchSpace Space = tinySearchSpace();
  Candidate C;
  ASSERT_TRUE(Space.decode(
      "influence.max_vector_width=1,mapping.max_threads=256", C));
  PipelineOptions O;
  Space.apply(C, O);
  EXPECT_EQ(O.Influence.MaxVectorWidth, 1u);
  EXPECT_EQ(O.Mapping.MaxThreadsPerBlock, 256);
}

TEST(SearchSpace, NeighborsDifferInOneDimension) {
  SearchSpace Space = defaultSearchSpace();
  Candidate Mid = Space.candidateAt(Space.size() / 2);
  for (const Candidate &N : Space.neighbors(Mid)) {
    unsigned Diffs = 0;
    for (std::size_t I = 0; I < Mid.size(); ++I)
      Diffs += N[I] != Mid[I] ? 1 : 0;
    EXPECT_EQ(Diffs, 1u);
  }
  // Interior candidates have two neighbors per multi-valued dimension.
  EXPECT_FALSE(Space.neighbors(Mid).empty());
}

TEST(SearchSpace, SignatureTracksShape) {
  EXPECT_NE(tinySearchSpace().signature(), defaultSearchSpace().signature());
  EXPECT_EQ(tinySearchSpace().signature(), tinySearchSpace().signature());
  EXPECT_EQ(tinySearchSpace().signature().size(), 32u);
}

//===----------------------------------------------------------------------===//
// Evaluator
//===----------------------------------------------------------------------===//

TEST(Evaluator, BaselineMatchesCandidateZeroOnDefaults) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator Eval(K, Base, Space, {});
  double Baseline = Eval.baseline();
  ASSERT_TRUE(std::isfinite(Baseline));
  // Candidate 0 applies the default values, so it scores the same.
  std::vector<double> S = Eval.evaluate({Space.candidateAt(0)});
  EXPECT_DOUBLE_EQ(S[0], Baseline);
}

TEST(Evaluator, MemoizesAndHonorsBudget) {
  Kernel K = makeElementwise(8, 12);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator::Config Cfg;
  Cfg.MaxEvaluations = 2;
  Evaluator Eval(K, Base, Space, Cfg);
  Candidate C0 = Space.candidateAt(0), C1 = Space.candidateAt(1);
  Candidate C2 = Space.candidateAt(2);
  std::vector<double> First = Eval.evaluate({C0, C0, C1});
  EXPECT_EQ(Eval.evaluations(), 2u);
  EXPECT_EQ(Eval.remaining(), 0u);
  EXPECT_DOUBLE_EQ(First[0], First[1]);
  // Budget exhausted: a new candidate fails, memoized ones still
  // resolve.
  std::vector<double> Second = Eval.evaluate({C2, C0});
  EXPECT_EQ(Second[0], failedScore());
  EXPECT_DOUBLE_EQ(Second[1], First[0]);
  EXPECT_EQ(Eval.evaluations(), 2u);
}

TEST(Evaluator, BudgetDenialsAreMemoizedAndCountedOnce) {
  Kernel K = makeElementwise(8, 12);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator::Config Cfg;
  Cfg.MaxEvaluations = 1;
  Evaluator Eval(K, Base, Space, Cfg);
  Candidate C0 = Space.candidateAt(0), C1 = Space.candidateAt(1);

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::vector<double> First = Eval.evaluate({C0, C1});
  EXPECT_NE(First[0], failedScore());
  EXPECT_EQ(First[1], failedScore());
  obs::MetricsSnapshot D1 = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D1.counter("tune.evaluations"), 1u);
  EXPECT_EQ(D1.counter("tune.budget_denials"), 1u);

  // Revisits resolve from the memo: no new evaluations, and the denied
  // candidate is not denied (or counted) a second time.
  std::vector<double> Second = Eval.evaluate({C1, C0, C1});
  EXPECT_EQ(Second[0], failedScore());
  EXPECT_DOUBLE_EQ(Second[1], First[0]);
  EXPECT_EQ(Second[2], failedScore());
  obs::MetricsSnapshot D2 = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D2.counter("tune.evaluations"), 1u);
  EXPECT_EQ(D2.counter("tune.budget_denials"), 1u);
  EXPECT_EQ(Eval.evaluations(), 1u);
}

TEST(Evaluator, EvaluatedFailuresAreMemoizedAndCountedOnce) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator::Config Cfg;
  // A one-pivot solver budget trips on any real kernel, so every
  // candidate fails to evaluate — the interesting case: the failure
  // must be paid for (and counted) exactly once.
  Cfg.CandidateBudget = SolverBudget{/*MaxPivots=*/1, /*MaxIlpNodes=*/1,
                                     /*WallMs=*/0};
  Evaluator Eval(K, Base, Space, Cfg);
  Candidate C0 = Space.candidateAt(0);

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  EXPECT_EQ(Eval.evaluate({C0})[0], failedScore());
  EXPECT_EQ(Eval.evaluate({C0})[0], failedScore());
  EXPECT_EQ(Eval.evaluate({C0, C0})[1], failedScore());
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D.counter("tune.evaluations"), 1u);
  EXPECT_EQ(D.counter("tune.candidate_failures"), 1u);
  EXPECT_EQ(D.counter("tune.budget_denials"), 0u);
  EXPECT_EQ(Eval.evaluations(), 1u);
}

TEST(Evaluator, ScoresIndependentOfWorkerCount) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = defaultSearchSpace();
  std::vector<Candidate> Batch;
  for (std::size_t I = 0; I < 24; ++I)
    Batch.push_back(Space.candidateAt(I * 7));

  Evaluator::Config Serial;
  Serial.Jobs = 1;
  Serial.MaxEvaluations = 64;
  Evaluator E1(K, Base, Space, Serial);
  std::vector<double> S1 = E1.evaluate(Batch);

  Evaluator::Config Parallel = Serial;
  Parallel.Jobs = 8;
  Evaluator E8(K, Base, Space, Parallel);
  std::vector<double> S8 = E8.evaluate(Batch);

  ASSERT_EQ(S1.size(), S8.size());
  for (std::size_t I = 0; I < S1.size(); ++I)
    EXPECT_DOUBLE_EQ(S1[I], S8[I]) << "candidate " << I;
}

//===----------------------------------------------------------------------===//
// Stage memo: every memoized score must equal fresh predictInflTimeUs
//===----------------------------------------------------------------------===//

namespace {

std::vector<Kernel> allTestKernels() {
  return {makeRunningExample(8),       makeElementwise(8, 12),
          makeTranspose(16, 24),       makeProducerConsumer(8, 16),
          makeBadOrderCopy(16, 64),    makeRowReduction(8, 32)};
}

/// All of \p Space when \p Stride is 1, else every Stride-th candidate.
std::vector<Candidate> sampleSpace(const SearchSpace &Space,
                                   std::size_t Stride) {
  std::vector<Candidate> Out;
  for (std::size_t I = 0; I < Space.size(); I += Stride)
    Out.push_back(Space.candidateAt(I));
  return Out;
}

/// The un-memoized reference: predictInflTimeUs per candidate, each
/// under its own candidate budget, exactly as the evaluator isolates it.
std::vector<double> freshScores(const Kernel &K, const SearchSpace &Space,
                                const std::vector<Candidate> &Cands,
                                const SolverBudget &CandidateBudget,
                                const PipelineOptions &Base = {}) {
  std::vector<double> Out;
  for (const Candidate &C : Cands) {
    PipelineOptions O = Base;
    Space.apply(C, O);
    budget::BudgetScope Isolation(CandidateBudget);
    Out.push_back(predictInflTimeUs(K, O));
  }
  return Out;
}

std::vector<double> memoScores(const Kernel &K, const SearchSpace &Space,
                               const std::vector<Candidate> &Cands,
                               const SolverBudget &CandidateBudget,
                               unsigned Jobs,
                               const PipelineOptions &Base = {}) {
  Evaluator::Config Cfg;
  Cfg.Jobs = Jobs;
  Cfg.CandidateBudget = CandidateBudget;
  Cfg.MaxEvaluations = Cands.size();
  Evaluator Eval(K, Base, Space, Cfg);
  return Eval.evaluate(Cands);
}

/// Bit-equality, so that a failedScore() (infinity) matches itself.
void expectSameScores(const std::vector<double> &Fresh,
                      const std::vector<double> &Memo,
                      const std::string &What) {
  ASSERT_EQ(Fresh.size(), Memo.size()) << What;
  for (std::size_t I = 0; I < Fresh.size(); ++I)
    EXPECT_EQ(std::memcmp(&Fresh[I], &Memo[I], sizeof(double)), 0)
        << What << " candidate " << I << ": fresh " << Fresh[I]
        << " memo " << Memo[I];
}

} // namespace

TEST(StageMemo, MatchesFreshScoringOnEveryKernelAndBudget) {
  SearchSpace Tiny = tinySearchSpace();
  SearchSpace Full = defaultSearchSpace();
  // 2592 candidates; stride 41 walks every dimension, budget tiers
  // 0, 1 and 2 included (41 mod 3 != 0).
  std::vector<Candidate> TinyCands = sampleSpace(Tiny, 1);
  std::vector<Candidate> FullCands = sampleSpace(Full, 41);

  // The test kernels take ~50-1000 pivots per candidate, so a 300-pivot
  // candidate budget starves some candidates and not others; a 200-pivot
  // scheduler budget (tier 0 keeps it, tiers 1 and 2 replace it) trips
  // inside scheduling runs, where no enclosing scope sees it.
  struct Setup {
    const char *Name;
    SolverBudget CandidateBudget;
    PipelineOptions Base;
  };
  std::vector<Setup> Setups(3);
  Setups[0].Name = "default";
  Setups[0].CandidateBudget = Evaluator::Config().CandidateBudget;
  Setups[1].Name = "pivot-starved candidates";
  Setups[1].CandidateBudget = {/*MaxPivots=*/300, 0, 0};
  Setups[2] = Setups[0];
  Setups[2].Name = "pivot-starved scheduler";
  Setups[2].Base.Sched.Budget.MaxPivots = 200;

  for (const Setup &S : Setups) {
    std::size_t Finite = 0, Failed = 0;
    for (const Kernel &K : allTestKernels()) {
      const SolverBudget &B = S.CandidateBudget;
      std::string What = K.Name + " " + S.Name;
      std::vector<double> Fresh = freshScores(K, Tiny, TinyCands, B, S.Base);
      expectSameScores(Fresh, memoScores(K, Tiny, TinyCands, B, 1, S.Base),
                       What + " tiny");
      Fresh = freshScores(K, Full, FullCands, B, S.Base);
      std::vector<double> Serial =
          memoScores(K, Full, FullCands, B, 1, S.Base);
      expectSameScores(Fresh, Serial, What + " full");
      expectSameScores(Serial, memoScores(K, Full, FullCands, B, 8, S.Base),
                       What + " jobs=8");
      for (double Score : Fresh)
        ++(Score == failedScore() ? Failed : Finite);
    }
    // Each setup must see both outcomes, or it proves little.
    EXPECT_GT(Finite, 0u) << S.Name;
    if (S.Name != Setups[0].Name) {
      EXPECT_GT(Failed, 0u) << S.Name;
    }
  }
}

// The evaluator and runOperator make the infl decision through the same
// pipeline stages, so wherever the pipeline run does not degrade the
// predicted score is its infl time bit for bit, and the mapped kernel
// the calibrator re-scores is the one polyinject-opt prints.
TEST(StageMemo, PredictionAgreesWithRunOperator) {
  SearchSpace Tiny = tinySearchSpace();
  SearchSpace Full = defaultSearchSpace();
  std::vector<std::pair<const SearchSpace *, Candidate>> Cands;
  for (const Candidate &C : sampleSpace(Tiny, 1))
    Cands.emplace_back(&Tiny, C);
  for (const Candidate &C : sampleSpace(Full, 41))
    Cands.emplace_back(&Full, C);

  std::size_t Compared = 0;
  for (const Kernel &K : allTestKernels()) {
    for (const auto &[Space, C] : Cands) {
      PipelineOptions O;
      Space->apply(C, O);
      OperatorReport R = runOperator(K, O);
      if (R.degraded())
        continue;
      std::string What = K.Name + " " + Space->encode(C);
      double Predicted = predictInflTimeUs(K, O);
      EXPECT_EQ(std::memcmp(&Predicted, &R.Infl.TimeUs, sizeof(double)), 0)
          << What << ": predicted " << Predicted << " ran "
          << R.Infl.TimeUs;
      MappedKernel M;
      ASSERT_TRUE(buildInflMappedKernel(K, O, M)) << What;
      EXPECT_EQ(printCuda(M), renderCuda(K, R.Infl.Sched, O.Mapping))
          << What;
      ++Compared;
    }
  }
  // Nearly every candidate compiles cleanly; the check must bite.
  EXPECT_GT(Compared, Cands.size() * allTestKernels().size() / 2);
}

TEST(StageMemo, MatchesFreshScoringUnderSchedulerFailPoints) {
  Kernel K = makeRunningExample(8);
  SearchSpace Space = defaultSearchSpace();
  std::vector<Candidate> Cands = sampleSpace(Space, 97);
  SolverBudget B = Evaluator::Config().CandidateBudget;
  // sched.schedule fails every run; influence.tree only the tree, so
  // every candidate shares the isl-fallback schedule.
  for (const char *Site : {"sched.schedule", "influence.tree"}) {
    failpoint::activate(Site);
    std::vector<double> Fresh = freshScores(K, Space, Cands, B);
    std::vector<double> Memo = memoScores(K, Space, Cands, B, 1);
    failpoint::clearAll();
    expectSameScores(Fresh, Memo, Site);
  }
}

TEST(StageMemo, OuterPivotCapTrippingMidSearchMatchesFreshScoring) {
  Kernel K = makeRunningExample(8);
  SearchSpace Space = defaultSearchSpace();
  ASSERT_EQ(Space.dims()[4].Name, "mapping.max_threads");
  auto WithThreads = [&](Candidate C, unsigned Step) {
    C[4] = (C[4] + Step) % Space.dims()[4].Values.size();
    return C;
  };
  // Each sampled candidate is followed by a mapping.max_threads
  // neighbour, which hits its schedule: the hit must charge the outer
  // cap what recomputing the schedule would.
  std::vector<Candidate> Cands;
  for (const Candidate &C : sampleSpace(Space, 47)) {
    Cands.push_back(C);
    Cands.push_back(WithThreads(C, 1));
  }
  SolverBudget B = Evaluator::Config().CandidateBudget;

  // Size the outer cap at half the work the un-memoized search does.
  SolverWork Total;
  {
    budget::WorkMeter Meter;
    freshScores(K, Space, Cands, B);
    Total = Meter.work();
  }
  ASSERT_GT(Total.Pivots, 0u);
  SolverBudget Outer{Total.Pivots / 2, 0, 0};

  std::vector<double> Fresh, Memo;
  Evaluator Eval(K, PipelineOptions(), Space, {1, B, 4 * Cands.size()});
  {
    budget::BudgetScope Cap(Outer);
    Fresh = freshScores(K, Space, Cands, B);
  }
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  {
    budget::BudgetScope Cap(Outer);
    for (const Candidate &C : Cands)
      Memo.push_back(Eval.evaluate({C})[0]);
    EXPECT_TRUE(Cap.tripped());
  }
  EXPECT_GT(obs::metrics().snapshot().since(Before).counter(
                "tune.stage_schedule_hits"),
            0u);
  expectSameScores(Fresh, Memo, "under the outer cap");
  EXPECT_NE(Memo.front(), failedScore());
  EXPECT_EQ(Memo.back(), failedScore());

  // Under a tripped scope a stored schedule fails at once, as
  // recomputing it would, without redoing any of its work.
  {
    SolverBudget One{1, 0, 0};
    budget::BudgetScope Cap(One);
    budget::chargePivot();
    budget::chargePivot();
    ASSERT_TRUE(Cap.tripped());
    Before = obs::metrics().snapshot();
    EXPECT_EQ(Eval.evaluate({WithThreads(Cands[0], 2)})[0], failedScore());
    obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
    EXPECT_EQ(D.counter("poly.dependence_runs"), 0u);
    EXPECT_EQ(D.counter("sched.runs"), 0u);
  }

  // With the cap gone, candidates sharing a schedule with the ones that
  // failed under it must score afresh: nothing tripped was stored.
  std::vector<Candidate> Siblings;
  for (std::size_t I = 0; I < Cands.size(); I += 2)
    Siblings.push_back(WithThreads(Cands[I], 3));
  expectSameScores(freshScores(K, Space, Siblings, B),
                   Eval.evaluate(Siblings), "after the outer cap");
}

TEST(StageMemo, TreeKeyCoversEveryFieldTheSchedulerReads) {
  InfluenceTree Base;
  InfluenceNode *N = Base.root().addChild("n0");
  N->Constraints.push_back(makeCoeffEquals(0, 0, 1, 1));
  N->Objectives.push_back({{{0, 0, 0, 1}}});
  N->VectorStmts = {0};
  N->VectorWidth = 4;
  N->addChild("n1");
  Base.root().addChild("n2");
  const std::string BaseKey = Base.key();

  // Each mutation edits one field of a fresh copy of Base's shape.
  auto Mutated = [&](auto Edit) {
    InfluenceTree T;
    InfluenceNode *M = T.root().addChild("n0");
    M->Constraints = N->Constraints;
    M->Objectives = N->Objectives;
    M->VectorStmts = N->VectorStmts;
    M->VectorWidth = N->VectorWidth;
    M->addChild("n1");
    T.root().addChild("n2");
    EXPECT_EQ(T.key(), BaseKey) << "copy must match before editing";
    Edit(T);
    return T.key();
  };
  auto First = [](InfluenceTree &T) -> InfluenceNode & {
    return *T.root().Children[0];
  };
  std::vector<std::pair<const char *, std::string>> Keys = {
      {"depth", Mutated([&](InfluenceTree &T) { First(T).Depth = 3; })},
      {"label", Mutated([&](InfluenceTree &T) { First(T).Label = "x"; })},
      {"term stmt", Mutated([&](InfluenceTree &T) {
         First(T).Constraints[0].Terms[0].Stmt = 1;
       })},
      {"term dim", Mutated([&](InfluenceTree &T) {
         First(T).Constraints[0].Terms[0].Dim = 1;
       })},
      {"term coeff", Mutated([&](InfluenceTree &T) {
         First(T).Constraints[0].Terms[0].CoeffIdx = 0;
       })},
      {"term factor", Mutated([&](InfluenceTree &T) {
         First(T).Constraints[0].Terms[0].Factor = 2;
       })},
      {"constant", Mutated([&](InfluenceTree &T) {
         First(T).Constraints[0].Constant = 0;
       })},
      {"relation", Mutated([&](InfluenceTree &T) {
         First(T).Constraints[0].Rel = InfluenceConstraint::Ge;
       })},
      {"constraint count", Mutated([&](InfluenceTree &T) {
         First(T).Constraints.push_back(makeCoeffEquals(0, 0, 0, 0));
       })},
      {"objective", Mutated([&](InfluenceTree &T) {
         First(T).Objectives[0].Terms[0].Factor = -1;
       })},
      {"objective count", Mutated([&](InfluenceTree &T) {
         First(T).Objectives.clear();
       })},
      {"require parallel", Mutated([&](InfluenceTree &T) {
         First(T).RequireParallel = true;
       })},
      {"vector stmts", Mutated([&](InfluenceTree &T) {
         First(T).VectorStmts = {1};
       })},
      {"vector width", Mutated([&](InfluenceTree &T) {
         First(T).VectorWidth = 2;
       })},
      {"child order", Mutated([&](InfluenceTree &T) {
         std::swap(T.root().Children[0], T.root().Children[1]);
       })},
      {"child count", Mutated([&](InfluenceTree &T) {
         First(T).addChild("n3");
       })},
  };
  std::set<std::string> Distinct = {BaseKey};
  for (const auto &[Field, Key] : Keys) {
    EXPECT_NE(Key, BaseKey) << Field;
    Distinct.insert(Key);
  }
  EXPECT_EQ(Distinct.size(), Keys.size() + 1);
}

TEST(StageMemo, OptionsBuildingTheSameTreeShareAKey) {
  Kernel K = makeRunningExample(8);
  InfluenceOptions Wide, Narrow;
  Wide.ThreadLimit = 1024;
  Narrow.ThreadLimit = 512;
  InfluenceTree A = buildInfluenceTree(K, Wide);
  InfluenceTree B = buildInfluenceTree(K, Narrow);
  ASSERT_FALSE(A.empty());
  EXPECT_EQ(A.key(), B.key());
  // A knob that does reshape the tree changes the key.
  InfluenceOptions Scalar;
  Scalar.MaxVectorWidth = 1;
  EXPECT_NE(buildInfluenceTree(K, Scalar).key(), A.key());
}

TEST(StageMemo, TreePrintoutShowsObjectivesAndParallelRequirement) {
  Kernel K = makeRunningExample(8);
  InfluenceTree T;
  InfluenceNode *N = T.root().addChild("par");
  N->RequireParallel = true;
  N->Objectives.push_back({{{1, 0, 0, 1}, {1, 0, 2, -1}}});
  EXPECT_EQ(T.str(K), "node depth=0 'par' require-parallel\n"
                      "  minimize T[Y,0,i] - T[Y,0,k]\n");
  // Built trees set neither, so their printout carries neither.
  std::string Built = buildInfluenceTree(K, InfluenceOptions()).str(K);
  EXPECT_EQ(Built.find("require-parallel"), std::string::npos);
  EXPECT_EQ(Built.find("minimize"), std::string::npos);
}

TEST(StageMemo, OneDependenceAnalysisPerOptionsAndSharedStages) {
  Kernel K = makeRunningExample(8);
  struct Search {
    const char *Strategy;
    SearchSpace Space;
    std::size_t Budget;
    std::uint64_t MaxDependenceRuns;
  };
  // The default space toggles sched.proximity_input (two
  // DependenceOptions values); the tiny space never does.
  for (const Search &S : {Search{"greedy", defaultSearchSpace(), 64, 2},
                          Search{"exhaustive", tinySearchSpace(), 64, 1},
                          Search{"anneal", defaultSearchSpace(), 16, 2}}) {
    obs::MetricsSnapshot Before = obs::metrics().snapshot();
    Evaluator Eval(K, PipelineOptions(), S.Space,
                   {1, Evaluator::Config().CandidateBudget, S.Budget});
    Eval.baseline();
    ASSERT_TRUE(makeStrategy(S.Strategy)->run(S.Space, Eval, 3).has_value());
    obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
    EXPECT_GE(D.counter("poly.dependence_runs"), 1u) << S.Strategy;
    EXPECT_LE(D.counter("poly.dependence_runs"), S.MaxDependenceRuns)
        << S.Strategy;
    EXPECT_GT(D.counter("tune.stage_schedule_hits"), 0u) << S.Strategy;
    EXPECT_GT(D.counter("tune.stage_score_hits"), 0u) << S.Strategy;
  }
}

//===----------------------------------------------------------------------===//
// Strategies
//===----------------------------------------------------------------------===//

TEST(Strategy, RegistryKnowsAllNamesAndRejectsOthers) {
  for (const std::string &Name : strategyNames()) {
    std::unique_ptr<Strategy> S = makeStrategy(Name);
    ASSERT_NE(S, nullptr) << Name;
    EXPECT_EQ(S->name(), Name);
  }
  EXPECT_EQ(makeStrategy("random"), nullptr);
  EXPECT_EQ(makeStrategy(""), nullptr);
}

TEST(Strategy, ExhaustiveFindsTheGlobalOptimumOfTinySpace) {
  Kernel K = makeBadOrderCopy(16, 64);
  PipelineOptions Base;
  SearchSpace Space = tinySearchSpace();
  Evaluator Eval(K, Base, Space, {});
  std::optional<ScoredCandidate> Best =
      makeStrategy("exhaustive")->run(Space, Eval, 0);
  ASSERT_TRUE(Best.has_value());
  // Verify against a fresh evaluation of every candidate.
  Evaluator Check(K, Base, Space, {});
  for (std::size_t I = 0; I < Space.size(); ++I) {
    double S = Check.evaluate({Space.candidateAt(I)})[0];
    if (S != failedScore()) {
      EXPECT_LE(Best->TimeUs, S);
    }
  }
}

TEST(Strategy, DeterministicAcrossWorkerCountsAndRepeats) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = defaultSearchSpace();
  for (const std::string &Name : strategyNames()) {
    std::unique_ptr<Strategy> S = makeStrategy(Name);
    std::optional<ScoredCandidate> Results[2];
    unsigned JobCounts[2] = {1, 8};
    for (int Round = 0; Round < 2; ++Round) {
      Evaluator::Config Cfg;
      Cfg.Jobs = JobCounts[Round];
      Cfg.MaxEvaluations = 40;
      Evaluator Eval(K, Base, Space, Cfg);
      Results[Round] = S->run(Space, Eval, /*Seed=*/7);
    }
    ASSERT_EQ(Results[0].has_value(), Results[1].has_value()) << Name;
    if (Results[0]) {
      EXPECT_EQ(Results[0]->C, Results[1]->C) << Name;
      EXPECT_DOUBLE_EQ(Results[0]->TimeUs, Results[1]->TimeUs) << Name;
    }
  }
}

TEST(Strategy, AnnealSeedChangesTheWalkButStaysDeterministic) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  SearchSpace Space = defaultSearchSpace();
  std::unique_ptr<Strategy> S = makeStrategy("anneal");
  auto RunWithSeed = [&](std::uint64_t Seed) {
    Evaluator::Config Cfg;
    Cfg.MaxEvaluations = 24;
    Evaluator Eval(K, Base, Space, Cfg);
    return S->run(Space, Eval, Seed);
  };
  std::optional<ScoredCandidate> A1 = RunWithSeed(1), A2 = RunWithSeed(1);
  ASSERT_TRUE(A1 && A2);
  EXPECT_EQ(A1->C, A2->C);
  EXPECT_DOUBLE_EQ(A1->TimeUs, A2->TimeUs);
}

//===----------------------------------------------------------------------===//
// TuningDb
//===----------------------------------------------------------------------===//

TEST(TuningDb, RoundTripsThroughDisk) {
  auto Dir = freshDir("tunedb-roundtrip");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(1, 2), entryFor(Space, "baseline", 4.5));
    Db.store(keyOf(3, 4),
             entryFor(Space,
                      Space.encode(Space.candidateAt(3)), 2.25));
    EXPECT_EQ(Db.stats().Stores, 2u);
  }
  TuningDb Db(Path);
  EXPECT_EQ(Db.size(), 2u);
  EXPECT_EQ(Db.stats().Rejects, 0u);
  DbEntry E;
  ASSERT_TRUE(Db.lookup(keyOf(3, 4), E));
  EXPECT_EQ(E.Encoding, Space.encode(Space.candidateAt(3)));
  EXPECT_DOUBLE_EQ(E.PredictedTimeUs, 2.25);
  EXPECT_EQ(E.Strategy, "exhaustive");
  EXPECT_EQ(E.SpaceSignature, Space.signature());
  EXPECT_FALSE(Db.lookup(keyOf(9, 9), E));
  EXPECT_EQ(Db.stats().Misses, 1u);
}

TEST(TuningDb, MissingFileIsEmpty) {
  auto Dir = freshDir("tunedb-missing");
  TuningDb Db((Dir / "absent.db").string());
  EXPECT_EQ(Db.size(), 0u);
  EXPECT_EQ(Db.stats().Rejects, 0u);
}

TEST(TuningDb, TruncatedFileKeepsValidPrefix) {
  auto Dir = freshDir("tunedb-truncated");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(1, 1), entryFor(Space, "baseline", 1.0));
    Db.store(keyOf(2, 2), entryFor(Space, "baseline", 2.0));
  }
  // Chop the file mid-entry (drop the terminator and the tail of the
  // second entry).
  std::string Bytes = slurp(Path);
  ASSERT_GT(Bytes.size(), 40u);
  std::ofstream(Path, std::ios::binary | std::ios::trunc)
      << Bytes.substr(0, Bytes.size() / 2);

  TuningDb Db(Path);
  EXPECT_GE(Db.stats().Rejects, 1u);
  EXPECT_LT(Db.size(), 2u);
  // Still usable: stores repair the file.
  Db.store(keyOf(3, 3), entryFor(Space, "baseline", 3.0));
  TuningDb Reloaded(Path);
  EXPECT_EQ(Reloaded.stats().Rejects, 0u);
  DbEntry E;
  EXPECT_TRUE(Reloaded.lookup(keyOf(3, 3), E));
}

TEST(TuningDb, VersionBumpRejectsWholeFile) {
  auto Dir = freshDir("tunedb-version");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(1, 1), entryFor(Space, "baseline", 1.0));
  }
  std::string Bytes = slurp(Path);
  size_t At = Bytes.find("v1");
  ASSERT_NE(At, std::string::npos);
  Bytes.replace(At, 2, "v9");
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;

  TuningDb Db(Path);
  EXPECT_EQ(Db.size(), 0u);
  EXPECT_EQ(Db.stats().Rejects, 1u);
}

TEST(TuningDb, VersionBumpCountsGlobalRejects) {
  auto Dir = freshDir("tunedb-version-counter");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  {
    TuningDb Db(Path);
    Db.store(keyOf(2, 2), entryFor(Space, "baseline", 1.0));
  }
  std::string Bytes = slurp(Path);
  size_t At = Bytes.find("v1");
  ASSERT_NE(At, std::string::npos);
  Bytes.replace(At, 2, "v9");
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;

  // The fleet-visible counter moves with the per-instance stat: one
  // reject on reload, nothing recoverable behind it.
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  TuningDb Db(Path);
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(Db.size(), 0u);
  EXPECT_EQ(D.counter("tune.db_rejects"), 1u);
}

TEST(TuningDb, CorruptEntriesAreSkippedNotFatal) {
  auto Dir = freshDir("tunedb-corrupt");
  std::string Path = (Dir / "tune.db").string();
  SearchSpace Space = tinySearchSpace();
  std::string Good;
  {
    TuningDb Db(Path);
    Db.store(keyOf(10, 20), entryFor(Space, "baseline", 5.0));
    Good = slurp(Path);
  }
  // Splice damaged entries around the good one: bad fingerprint hex,
  // non-numeric time, wrong payload length.
  std::string Sig = Space.signature();
  std::string Damaged =
      "polyinject-tunedb v1\n"
      "entry ZZZZe5649253325dbc99c2db6f0d0002 " + Sig +
      " greedy 1.0 8\nbaseline\n" +
      Good.substr(Good.find("entry ")) // good entry + "end\n"
      ;
  Damaged.insert(Damaged.rfind("end\n"),
                 "entry 00000000000000000000000000000001 " + Sig +
                     " greedy notanumber 8\nbaseline\n");
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Damaged;

  TuningDb Db(Path);
  EXPECT_EQ(Db.size(), 1u);
  EXPECT_GE(Db.stats().Rejects, 2u);
  DbEntry E;
  EXPECT_TRUE(Db.lookup(keyOf(10, 20), E));
  EXPECT_DOUBLE_EQ(E.PredictedTimeUs, 5.0);
}

TEST(TuningDb, SharedAcrossThreads) {
  auto Dir = freshDir("tunedb-threads");
  TuningDb Db((Dir / "tune.db").string());
  SearchSpace Space = tinySearchSpace();
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T < 4; ++T)
    Threads.emplace_back([&, T] {
      for (std::uint64_t I = 0; I < 8; ++I) {
        Db.store(keyOf(T, I), entryFor(Space, "baseline", double(I)));
        DbEntry E;
        Db.lookup(keyOf(T, I), E);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Db.size(), 32u);
  TuningDb Reloaded(Db.path());
  EXPECT_EQ(Reloaded.size(), 32u);
  EXPECT_EQ(Reloaded.stats().Rejects, 0u);
}

//===----------------------------------------------------------------------===//
// Autotuner (the pipeline hook)
//===----------------------------------------------------------------------===//

Autotuner::Config tinyTunerConfig() {
  Autotuner::Config Cfg;
  Cfg.Strategy = "exhaustive";
  Cfg.Space = tinySearchSpace();
  Cfg.MaxEvaluations = 16;
  return Cfg;
}

TEST(Autotuner, NeverSelectsWorseThanBaseline) {
  std::vector<Kernel> Kernels;
  Kernels.push_back(makeRunningExample(8));
  Kernels.push_back(makeBadOrderCopy(16, 64));
  Kernels.push_back(makeRowReduction(16, 32));
  Autotuner Tuner(tinyTunerConfig());
  for (const Kernel &K : Kernels) {
    PipelineOptions Base;
    Evaluator BaseEval(K, Base, Tuner.config().Space, {});
    double Baseline = BaseEval.baseline();

    PipelineOptions Tuned = Base;
    TunedConfig Chosen;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Chosen)) << K.Name;
    EXPECT_FALSE(Chosen.FromDb);
    if (std::isfinite(Baseline)) {
      EXPECT_LE(Chosen.PredictedTimeUs, Baseline) << K.Name;
    }
    if (Chosen.Encoding == "baseline")
      EXPECT_EQ(service::fingerprintOptions(Tuned),
                service::fingerprintOptions(Base))
          << K.Name;
    else
      EXPECT_NE(service::fingerprintOptions(Tuned),
                service::fingerprintOptions(Base))
          << K.Name;
  }
}

TEST(Autotuner, RunOperatorReportsTunedConfig) {
  Kernel K = makeRunningExample(8);
  Autotuner Tuner(tinyTunerConfig());
  PipelineOptions Options;
  Options.Tuner = &Tuner;
  obs::ReportSink Sink;
  Options.Sink = &Sink;
  OperatorReport R = runOperator(K, Options);
  EXPECT_TRUE(R.Tuned);
  EXPECT_FALSE(R.Tuning.Encoding.empty());
  EXPECT_EQ(R.Tuning.Strategy, "exhaustive");
  ASSERT_EQ(Sink.operators().size(), 1u);
  EXPECT_TRUE(Sink.operators()[0].Tuned);
  EXPECT_EQ(Sink.operators()[0].TuneEncoding, R.Tuning.Encoding);
  // The sidecar JSON carries the tuning object.
  EXPECT_NE(Sink.json().find("\"tuning\""), std::string::npos);
  EXPECT_NE(Sink.json().find("\"strategy\":\"exhaustive\""),
            std::string::npos);
}

TEST(Autotuner, WarmDatabaseReplaysWithoutSearching) {
  auto Dir = freshDir("tuner-warm");
  Kernel K = makeBadOrderCopy(16, 64);

  TunedConfig Cold;
  std::string ColdFingerprint;
  {
    TuningDb Db((Dir / "tune.db").string());
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Cold));
    EXPECT_FALSE(Cold.FromDb);
    ColdFingerprint = std::to_string(service::fingerprintOptions(Tuned));
  }
  {
    TuningDb Db((Dir / "tune.db").string());
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Warm;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Warm));
    EXPECT_TRUE(Warm.FromDb);
    // Byte-identical decision, byte-identical applied options.
    EXPECT_EQ(Warm.Encoding, Cold.Encoding);
    EXPECT_DOUBLE_EQ(Warm.PredictedTimeUs, Cold.PredictedTimeUs);
    EXPECT_EQ(std::to_string(service::fingerprintOptions(Tuned)),
              ColdFingerprint);
  }
}

TEST(Autotuner, SpaceShapeChangeInvalidatesDbEntry) {
  auto Dir = freshDir("tuner-stale");
  Kernel K = makeRunningExample(8);
  TuningDb Db((Dir / "tune.db").string());
  {
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Out;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Out));
  }
  // Same database, different space: the stored signature no longer
  // matches, so the tuner must re-search (FromDb=false) and overwrite.
  {
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Space = defaultSearchSpace();
    Cfg.MaxEvaluations = 8;
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Out;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Out));
    EXPECT_FALSE(Out.FromDb);
  }
  // And a third run under the new space replays the overwritten entry.
  {
    Autotuner::Config Cfg = tinyTunerConfig();
    Cfg.Space = defaultSearchSpace();
    Cfg.MaxEvaluations = 8;
    Cfg.Db = &Db;
    Autotuner Tuner(Cfg);
    PipelineOptions Tuned;
    TunedConfig Out;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Out));
    EXPECT_TRUE(Out.FromDb);
  }
}

TEST(Autotuner, ConcurrentTuningOnSharedDatabase) {
  auto Dir = freshDir("tuner-concurrent");
  TuningDb Db((Dir / "tune.db").string());
  Autotuner::Config Cfg = tinyTunerConfig();
  Cfg.Db = &Db;
  Autotuner Tuner(Cfg);

  std::vector<Kernel> Kernels;
  for (Int N : {6, 8, 10, 12})
    Kernels.push_back(makeRunningExample(N));

  // Two waves of workers: the second wave must replay the first wave's
  // decisions identically.
  std::vector<TunedConfig> First(Kernels.size()), Second(Kernels.size());
  for (std::vector<TunedConfig> *Wave : {&First, &Second}) {
    std::vector<std::thread> Threads;
    for (std::size_t I = 0; I < Kernels.size(); ++I)
      Threads.emplace_back([&, I] {
        PipelineOptions Tuned;
        TunedConfig Out;
        ASSERT_TRUE(Tuner.tune(Kernels[I], Tuned, Out));
        (*Wave)[I] = Out;
      });
    for (std::thread &T : Threads)
      T.join();
  }
  for (std::size_t I = 0; I < Kernels.size(); ++I) {
    EXPECT_TRUE(Second[I].FromDb) << I;
    EXPECT_EQ(First[I].Encoding, Second[I].Encoding) << I;
    EXPECT_DOUBLE_EQ(First[I].PredictedTimeUs, Second[I].PredictedTimeUs)
        << I;
  }
}

//===----------------------------------------------------------------------===//
// GPU model presets (satellite of the tuning work: the preset is part
// of the options fingerprint, so tuned entries are per-GPU).
//===----------------------------------------------------------------------===//

TEST(GpuPresets, KnownNamesResolveAndDiffer) {
  for (const std::string &Name : gpuModelPresetNames())
    EXPECT_TRUE(gpuModelPreset(Name).has_value()) << Name;
  EXPECT_FALSE(gpuModelPreset("h100").has_value());
  EXPECT_FALSE(gpuModelPreset("").has_value());

  // v100 is the default model.
  GpuModel Default;
  std::optional<GpuModel> V100 = gpuModelPreset("v100");
  ASSERT_TRUE(V100);
  EXPECT_DOUBLE_EQ(V100->PeakBandwidthGBs, Default.PeakBandwidthGBs);

  Kernel K = makeRunningExample(8);
  PipelineOptions A, B;
  A.Gpu = *gpuModelPreset("v100");
  B.Gpu = *gpuModelPreset("a100");
  EXPECT_NE(service::fingerprintOptions(A), service::fingerprintOptions(B));
  EXPECT_NE(service::fingerprintRequest(K, A),
            service::fingerprintRequest(K, B));
}

TEST(GpuPresets, FasterGpuSimulatesFaster) {
  Kernel K = makeElementwise(64, 256);
  PipelineOptions V100, A100;
  V100.Gpu = *gpuModelPreset("v100");
  A100.Gpu = *gpuModelPreset("a100");
  double TimeV100 = predictInflTimeUs(K, V100);
  double TimeA100 = predictInflTimeUs(K, A100);
  ASSERT_TRUE(std::isfinite(TimeV100));
  ASSERT_TRUE(std::isfinite(TimeA100));
  EXPECT_LT(TimeA100, TimeV100);
}

//===----------------------------------------------------------------------===//
// Backend targets in the evaluator
//===----------------------------------------------------------------------===//

TEST(TargetScoring, EvaluatorFollowsOptionsTarget) {
  Kernel K = makeElementwise(64, 256);
  PipelineOptions Default;
  PipelineOptions Explicit;
  Explicit.Target = target::makeBuiltinTarget("v100");
  PipelineOptions Cpu;
  Cpu.Target = target::makeBuiltinTarget("cpu-simd");

  // An explicit gpu-analytic target over the default machine model is
  // the legacy path, bit for bit.
  double Base = predictInflTimeUs(K, Default);
  ASSERT_TRUE(std::isfinite(Base));
  EXPECT_EQ(predictInflTimeUs(K, Explicit), Base);

  // The cpu-simd backend scores the same schedule differently.
  double CpuUs = predictInflTimeUs(K, Cpu);
  ASSERT_TRUE(std::isfinite(CpuUs));
  EXPECT_NE(CpuUs, Base);

  // Scheduling is target-independent: the mapped kernel the evaluator
  // builds plus the target's simulate reproduces its score exactly (the
  // split tools/polyinject-calibrate relies on).
  MappedKernel M;
  ASSERT_TRUE(buildInflMappedKernel(K, Cpu, M));
  EXPECT_DOUBLE_EQ(Cpu.Target->simulate(M).TimeUs, CpuUs);
}

TEST(TargetScoring, TunedWinnerRespectsTargetFingerprint) {
  // One shared database: the same kernel tuned under two backends must
  // produce two independent entries (the request fingerprint separates
  // targets), each replayed on its own second call.
  Kernel K = makeBadOrderCopy(32, 48);
  auto Dir = freshDir("target-tune-db");
  tune::TuningDb Db((Dir / "tune.db").string());

  auto TuneUnder = [&](const PipelineOptions &Base, TunedConfig &Out) {
    tune::Autotuner::Config Cfg;
    Cfg.Strategy = "exhaustive";
    Cfg.Space = tinySearchSpace();
    Cfg.Db = &Db;
    tune::Autotuner Tuner(std::move(Cfg));
    PipelineOptions Tuned = Base;
    return Tuner.tune(K, Tuned, Out);
  };

  PipelineOptions GpuBase;
  PipelineOptions CpuBase;
  CpuBase.Target = target::makeBuiltinTarget("cpu-simd");

  TunedConfig GpuChosen, CpuChosen;
  ASSERT_TRUE(TuneUnder(GpuBase, GpuChosen));
  ASSERT_TRUE(TuneUnder(CpuBase, CpuChosen));
  EXPECT_FALSE(GpuChosen.FromDb);
  EXPECT_FALSE(CpuChosen.FromDb); // Distinct fingerprint: no aliasing.

  TunedConfig GpuReplay, CpuReplay;
  ASSERT_TRUE(TuneUnder(GpuBase, GpuReplay));
  ASSERT_TRUE(TuneUnder(CpuBase, CpuReplay));
  EXPECT_TRUE(GpuReplay.FromDb);
  EXPECT_TRUE(CpuReplay.FromDb);
  EXPECT_EQ(GpuReplay.Encoding, GpuChosen.Encoding);
  EXPECT_EQ(CpuReplay.Encoding, CpuChosen.Encoding);
}

} // namespace
