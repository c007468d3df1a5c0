//===- tests/model_test.cpp - Learned cost model tests --------------------===//
//
// Covers src/model/: the fixed-width feature schema and its hash,
// feature extraction and the kernel/option slot split, training-target
// and serialization round-trips, gradient-boosted-stumps training
// determinism, model/dataset file staleness discipline (version bumps
// and schema mismatches reject the whole file, counted like
// tune.db_rejects), dataset building through the evaluator, and the
// surrogate strategy end to end. The concurrent-prediction test is the
// reason this is the fourth separate executable: the
// POLYINJECT_SANITIZE=thread configuration runs it to prove a shared
// const model is safe under the evaluator's worker pool.
//
//===----------------------------------------------------------------------===//

#include "model/Dataset.h"
#include "model/Features.h"
#include "model/GbStumps.h"
#include "obs/Metrics.h"
#include "target/Target.h"
#include "tune/Autotuner.h"
#include "tune/Evaluator.h"
#include "tune/SearchSpace.h"
#include "tune/Strategy.h"
#include "tune/TuningDb.h"

#include "TestKernels.h"

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "gtest/gtest.h"

using namespace pinj;
using namespace pinj::model;

namespace {

std::filesystem::path freshDir(const std::string &Name) {
  std::filesystem::path Dir =
      std::filesystem::path(::testing::TempDir()) / Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

/// A small deterministic training set: candidate features of the
/// running example scored by the real evaluator.
void buildTrainingSet(std::vector<FeatureVector> &X,
                      std::vector<double> &Y) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  tune::SearchSpace Space = tune::defaultSearchSpace();
  tune::Evaluator Eval(K, Base, Space, {});
  std::vector<tune::Candidate> Batch;
  for (std::size_t I = 0; I < 32; ++I)
    Batch.push_back(Space.candidateAt(I * 81 % Space.size()));
  std::vector<double> Scores = Eval.evaluate(Batch);
  FeatureVector F = extractFeatures(K, Base);
  for (std::size_t I = 0; I < Batch.size(); ++I) {
    if (Scores[I] == tune::failedScore())
      continue;
    PipelineOptions O = Base;
    Space.apply(Batch[I], O);
    writeOptionFeatures(O, F);
    X.push_back(F);
    Y.push_back(regressionTarget(Scores[I]));
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Features
//===----------------------------------------------------------------------===//

TEST(Features, SchemaIsFixedWidthAndHashed) {
  EXPECT_EQ(featureNames().size(), featureCount());
  EXPECT_GT(firstOptionFeature(), 0u);
  EXPECT_LT(firstOptionFeature(), featureCount());
  // The hash is a stable function of the schema: 32 hex chars, same on
  // every call.
  std::string H = featureSchemaHash();
  EXPECT_EQ(H.size(), 32u);
  EXPECT_EQ(H, featureSchemaHash());
  for (char C : H)
    EXPECT_TRUE(std::isxdigit(static_cast<unsigned char>(C)));
  // Kernel-side slots first, option-side slots after the boundary.
  for (std::size_t I = 0; I < featureCount(); ++I) {
    bool IsOpt = featureNames()[I].rfind("opt.", 0) == 0;
    EXPECT_EQ(IsOpt, I >= firstOptionFeature()) << featureNames()[I];
  }
}

TEST(Features, ExtractionIsDeterministicAndFinite) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  FeatureVector A = extractFeatures(K, Base);
  FeatureVector B = extractFeatures(K, Base);
  ASSERT_EQ(A.size(), featureCount());
  EXPECT_EQ(A, B);
  for (double V : A)
    EXPECT_TRUE(std::isfinite(V));
}

TEST(Features, OptionSlotsTrackTheCandidateKernelSlotsDoNot) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  FeatureVector A = extractFeatures(K, Base);
  PipelineOptions Changed = Base;
  Changed.Influence.MaxVectorWidth = 1;
  Changed.Mapping.MaxThreadsPerBlock = 256;
  FeatureVector B = A;
  writeOptionFeatures(Changed, B);
  // Kernel-side prefix untouched, option-side suffix moved.
  for (std::size_t I = 0; I < firstOptionFeature(); ++I)
    EXPECT_EQ(A[I], B[I]) << featureNames()[I];
  EXPECT_NE(A, B);
  // writeOptionFeatures agrees with a full re-extraction.
  EXPECT_EQ(B, extractFeatures(K, Changed));
}

TEST(Features, SerializationRoundTripsBitExactly) {
  Kernel K = makeElementwise(8, 12);
  FeatureVector A = extractFeatures(K, PipelineOptions());
  A[3] = 0.1 + 0.2; // a value that needs all 17 digits
  FeatureVector B;
  ASSERT_TRUE(parseFeatures(serializeFeatures(A), B));
  EXPECT_EQ(A, B);
  // Wrong width and garbage both reject.
  EXPECT_FALSE(parseFeatures("1 2 3", B));
  EXPECT_FALSE(parseFeatures(serializeFeatures(A) + " 7", B));
  EXPECT_FALSE(parseFeatures("", B));
}

TEST(Features, RegressionTargetCompressesAndClamps) {
  EXPECT_DOUBLE_EQ(regressionTarget(0), 0);
  EXPECT_DOUBLE_EQ(regressionTarget(-5), 0); // failed scores clamp
  EXPECT_DOUBLE_EQ(regressionTarget(1), 1);  // log2(1+1)
  EXPECT_LT(regressionTarget(1000), 11);
}

//===----------------------------------------------------------------------===//
// GbStumps
//===----------------------------------------------------------------------===//

TEST(GbStumps, LearnsASeparableFunction) {
  // y = 10 when feature 2 is high, 1 when low: one stump family nails
  // it, so the trained model must rank high-vs-low correctly.
  std::vector<FeatureVector> X;
  std::vector<double> Y;
  for (int I = 0; I < 20; ++I) {
    FeatureVector F(featureCount(), 0.0);
    F[2] = I < 10 ? 1.0 : 5.0;
    F[7] = I; // an irrelevant feature the split search must not prefer
    X.push_back(F);
    Y.push_back(I < 10 ? 1.0 : 10.0);
  }
  GbStumpsModel M = trainGbStumps(X, Y);
  EXPECT_FALSE(M.empty());
  FeatureVector Low(featureCount(), 0.0), High(featureCount(), 0.0);
  Low[2] = 1.0;
  High[2] = 5.0;
  EXPECT_NEAR(M.predict(Low), 1.0, 0.2);
  EXPECT_NEAR(M.predict(High), 10.0, 0.2);
}

TEST(GbStumps, TrainingIsBitDeterministic) {
  std::vector<FeatureVector> X;
  std::vector<double> Y;
  buildTrainingSet(X, Y);
  ASSERT_FALSE(X.empty());
  TrainConfig Cfg;
  Cfg.Rounds = 64;
  GbStumpsModel A = trainGbStumps(X, Y, Cfg);
  GbStumpsModel B = trainGbStumps(X, Y, Cfg);
  EXPECT_EQ(serializeModel(A), serializeModel(B));
  // Subsampling consumes the seed but stays deterministic per seed.
  Cfg.SubsampleNum = 1;
  Cfg.SubsampleDen = 2;
  GbStumpsModel S1 = trainGbStumps(X, Y, Cfg);
  GbStumpsModel S2 = trainGbStumps(X, Y, Cfg);
  EXPECT_EQ(serializeModel(S1), serializeModel(S2));
}

TEST(GbStumps, FileRoundTripPreservesPredictions) {
  std::vector<FeatureVector> X;
  std::vector<double> Y;
  buildTrainingSet(X, Y);
  ASSERT_FALSE(X.empty());
  TrainConfig Cfg;
  Cfg.Rounds = 64;
  GbStumpsModel M = trainGbStumps(X, Y, Cfg);

  auto Dir = freshDir("model-roundtrip");
  std::string Path = (Dir / "m.pgbm").string();
  std::string Err;
  ASSERT_TRUE(saveModel(M, Path, &Err)) << Err;
  GbStumpsModel R;
  ASSERT_TRUE(loadModel(Path, R, &Err)) << Err;
  EXPECT_EQ(serializeModel(M), serializeModel(R));
  for (const FeatureVector &F : X)
    EXPECT_DOUBLE_EQ(M.predict(F), R.predict(F));
}

TEST(GbStumps, StaleSchemaAndVersionBumpReject) {
  std::vector<FeatureVector> X(4, FeatureVector(featureCount(), 1.0));
  std::vector<double> Y{1, 2, 3, 4};
  X[1][0] = 2;
  X[2][0] = 3;
  X[3][0] = 4;
  GbStumpsModel M = trainGbStumps(X, Y, {/*Rounds=*/8});
  std::string Text = serializeModel(M);

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  // Schema hash from another feature set: stale, rejected, counted.
  std::string Stale = Text;
  std::size_t At = Stale.find(M.SchemaHash);
  ASSERT_NE(At, std::string::npos);
  Stale.replace(At, M.SchemaHash.size(),
                std::string(M.SchemaHash.size(), '0'));
  GbStumpsModel Out;
  std::string Err;
  EXPECT_FALSE(parseModel(Stale, Out, &Err));
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;

  // Version bump: the whole file rejects.
  std::string Bumped = Text;
  At = Bumped.find("v1");
  ASSERT_NE(At, std::string::npos);
  Bumped.replace(At, 2, "v9");
  EXPECT_FALSE(parseModel(Bumped, Out, &Err));

  // Truncation and field garbage too.
  EXPECT_FALSE(parseModel(Text.substr(0, Text.size() / 2), Out, &Err));
  EXPECT_FALSE(parseModel("", Out, &Err));
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D.counter("model.rejects"), 4u);
}

//===----------------------------------------------------------------------===//
// Dataset
//===----------------------------------------------------------------------===//

TEST(Dataset, BuilderSamplesBaselineAndDbWinner) {
  Kernel K = makeRunningExample(8);
  PipelineOptions Base;
  tune::SearchSpace Space = tune::defaultSearchSpace();

  auto Dir = freshDir("dataset-build");
  tune::TuningDb Db((Dir / "tune.db").string());
  service::Fingerprint Key = service::fingerprintRequest(K, Base);
  std::string Winner = Space.encode(Space.candidateAt(7));
  Db.store(Key, {Winner, 5.0, "exhaustive", Space.signature()});

  Dataset D;
  DatasetBuildConfig Cfg;
  Cfg.CandidatesPerKernel = 8;
  std::size_t N = appendSamples(D, K, Base, Space, &Db, Cfg);
  EXPECT_GT(N, 0u);
  EXPECT_EQ(N, D.Samples.size());
  EXPECT_EQ(D.SchemaHash, featureSchemaHash());
  EXPECT_EQ(D.SpaceSignature, Space.signature());
  bool SawBaseline = false, SawWinner = false;
  for (const Sample &S : D.Samples) {
    ASSERT_EQ(S.X.size(), featureCount());
    EXPECT_GT(S.TimeUs, 0);
    EXPECT_EQ(S.Kernel, K.Name);
    SawBaseline |= S.Encoding == Space.encode(Space.candidateAt(0)) ||
                   S.Encoding == "baseline";
    SawWinner |= S.Encoding == Winner;
  }
  EXPECT_TRUE(SawBaseline);
  EXPECT_TRUE(SawWinner);
}

TEST(Dataset, FileRoundTripsBitExactlyAndRejectsStaleness) {
  Kernel K = makeElementwise(8, 12);
  tune::SearchSpace Space = tune::defaultSearchSpace();
  Dataset D;
  DatasetBuildConfig Cfg;
  Cfg.CandidatesPerKernel = 6;
  ASSERT_GT(appendSamples(D, K, PipelineOptions(), Space, nullptr, Cfg),
            0u);

  auto Dir = freshDir("dataset-roundtrip");
  std::string Path = (Dir / "d.pds").string();
  std::string Err;
  ASSERT_TRUE(saveDataset(D, Path, &Err)) << Err;
  Dataset R;
  ASSERT_TRUE(loadDataset(Path, R, &Err)) << Err;
  EXPECT_EQ(serializeDataset(D), serializeDataset(R));
  ASSERT_EQ(R.Samples.size(), D.Samples.size());
  for (std::size_t I = 0; I < D.Samples.size(); ++I) {
    EXPECT_EQ(R.Samples[I].X, D.Samples[I].X);
    EXPECT_DOUBLE_EQ(R.Samples[I].TimeUs, D.Samples[I].TimeUs);
  }

  std::string Text = serializeDataset(D);
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  Dataset Out;
  // Version bump rejects the whole file.
  std::string Bumped = Text;
  std::size_t At = Bumped.find("v2");
  ASSERT_NE(At, std::string::npos);
  Bumped.replace(At, 2, "v9");
  EXPECT_FALSE(parseDataset(Bumped, Out, &Err));
  // Foreign schema hash rejects.
  std::string Stale = Text;
  At = Stale.find(D.SchemaHash);
  ASSERT_NE(At, std::string::npos);
  Stale.replace(At, D.SchemaHash.size(),
                std::string(D.SchemaHash.size(), '0'));
  EXPECT_FALSE(parseDataset(Stale, Out, &Err));
  EXPECT_NE(Err.find("schema"), std::string::npos) << Err;
  // Truncation rejects (no partial sample list survives).
  EXPECT_FALSE(parseDataset(Text.substr(0, Text.size() - 4), Out, &Err));
  obs::MetricsSnapshot Delta = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(Delta.counter("model.dataset_rejects"), 3u);
}

TEST(Dataset, TargetStampSeparatesBackends) {
  Kernel K = makeElementwise(8, 12);
  tune::SearchSpace Space = tune::defaultSearchSpace();
  DatasetBuildConfig Cfg;
  Cfg.CandidatesPerKernel = 4;

  Dataset Gpu;
  ASSERT_GT(appendSamples(Gpu, K, PipelineOptions(), Space, nullptr, Cfg),
            0u);
  EXPECT_EQ(Gpu.TargetId, target::targetIdForOptions(PipelineOptions()));
  EXPECT_EQ(Gpu.TargetId.find("gpu-analytic-"), 0u) << Gpu.TargetId;

  // Samples scored under another backend carry a different stamp, so a
  // trainer can refuse to mix them (polyinject-train checks on load).
  PipelineOptions CpuBase;
  CpuBase.Target = target::makeBuiltinTarget("cpu-simd");
  Dataset Cpu;
  ASSERT_GT(appendSamples(Cpu, K, CpuBase, Space, nullptr, Cfg), 0u);
  EXPECT_EQ(Cpu.TargetId.find("cpu-simd-"), 0u) << Cpu.TargetId;
  EXPECT_NE(Cpu.TargetId, Gpu.TargetId);

  // The stamp round-trips through the file form.
  std::string Text = serializeDataset(Cpu);
  EXPECT_NE(Text.find("target " + Cpu.TargetId), std::string::npos);
  Dataset Back;
  std::string Err;
  ASSERT_TRUE(parseDataset(Text, Back, &Err)) << Err;
  EXPECT_EQ(Back.TargetId, Cpu.TargetId);

  // A mangled target line rejects the whole file, counted like every
  // other staleness rejection.
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::string Mangled = Text;
  std::size_t At = Mangled.find("target ");
  ASSERT_NE(At, std::string::npos);
  Mangled.replace(At, 7, "backend ");
  Dataset Out;
  EXPECT_FALSE(parseDataset(Mangled, Out, &Err));
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D.counter("model.dataset_rejects"), 1u);
}

//===----------------------------------------------------------------------===//
// Surrogate strategy
//===----------------------------------------------------------------------===//

namespace {

/// Trains a model on the default space for \p K — the in-process
/// equivalent of polyinject-train.
std::shared_ptr<const GbStumpsModel> trainFor(const Kernel &K) {
  Dataset D;
  DatasetBuildConfig Cfg;
  Cfg.CandidatesPerKernel = 64;
  appendSamples(D, K, PipelineOptions(), tune::defaultSearchSpace(),
                nullptr, Cfg);
  std::vector<FeatureVector> X;
  std::vector<double> Y;
  for (const Sample &S : D.Samples) {
    X.push_back(S.X);
    Y.push_back(regressionTarget(S.TimeUs));
  }
  TrainConfig TC;
  TC.Rounds = 128;
  return std::make_shared<const GbStumpsModel>(trainGbStumps(X, Y, TC));
}

} // namespace

TEST(Surrogate, RanksWholeSpaceButEvaluatesOnlyTopK) {
  Kernel K = makeRunningExample(8);
  auto Model = trainFor(K);
  PipelineOptions Base;
  tune::SearchSpace Space = tune::defaultSearchSpace();
  tune::Evaluator Eval(K, Base, Space,
                       {1, {}, /*MaxEvaluations=*/Space.size()});
  auto Strat = tune::makeSurrogateStrategy(Model, /*TopK=*/8);
  ASSERT_NE(Strat, nullptr);
  EXPECT_STREQ(Strat->name(), "surrogate");

  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  std::optional<tune::ScoredCandidate> Best = Strat->run(Space, Eval, 1);
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  ASSERT_TRUE(Best.has_value());
  // One prediction per candidate in the space, but at most top-K full
  // evaluations.
  EXPECT_EQ(D.counter("model.predictions"), Space.size());
  EXPECT_LE(D.counter("tune.evaluations"), 8u);
  EXPECT_EQ(D.counter("tune.surrogate_evals_saved"), Space.size() - 8);
  EXPECT_EQ(D.counter("tune.surrogate_searches"), 1u);
}

TEST(Surrogate, AutotunerPreservesNeverWorseAndReplaysFromDb) {
  Kernel K = makeRunningExample(8);
  auto Model = trainFor(K);
  auto Dir = freshDir("surrogate-tune");
  tune::TuningDb Db((Dir / "tune.db").string());

  tune::Autotuner::Config Cfg;
  Cfg.Strategy = "surrogate";
  Cfg.Model = Model;
  Cfg.TopK = 8;
  Cfg.MaxEvaluations = tune::defaultSearchSpace().size();
  Cfg.Db = &Db;
  tune::Autotuner Tuner(std::move(Cfg));

  PipelineOptions Base, Tuned;
  TunedConfig Chosen;
  ASSERT_TRUE(Tuner.tune(K, Tuned, Chosen));
  EXPECT_FALSE(Chosen.FromDb);
  double Baseline = tune::predictInflTimeUs(K, Base);
  double TunedUs = tune::predictInflTimeUs(K, Tuned);
  EXPECT_LE(TunedUs, Baseline * (1 + 1e-9));
  if (Chosen.Encoding != "baseline") {
    EXPECT_EQ(Chosen.Strategy, "surrogate");
  }

  // Second call replays the stored decision without a search.
  obs::MetricsSnapshot Before = obs::metrics().snapshot();
  PipelineOptions Tuned2;
  TunedConfig Chosen2;
  ASSERT_TRUE(Tuner.tune(K, Tuned2, Chosen2));
  EXPECT_TRUE(Chosen2.FromDb);
  EXPECT_EQ(Chosen2.Encoding, Chosen.Encoding);
  obs::MetricsSnapshot D = obs::metrics().snapshot().since(Before);
  EXPECT_EQ(D.counter("tune.searches"), 0u);
  EXPECT_EQ(D.counter("model.predictions"), 0u);
}

TEST(Surrogate, ChoiceIndependentOfEvaluatorWorkerCount) {
  Kernel K = makeRunningExample(8);
  auto Model = trainFor(K);
  std::string Encodings[2];
  for (int Pass = 0; Pass < 2; ++Pass) {
    tune::Autotuner::Config Cfg;
    Cfg.Strategy = "surrogate";
    Cfg.Model = Model;
    Cfg.TopK = 8;
    Cfg.MaxEvaluations = tune::defaultSearchSpace().size();
    Cfg.Jobs = Pass == 0 ? 1 : 8;
    tune::Autotuner Tuner(std::move(Cfg));
    PipelineOptions Tuned;
    TunedConfig Chosen;
    ASSERT_TRUE(Tuner.tune(K, Tuned, Chosen));
    Encodings[Pass] = Chosen.Encoding;
  }
  EXPECT_EQ(Encodings[0], Encodings[1]);
}

TEST(Surrogate, NullModelFallsBackToGreedy) {
  EXPECT_EQ(tune::makeSurrogateStrategy(nullptr, 8), nullptr);
  tune::Autotuner::Config Cfg;
  Cfg.Strategy = "surrogate"; // no model attached
  tune::Autotuner Tuner(std::move(Cfg));
  EXPECT_EQ(Tuner.config().Strategy, "greedy");
}

TEST(Surrogate, ConcurrentPredictionOnSharedModel) {
  // The TSan case: the batch compiler's workers all rank candidates
  // against one shared const model. Predictions must race-free agree.
  std::vector<FeatureVector> X;
  std::vector<double> Y;
  buildTrainingSet(X, Y);
  ASSERT_FALSE(X.empty());
  TrainConfig Cfg;
  Cfg.Rounds = 64;
  auto Model =
      std::make_shared<const GbStumpsModel>(trainGbStumps(X, Y, Cfg));

  std::vector<double> Expected;
  for (const FeatureVector &F : X)
    Expected.push_back(Model->predict(F));

  constexpr unsigned Threads = 8;
  std::vector<std::vector<double>> Got(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (const FeatureVector &F : X)
        Got[T].push_back(Model->predict(F));
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T < Threads; ++T) {
    EXPECT_EQ(Got[T], Expected);
  }
}
