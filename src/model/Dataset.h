//===- model/Dataset.h - Training-sample export -----------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Training data for the cost model: (feature vector, measured gpusim
/// time) pairs produced by replaying tuning candidates through the
/// existing tune::Evaluator — the same scoring primitive the search
/// uses, so the model learns exactly the function the surrogate later
/// approximates. The builder covers each kernel with a deterministic
/// stride over the search space, always including the baseline
/// projection and (when a TuningDb is given) the database's winning
/// encoding for the kernel. Datasets persist in one versioned text
/// file (rename-atomic write, strict load) stamped with the feature
/// schema hash and space signature, so samples from another schema or
/// space shape are rejected rather than silently mistrained on.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_MODEL_DATASET_H
#define POLYINJECT_MODEL_DATASET_H

#include "model/Features.h"
#include "tune/Evaluator.h"
#include "tune/TuningDb.h"

#include <string>
#include <vector>

namespace pinj {
namespace model {

/// One training sample.
struct Sample {
  FeatureVector X;
  /// Measured (simulated) infl-configuration kernel time in µs.
  double TimeUs = 0;
  /// Provenance: kernel name and candidate encoding. Informational
  /// only; must contain no whitespace (the file format is line/token
  /// based — the writer replaces offenders with '_').
  std::string Kernel;
  std::string Encoding;
};

/// A dataset: samples plus the schema/space/target they were extracted
/// under.
struct Dataset {
  std::string SchemaHash;      ///< featureSchemaHash() at build time.
  std::string SpaceSignature;  ///< SearchSpace::signature() at build time.
  /// target::targetIdForOptions of the options the samples were scored
  /// under. Times from different backends (or differently calibrated
  /// constants) describe different functions; stamping the identity
  /// keeps one surrogate from being mistrained on a mix.
  std::string TargetId;
  std::vector<Sample> Samples;
};

/// Sample-building tunables.
struct DatasetBuildConfig {
  /// Candidates evaluated per kernel: the baseline projection, the
  /// TuningDb winner (if any), and a deterministic even stride over the
  /// space enumeration up to this many total.
  std::size_t CandidatesPerKernel = 48;
  /// Evaluator worker threads. Sample values do not depend on it.
  unsigned Jobs = 1;
};

/// Evaluates candidates of \p Space for \p K under \p Base and appends
/// the successful ones to \p D (failed candidates have no finite time
/// to learn from and are skipped). \p Db, when non-null, contributes
/// the stored winner for fingerprintRequest(K, Base). Initializes the
/// dataset's schema/space stamps on first use; asserts they match on
/// subsequent calls. \returns the number of samples appended.
std::size_t appendSamples(Dataset &D, const Kernel &K,
                          const PipelineOptions &Base,
                          const tune::SearchSpace &Space, tune::TuningDb *Db,
                          const DatasetBuildConfig &Cfg);

/// Canonical text form (versioned header, %.17g values; serialize/parse
/// round-trips bit-exactly).
std::string serializeDataset(const Dataset &D);

/// Strict parse of serializeDataset() output. Version bumps, schema
/// mismatches against the current featureSchemaHash(), wrong feature
/// counts and malformed numbers all reject the whole file (counted in
/// model.dataset_rejects).
bool parseDataset(const std::string &Text, Dataset &Out,
                  std::string *Err = nullptr);

/// Rename-atomic write of \p D to \p Path.
bool saveDataset(const Dataset &D, const std::string &Path,
                 std::string *Err = nullptr);

/// Loads and validates a dataset file.
bool loadDataset(const std::string &Path, Dataset &Out,
                 std::string *Err = nullptr);

} // namespace model
} // namespace pinj

#endif // POLYINJECT_MODEL_DATASET_H
