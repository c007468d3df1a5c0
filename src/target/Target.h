//===- target/Target.h - Pluggable backend targets --------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The backend target subsystem: everything in the pipeline that turns a
/// mapped kernel into microseconds goes through a TargetModel. A target
/// is two halves composed:
///
///   transaction model : lane-group accesses -> memory transactions
///                       (accumulateCounters; the generic lane walk in
///                       gpusim/WarpSimulator.cpp parameterized by
///                       gpusim::TransactionModel), and
///   time model        : transactions + instructions -> microseconds
///                       (finishTime; pure arithmetic over the counters).
///
/// The split is what makes calibration cheap and deterministic: counters
/// do not depend on any time-model constant, so the calibrator
/// (Calibrate.h, tools/polyinject-calibrate.cpp) accumulates each
/// measured row once and re-applies candidate constants to fixed
/// counters.
///
/// Targets are *data, not code*: the registry resolves a name to a
/// built-in preset (v100/a100/p100/cpu-simd) or loads a versioned
/// `.ptgt` file (rename-atomic save, strict load, staleness counted on
/// target.rejects), and every model constant participates in the options
/// fingerprint (service/Fingerprint.cpp) so cache, TuningDb and
/// surrogate-dataset entries never alias across targets.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_TARGET_TARGET_H
#define POLYINJECT_TARGET_TARGET_H

#include "gpusim/GpuModel.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace pinj {

struct PipelineOptions;

namespace target {

/// One named model constant. Every target exposes its constants as a
/// flat ordered name/value list: the calibrator fits them, `.ptgt`
/// files persist them, and the options fingerprint hashes them.
struct TargetParam {
  std::string Name;
  double Value = 0;
};

/// A backend target: transaction model + time model + named constants.
/// Implementations are immutable after construction/loading and safe to
/// share across threads (the daemon's worker pool and the evaluator's
/// worker pool both score against one shared const instance).
class TargetModel {
public:
  virtual ~TargetModel() = default;

  /// The backend family ("gpu-analytic", "cpu-simd"). Determines the
  /// simulation code path; part of the fingerprint identity.
  virtual std::string kind() const = 0;

  /// Display name (preset name or `.ptgt` name line). Labels reports
  /// and diagnostics only — it is *not* hashed; two targets with equal
  /// kind and constants are the same target whatever they are called.
  const std::string &name() const { return DisplayName; }
  void rename(std::string N) { DisplayName = std::move(N); }

  /// Transaction-model half: walks \p M and returns the counters
  /// (Transactions, TransactionBytes, UsefulBytes, MemInstructions,
  /// ComputeInstructions, Warps); time fields stay zero.
  virtual KernelSim accumulateCounters(const MappedKernel &M) const = 0;

  /// Time-model half: fills the time fields from the counters.
  virtual KernelSim finishTime(KernelSim Counters) const = 0;

  /// Full simulation: finishTime(accumulateCounters(M)) plus the
  /// backend's observability (span/metrics).
  virtual KernelSim simulate(const MappedKernel &M) const = 0;

  /// Every model constant in a stable order. The order is part of the
  /// `.ptgt` format and the fingerprint stream.
  virtual std::vector<TargetParam> params() const = 0;

  /// Sets one constant by name; false for an unknown name or a value
  /// outside the parameter's range.
  virtual bool setParam(const std::string &Name, double Value) = 0;

  /// Admissible [lo, hi] for a constant (calibration brackets its line
  /// search with this). Defaults to a wide positive range; efficiency
  /// fractions override to (0, 1].
  virtual std::pair<double, double>
  paramRange(const std::string &Name) const;

  /// Deep copy (the calibrator mutates a clone, never a shared target).
  virtual std::shared_ptr<TargetModel> clone() const = 0;

private:
  std::string DisplayName;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// Built-in target names, stable order: the three GPU presets then
/// "cpu-simd". For --target/--gpu diagnostics.
std::vector<std::string> builtinTargetNames();

/// A fresh instance of a built-in target, or null for an unknown name.
std::shared_ptr<TargetModel> makeBuiltinTarget(const std::string &Name);

/// A default-constructed target of the given kind ("gpu-analytic",
/// "cpu-simd"), or null. The `.ptgt` loader and the calibrator start
/// from this and overwrite constants.
std::shared_ptr<TargetModel> makeTargetOfKind(const std::string &Kind);

/// The one-line list of everything --target accepts, for diagnostics:
/// "v100, a100, p100, cpu-simd, or a .ptgt file path".
std::string availableTargetsHint();

/// Resolves a --target/--gpu spec: a built-in name, else a path to a
/// `.ptgt` file. On failure returns null and fills \p Err with a
/// diagnostic that names the spec and lists the available targets.
std::shared_ptr<TargetModel> resolveTarget(const std::string &Spec,
                                           std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// .ptgt files
//===----------------------------------------------------------------------===//

/// Canonical text form (versioned header, %.17g constants; round-trips
/// bit-exactly through parseTarget).
std::string serializeTarget(const TargetModel &T);

/// Strict parse of serializeTarget output. Version bumps, unknown
/// kinds, unknown/duplicate/missing parameters and malformed numbers
/// all reject the whole file (counted in target.rejects).
std::shared_ptr<TargetModel> parseTarget(const std::string &Text,
                                         std::string *Err = nullptr);

/// Rename-atomic write of \p T to \p Path.
bool saveTargetFile(const TargetModel &T, const std::string &Path,
                    std::string *Err = nullptr);

/// Loads and validates a `.ptgt` file (rejections counted in
/// target.rejects).
std::shared_ptr<TargetModel> loadTargetFile(const std::string &Path,
                                            std::string *Err = nullptr);

//===----------------------------------------------------------------------===//
// Options integration
//===----------------------------------------------------------------------===//

/// The options' effective target: Options.Target when set, else the
/// built-in GPU analytic backend over Options.Gpu (the default). The
/// one place that decides which target scores a configuration:
/// simulation, the tvm proxy, the options fingerprint and the target
/// id all ask it.
std::shared_ptr<const TargetModel> targetFor(const PipelineOptions &O);

/// Simulates \p M under targetFor(O). Every simulation the pipeline and
/// the tuner's evaluator perform goes through here.
KernelSim simulateForOptions(const MappedKernel &M,
                             const PipelineOptions &O);

/// A short stable identity token for targetFor(O):
/// "<kind>-<16 hex>" where the hash covers the kind and every constant
/// (not the display name). Stamps surrogate datasets (model/Dataset.h)
/// so training samples never mix targets.
std::string targetIdForOptions(const PipelineOptions &O);

} // namespace target
} // namespace pinj

#endif // POLYINJECT_TARGET_TARGET_H
