//===- target/Target.cpp - Registry, .ptgt files, options glue ------------===//

#include "target/Target.h"

#include "obs/Metrics.h"
#include "pipeline/Pipeline.h"
#include "support/TextFile.h"
#include "target/CpuSimdTarget.h"
#include "target/GpuAnalyticTarget.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <sstream>

using namespace pinj;
using namespace pinj::target;

namespace fs = std::filesystem;

std::pair<double, double>
TargetModel::paramRange(const std::string &) const {
  return {1e-6, 1e12};
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

std::vector<std::string> target::builtinTargetNames() {
  std::vector<std::string> Names = gpuModelPresetNames();
  Names.push_back(CpuSimdKind);
  return Names;
}

std::shared_ptr<TargetModel> target::makeBuiltinTarget(const std::string &N) {
  if (std::optional<GpuModel> Preset = gpuModelPreset(N)) {
    auto T = std::make_shared<GpuAnalyticTarget>(*Preset);
    T->rename(N);
    return T;
  }
  if (N == CpuSimdKind) {
    auto T = std::make_shared<CpuSimdTarget>();
    T->rename(N);
    return T;
  }
  return nullptr;
}

std::shared_ptr<TargetModel> target::makeTargetOfKind(const std::string &K) {
  if (K == GpuAnalyticKind)
    return std::make_shared<GpuAnalyticTarget>();
  if (K == CpuSimdKind)
    return std::make_shared<CpuSimdTarget>();
  return nullptr;
}

std::string target::availableTargetsHint() {
  std::string Out;
  for (const std::string &N : builtinTargetNames())
    Out += N + ", ";
  Out += "or a .ptgt file path";
  return Out;
}

std::shared_ptr<TargetModel> target::resolveTarget(const std::string &Spec,
                                                   std::string *Err) {
  if (auto T = makeBuiltinTarget(Spec))
    return T;
  // Not a built-in name: accept an existing .ptgt file path.
  std::error_code Ec;
  if (fs::exists(Spec, Ec))
    return loadTargetFile(Spec, Err);
  if (Err)
    *Err = "unknown target '" + Spec +
           "' (available: " + availableTargetsHint() + ")";
  return nullptr;
}

//===----------------------------------------------------------------------===//
// .ptgt files
//===----------------------------------------------------------------------===//

namespace {

// On-disk format (text, one file):
//
//   polyinject-target v1
//   kind <gpu-analytic|cpu-simd>
//   name <token>
//   params <N>
//   param <Name> <value %.17g>
//   ...
//   end
//
// Parsing is strict and all-or-nothing, the model/Dataset.cpp policy: a
// target with silently defaulted constants would score every kernel
// wrong, which is worse than forcing a re-calibration. N must equal the
// kind's full parameter count — a file written under an older or newer
// parameter set is stale and refused.

constexpr const char *FileHeader = "polyinject-target v1";

obs::Counter &rejectCounter() {
  static obs::Counter &C = obs::metrics().counter("target.rejects");
  return C;
}

std::shared_ptr<TargetModel> reject(std::string *Err,
                                    const std::string &Msg) {
  rejectCounter().inc();
  if (Err)
    *Err = Msg;
  return nullptr;
}

/// The strict parser behind parseTarget: builds the target into \p T.
/// \returns the empty string on success, else why the whole file is
/// rejected.
std::string parseTargetText(const std::string &Text,
                            std::shared_ptr<TargetModel> &T) {
  std::istringstream In(Text);
  std::string Line;

  if (!std::getline(In, Line) || Line != FileHeader)
    return "not a polyinject target file (bad header)";

  auto TokLine = [&](const char *Tag, std::string &Dst) {
    if (!std::getline(In, Line))
      return false;
    std::istringstream F(Line);
    std::string T, Extra;
    if (!(F >> T >> Dst) || T != Tag || (F >> Extra))
      return false;
    return true;
  };

  std::string Kind;
  if (!TokLine("kind", Kind))
    return "malformed kind line";
  T = makeTargetOfKind(Kind);
  if (!T)
    return "unknown target kind '" + Kind + "'";

  std::string Name;
  if (!TokLine("name", Name))
    return "malformed name line";
  T->rename(Name);

  std::size_t Count = 0;
  if (!std::getline(In, Line))
    return "truncated target file (no params line)";
  {
    std::istringstream F(Line);
    std::string Tag;
    if (!(F >> Tag >> Count) || Tag != "params")
      return "malformed params line";
  }
  std::size_t Expected = T->params().size();
  if (Count != Expected)
    return "stale target file: " + Kind + " has " +
           std::to_string(Expected) + " parameters, file lists " +
           std::to_string(Count);

  std::vector<std::string> Seen;
  bool SawEnd = false;
  while (std::getline(In, Line)) {
    if (Line == "end") {
      SawEnd = true;
      break;
    }
    std::istringstream F(Line);
    std::string Tag, PName, VTok, Extra;
    double V;
    if (!(F >> Tag >> PName >> VTok) || Tag != "param" || (F >> Extra) ||
        !parseFiniteDouble(VTok, V))
      return "malformed param line: " + Line;
    if (std::find(Seen.begin(), Seen.end(), PName) != Seen.end())
      return "duplicate parameter '" + PName + "'";
    if (!T->setParam(PName, V))
      return "unknown or out-of-range parameter '" + PName + "' = " + VTok;
    Seen.push_back(PName);
  }
  if (!SawEnd)
    return "truncated target file (no end marker)";
  if (Seen.size() != Count)
    return "parameter count mismatch (params line says " +
           std::to_string(Count) + ", file has " +
           std::to_string(Seen.size()) + ")";
  return "";
}

} // namespace

std::string target::serializeTarget(const TargetModel &T) {
  std::ostringstream Out;
  char Buf[64];
  Out << FileHeader << '\n';
  Out << "kind " << T.kind() << '\n';
  Out << "name " << sanitizeToken(T.name()) << '\n';
  std::vector<TargetParam> Params = T.params();
  Out << "params " << Params.size() << '\n';
  for (const TargetParam &P : Params) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", P.Value);
    Out << "param " << P.Name << ' ' << Buf << '\n';
  }
  Out << "end\n";
  return Out.str();
}

std::shared_ptr<TargetModel> target::parseTarget(const std::string &Text,
                                                 std::string *Err) {
  std::shared_ptr<TargetModel> T;
  std::string Why = parseTargetText(Text, T);
  return Why.empty() ? T : reject(Err, Why);
}

bool target::saveTargetFile(const TargetModel &T, const std::string &Path,
                            std::string *Err) {
  return writeFileAtomic(Path, serializeTarget(T), Err);
}

std::shared_ptr<TargetModel> target::loadTargetFile(const std::string &Path,
                                                    std::string *Err) {
  std::string Text;
  if (!readFile(Path, Text))
    return reject(Err, "cannot open target file " + Path);
  std::shared_ptr<TargetModel> T = parseTarget(Text, Err);
  if (T && T->name() == "_")
    T->rename(fs::path(Path).stem().string());
  return T;
}

//===----------------------------------------------------------------------===//
// Options integration
//===----------------------------------------------------------------------===//

std::shared_ptr<const TargetModel>
target::targetFor(const PipelineOptions &O) {
  if (O.Target)
    return O.Target;
  return std::make_shared<GpuAnalyticTarget>(O.Gpu);
}

KernelSim target::simulateForOptions(const MappedKernel &M,
                                     const PipelineOptions &O) {
  return targetFor(O)->simulate(M);
}

std::string target::targetIdForOptions(const PipelineOptions &O) {
  // FNV-1a over kind + ordered constants (bit patterns); the display
  // name is deliberately absent — identity is what the target computes.
  std::uint64_t H = 0xcbf29ce484222325ull;
  auto Byte = [&H](std::uint8_t B) { H = (H ^ B) * 0x100000001b3ull; };
  auto Str = [&](const std::string &S) {
    for (char C : S)
      Byte(static_cast<std::uint8_t>(C));
    Byte(0);
  };
  std::shared_ptr<const TargetModel> T = targetFor(O);
  std::string Kind = T->kind();
  Str(Kind);
  for (const TargetParam &P : T->params()) {
    Str(P.Name);
    std::uint64_t Bits;
    static_assert(sizeof(Bits) == sizeof(P.Value), "double must be 64-bit");
    std::memcpy(&Bits, &P.Value, sizeof(Bits));
    for (unsigned I = 0; I != 8; ++I)
      Byte(static_cast<std::uint8_t>(Bits >> (8 * I)));
  }
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%s-%016llx", Kind.c_str(),
                static_cast<unsigned long long>(H));
  return Buf;
}
