//===- service/Fingerprint.cpp --------------------------------------------===//

#include "service/Fingerprint.h"

#include "pipeline/Pipeline.h"
#include "target/Target.h"

#include <cstring>

using namespace pinj;
using namespace pinj::service;

namespace {

constexpr std::uint64_t FnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t FnvPrime = 0x100000001b3ull;
// The second lane starts from a different basis and salts every byte,
// making the two lanes independent hash functions over the same stream.
constexpr std::uint64_t Lane2Offset = 0x6c62272e07bb0142ull;
constexpr std::uint8_t Lane2Salt = 0x9e;

} // namespace

std::string Fingerprint::str() const {
  static const char *Digits = "0123456789abcdef";
  std::string Out(32, '0');
  for (unsigned I = 0; I != 16; ++I)
    Out[15 - I] = Digits[(Hi >> (4 * I)) & 0xf];
  for (unsigned I = 0; I != 16; ++I)
    Out[31 - I] = Digits[(Lo >> (4 * I)) & 0xf];
  return Out;
}

bool Fingerprint::fromHex(const std::string &Hex, Fingerprint &Out) {
  if (Hex.size() != 32)
    return false;
  std::uint64_t Lanes[2] = {0, 0};
  for (unsigned I = 0; I != 32; ++I) {
    char C = Hex[I];
    unsigned Nibble;
    if (C >= '0' && C <= '9')
      Nibble = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      Nibble = unsigned(C - 'a') + 10;
    else
      return false;
    Lanes[I / 16] = (Lanes[I / 16] << 4) | Nibble;
  }
  Out.Hi = Lanes[0];
  Out.Lo = Lanes[1];
  return true;
}

FingerprintBuilder::FingerprintBuilder() : Hi(FnvOffset), Lo(Lane2Offset) {}

void FingerprintBuilder::byte(std::uint8_t B) {
  Hi = (Hi ^ B) * FnvPrime;
  Lo = (Lo ^ static_cast<std::uint8_t>(B ^ Lane2Salt)) * FnvPrime;
}

void FingerprintBuilder::u32(std::uint32_t V) {
  for (unsigned I = 0; I != 4; ++I)
    byte(static_cast<std::uint8_t>(V >> (8 * I)));
}

void FingerprintBuilder::u64(std::uint64_t V) {
  for (unsigned I = 0; I != 8; ++I)
    byte(static_cast<std::uint8_t>(V >> (8 * I)));
}

void FingerprintBuilder::f64(double V) {
  std::uint64_t Bits;
  static_assert(sizeof(Bits) == sizeof(V), "double must be 64-bit");
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void FingerprintBuilder::str(const std::string &S) {
  u64(S.size());
  for (char C : S)
    byte(static_cast<std::uint8_t>(C));
}

namespace {

void hashAccess(FingerprintBuilder &H, const Access &A) {
  H.u32(A.TensorId);
  H.byte(A.IsWrite ? 1 : 0);
  H.u64(A.Indices.size());
  for (const IntVector &Row : A.Indices) {
    H.u64(Row.size());
    for (Int V : Row)
      H.i64(V);
  }
}

void hashBudget(FingerprintBuilder &H, const SolverBudget &B) {
  H.u64(B.MaxPivots);
  H.u64(B.MaxIlpNodes);
  H.f64(B.WallMs);
}

} // namespace

Fingerprint service::fingerprintKernel(const Kernel &K) {
  FingerprintBuilder H;
  H.str("pinj-kernel-v1"); // Format tag: bump when the hashed shape changes.
  H.u64(K.numParams());
  H.u64(K.Tensors.size());
  for (const Tensor &T : K.Tensors) {
    // Name erased; identity is the tensor's position (Access::TensorId).
    H.u32(T.ElemBytes);
    H.u64(T.Shape.size());
    for (Int S : T.Shape)
      H.i64(S);
  }
  H.u64(K.Stmts.size());
  for (const Statement &S : K.Stmts) {
    // Statement/iterator names erased; order preserved by stream order.
    H.byte(static_cast<std::uint8_t>(S.Kind));
    H.u64(S.Extents.size());
    for (Int E : S.Extents)
      H.i64(E);
    H.u64(S.OrigBeta.size());
    for (Int B : S.OrigBeta)
      H.i64(B);
    hashAccess(H, S.Write);
    H.u64(S.Reads.size());
    for (const Access &R : S.Reads)
      hashAccess(H, R);
  }
  return H.get();
}

std::uint64_t service::fingerprintOptions(const PipelineOptions &O) {
  FingerprintBuilder H;
  // v3: the GPU machine-model fields were replaced by the canonical
  // target section (kind + every named constant) of the effective
  // target, so `--gpu=v100`, `--target=v100` and the defaults all share
  // cache entries, while any other backend or calibrated constant set
  // never aliases them.
  H.str("pinj-options-v3");
  // SchedulerOptions, with the scheduler's fixed bounds in the places
  // their former fields held (the original-order preference is always
  // on), so an edit of a constant still re-keys every entry.
  H.i64(O.Sched.CoeffBound);
  H.i64(ScheduleConstBound);
  H.byte(O.Sched.ProximityIncludesInput ? 1 : 0);
  H.byte(O.Sched.SerializeSccs ? 1 : 0);
  H.byte(1);
  H.byte(O.Sched.UseFeautrierFallback ? 1 : 0);
  H.u32(MaxScheduleDims);
  hashBudget(H, O.Sched.Budget);
  // InfluenceOptions.
  H.f64(O.Influence.Weights.W1);
  H.f64(O.Influence.Weights.W2);
  H.f64(O.Influence.Weights.W3);
  H.f64(O.Influence.Weights.W4);
  H.f64(O.Influence.Weights.W5);
  H.byte(O.Influence.Weights.PaperFormulaThreadTerm ? 1 : 0);
  H.i64(O.Influence.ThreadLimit);
  H.u32(O.Influence.MaxScenarios);
  H.u32(O.Influence.MaxInnerDims);
  H.u32(O.Influence.MaxVectorWidth);
  // GPU mapping + the effective backend target (the target scores
  // every configuration, so it is compilation-relevant). The canonical
  // form covers the kind and every named constant; the display name is
  // deliberately absent (identity is what the target computes).
  H.i64(O.Mapping.MaxThreadsPerBlock);
  std::shared_ptr<const target::TargetModel> T = target::targetFor(O);
  H.str(T->kind());
  std::vector<target::TargetParam> Params = T->params();
  H.u64(Params.size());
  for (const target::TargetParam &P : Params) {
    H.str(P.Name);
    H.f64(P.Value);
  }
  H.byte(O.Validate ? 1 : 0);
  hashBudget(H, O.Budget);
  return H.get().Hi ^ (H.get().Lo * FnvPrime);
}

Fingerprint service::fingerprintRequest(const Kernel &K,
                                        const PipelineOptions &Options) {
  FingerprintBuilder H;
  H.str("pinj-request-v1");
  Fingerprint KF = fingerprintKernel(K);
  H.u64(KF.Hi);
  H.u64(KF.Lo);
  H.u64(fingerprintOptions(Options));
  return H.get();
}
