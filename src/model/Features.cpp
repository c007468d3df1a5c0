//===- model/Features.cpp - Cost-model feature extraction -----------------===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//

#include "model/Features.h"

#include "influence/AccessAnalysis.h"
#include "service/Fingerprint.h"
#include "support/TextFile.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace pinj {
namespace model {

namespace {

/// Bumping this invalidates every dataset and model file on disk, by
/// design: a schema change silently reinterpreted would mispredict.
const char SchemaVersion[] = "pinj-features-v1";

/// log2(1 + x), the compression applied to every count/size feature so
/// extents spanning 1..10^8 stay on comparable scales.
double lg(double X) { return std::log2(1.0 + std::max(0.0, X)); }

enum FeatureSlot : std::size_t {
  // --- kernel-side ------------------------------------------------------
  FNumStmts = 0,        ///< log2(1+#statements)
  FMaxDepth,            ///< deepest loop nest
  FMeanDepth,           ///< mean loop nest depth
  FLogDomainPoints,     ///< log2(1+sum of statement domain sizes)
  FLogMaxExtent,        ///< log2(1+largest loop extent anywhere)
  FLogMinInnerExtent,   ///< log2(1+smallest original-innermost extent)
  FLogFootprintBytes,   ///< log2(1+sum of tensor footprints)
  FReadsPerStmt,        ///< mean reads per statement
  FReductionFrac,       ///< statements whose write ignores an iterator
  FBroadcastFrac,       ///< statements with a read ignoring an iterator
  FInnerContigFrac,     ///< accesses contiguous in original innermost
  FInnerConstFrac,      ///< accesses constant in original innermost
  FWriteContigFrac,     ///< writes contiguous in original innermost
  FHostileOrderFrac,    ///< stmts whose best-stride iter isn't innermost
  FLogMeanInnerStride,  ///< log2(1+mean |stride| in original innermost)
  FVec4Frac,            ///< stmts with a width-4 vectorizable iterator
  FVec2Frac,            ///< stmts with a width-2 (only) vectorizable iter
  FReusePerTensor,      ///< log2(1+accesses/tensor) — reuse proxy
  FMultiUseTensorFrac,  ///< tensors read by more than one statement
  FParametric,          ///< 1 when the kernel has symbolic parameters
  // --- option-side (tuning knobs) ---------------------------------------
  FOptVectorWidth,      ///< Influence.MaxVectorWidth
  FOptThreadLimit,      ///< log2(Influence.ThreadLimit)
  FOptMaxScenarios,     ///< Influence.MaxScenarios
  FOptMaxInnerDims,     ///< Influence.MaxInnerDims
  FOptMapMaxThreads,    ///< log2(Mapping.MaxThreadsPerBlock)
  FOptProximityInput,   ///< Sched.ProximityIncludesInput
  FOptLogPivotBudget,   ///< log2(1+Sched.Budget.MaxPivots)
  FOptLogNodeBudget,    ///< log2(1+Sched.Budget.MaxIlpNodes)
  NumFeatures
};

const char *const SlotNames[NumFeatures] = {
    "kern.log_num_stmts",
    "kern.max_depth",
    "kern.mean_depth",
    "kern.log_domain_points",
    "kern.log_max_extent",
    "kern.log_min_inner_extent",
    "kern.log_footprint_bytes",
    "kern.reads_per_stmt",
    "kern.reduction_frac",
    "kern.broadcast_frac",
    "kern.inner_contig_frac",
    "kern.inner_const_frac",
    "kern.write_contig_frac",
    "kern.hostile_order_frac",
    "kern.log_mean_inner_stride",
    "kern.vec4_frac",
    "kern.vec2_frac",
    "kern.log_reuse_per_tensor",
    "kern.multi_use_tensor_frac",
    "kern.parametric",
    "opt.max_vector_width",
    "opt.log_thread_limit",
    "opt.max_scenarios",
    "opt.max_inner_dims",
    "opt.log_map_max_threads",
    "opt.proximity_input",
    "opt.log_pivot_budget",
    "opt.log_node_budget",
};

/// Stride-derived slots for one statement, folded into the kernel
/// aggregate by extractFeatures. Separated out so a stride analysis
/// failure (parametric kernel, overflowing address arithmetic) degrades
/// to zeros for this statement only.
struct StmtAccessSummary {
  bool Valid = false;
  bool Reduction = false;
  bool Broadcast = false;
  bool HostileOrder = false;
  double InnerContig = 0; ///< fraction of accesses
  double InnerConst = 0;  ///< fraction of accesses
  bool WriteContig = false;
  double MeanInnerStride = 0;
  unsigned BestVec = 0; ///< 0, 2 or 4
};

StmtAccessSummary summarizeStatement(const Kernel &K, const Statement &S) {
  StmtAccessSummary Sum;
  if (K.numParams() > 0 || S.numIters() == 0)
    return Sum;
  std::vector<AccessStrides> Strides;
  try {
    Strides = analyzeStrides(K, S);
  } catch (...) {
    // Overflowing address arithmetic: no concrete strides to report.
    return Sum;
  }
  Sum.Valid = true;
  unsigned Inner = S.numIters() - 1;

  unsigned Contig = 0, Const = 0;
  double StrideSum = 0;
  for (const AccessStrides &A : Strides) {
    if (A.isContiguousIn(Inner))
      ++Contig;
    if (A.isConstantIn(Inner))
      ++Const;
    StrideSum += std::abs(static_cast<double>(A.StridePerIter[Inner]));
    if (A.IsWrite) {
      Sum.WriteContig = A.isContiguousIn(Inner);
      // A write that ignores one of the loop iterators accumulates over
      // it: the reduction signature.
      for (unsigned I = 0; I < S.numIters(); ++I)
        if (A.isConstantIn(I))
          Sum.Reduction = true;
    } else {
      for (unsigned I = 0; I < S.numIters(); ++I)
        if (A.isConstantIn(I))
          Sum.Broadcast = true;
    }
  }
  double N = static_cast<double>(Strides.size());
  Sum.InnerContig = Contig / N;
  Sum.InnerConst = Const / N;
  Sum.MeanInnerStride = StrideSum / N;

  // Hostile order: some non-innermost iterator would make strictly more
  // accesses contiguous than the original innermost one does — the
  // class of operators influence injection reorders.
  unsigned BestIter = Inner, BestContig = Contig;
  for (unsigned I = 0; I < S.numIters(); ++I) {
    unsigned C = 0;
    for (const AccessStrides &A : Strides)
      if (A.isContiguousIn(I))
        ++C;
    if (C > BestContig) {
      BestContig = C;
      BestIter = I;
    }
  }
  Sum.HostileOrder = BestIter != Inner;

  for (unsigned I = 0; I < S.numIters(); ++I)
    Sum.BestVec = std::max(Sum.BestVec, bestVectorWidth(S, Strides, I, 4));
  return Sum;
}

} // namespace

const std::vector<std::string> &featureNames() {
  static const std::vector<std::string> Names(SlotNames,
                                              SlotNames + NumFeatures);
  return Names;
}

std::size_t featureCount() { return NumFeatures; }

std::size_t firstOptionFeature() { return FOptVectorWidth; }

const std::string &featureSchemaHash() {
  static const std::string Hash = [] {
    service::FingerprintBuilder B;
    B.str(SchemaVersion);
    B.u64(NumFeatures);
    for (const std::string &Name : featureNames())
      B.str(Name);
    return B.get().str();
  }();
  return Hash;
}

FeatureVector extractFeatures(const Kernel &K, const PipelineOptions &O) {
  FeatureVector X(NumFeatures, 0.0);

  double NumStmts = static_cast<double>(K.Stmts.size());
  X[FNumStmts] = lg(NumStmts);
  X[FParametric] = K.numParams() > 0 ? 1.0 : 0.0;

  double DomainPoints = 0, DepthSum = 0, MaxDepth = 0;
  double MaxExtent = 0, MinInnerExtent = 0, ReadSum = 0;
  bool HaveInner = false;
  double Reduction = 0, Broadcast = 0, Hostile = 0, WriteContig = 0;
  double ContigSum = 0, ConstSum = 0, StrideSum = 0;
  double Vec4 = 0, Vec2 = 0, ValidStmts = 0;
  std::vector<unsigned> TensorReaders(K.Tensors.size(), 0);
  double AccessCount = 0;

  for (const Statement &S : K.Stmts) {
    double Depth = static_cast<double>(S.numIters());
    DepthSum += Depth;
    MaxDepth = std::max(MaxDepth, Depth);
    double Points = 1;
    for (Int E : S.Extents) {
      double Ex = static_cast<double>(E);
      Points *= std::max(1.0, Ex);
      MaxExtent = std::max(MaxExtent, Ex);
    }
    DomainPoints += Points;
    if (S.numIters() > 0) {
      double InnerEx = static_cast<double>(S.Extents.back());
      MinInnerExtent = HaveInner ? std::min(MinInnerExtent, InnerEx)
                                 : InnerEx;
      HaveInner = true;
    }
    ReadSum += static_cast<double>(S.Reads.size());
    AccessCount += 1.0 + static_cast<double>(S.Reads.size());
    std::vector<bool> SeenTensor(K.Tensors.size(), false);
    for (const Access &R : S.Reads)
      if (R.TensorId < SeenTensor.size() && !SeenTensor[R.TensorId]) {
        SeenTensor[R.TensorId] = true;
        ++TensorReaders[R.TensorId];
      }

    StmtAccessSummary Sum = summarizeStatement(K, S);
    if (!Sum.Valid)
      continue;
    ValidStmts += 1;
    Reduction += Sum.Reduction ? 1 : 0;
    Broadcast += Sum.Broadcast ? 1 : 0;
    Hostile += Sum.HostileOrder ? 1 : 0;
    WriteContig += Sum.WriteContig ? 1 : 0;
    ContigSum += Sum.InnerContig;
    ConstSum += Sum.InnerConst;
    StrideSum += Sum.MeanInnerStride;
    if (Sum.BestVec >= 4)
      Vec4 += 1;
    else if (Sum.BestVec >= 2)
      Vec2 += 1;
  }

  X[FMaxDepth] = MaxDepth;
  X[FMeanDepth] = NumStmts > 0 ? DepthSum / NumStmts : 0;
  X[FLogDomainPoints] = lg(DomainPoints);
  X[FLogMaxExtent] = lg(MaxExtent);
  X[FLogMinInnerExtent] = HaveInner ? lg(MinInnerExtent) : 0;
  X[FReadsPerStmt] = NumStmts > 0 ? ReadSum / NumStmts : 0;

  double Footprint = 0;
  for (const Tensor &T : K.Tensors) {
    double Elems = 1;
    for (Int S : T.Shape)
      Elems *= std::max(1.0, static_cast<double>(S));
    Footprint += Elems * T.ElemBytes;
  }
  X[FLogFootprintBytes] = lg(Footprint);

  if (ValidStmts > 0) {
    X[FReductionFrac] = Reduction / ValidStmts;
    X[FBroadcastFrac] = Broadcast / ValidStmts;
    X[FInnerContigFrac] = ContigSum / ValidStmts;
    X[FInnerConstFrac] = ConstSum / ValidStmts;
    X[FWriteContigFrac] = WriteContig / ValidStmts;
    X[FHostileOrderFrac] = Hostile / ValidStmts;
    X[FLogMeanInnerStride] = lg(StrideSum / ValidStmts);
    X[FVec4Frac] = Vec4 / ValidStmts;
    X[FVec2Frac] = Vec2 / ValidStmts;
  }

  double NumTensors = static_cast<double>(K.Tensors.size());
  X[FReusePerTensor] = NumTensors > 0 ? lg(AccessCount / NumTensors) : 0;
  double MultiUse = 0;
  for (unsigned Readers : TensorReaders)
    if (Readers > 1)
      MultiUse += 1;
  X[FMultiUseTensorFrac] = NumTensors > 0 ? MultiUse / NumTensors : 0;

  writeOptionFeatures(O, X);
  return X;
}

void writeOptionFeatures(const PipelineOptions &O, FeatureVector &X) {
  assert(X.size() == NumFeatures && "feature vector from another schema");
  X[FOptVectorWidth] = static_cast<double>(O.Influence.MaxVectorWidth);
  X[FOptThreadLimit] = lg(static_cast<double>(O.Influence.ThreadLimit));
  X[FOptMaxScenarios] = static_cast<double>(O.Influence.MaxScenarios);
  X[FOptMaxInnerDims] = static_cast<double>(O.Influence.MaxInnerDims);
  X[FOptMapMaxThreads] =
      lg(static_cast<double>(O.Mapping.MaxThreadsPerBlock));
  X[FOptProximityInput] = O.Sched.ProximityIncludesInput ? 1.0 : 0.0;
  X[FOptLogPivotBudget] =
      lg(static_cast<double>(O.Sched.Budget.MaxPivots));
  X[FOptLogNodeBudget] =
      lg(static_cast<double>(O.Sched.Budget.MaxIlpNodes));
}

std::string serializeFeatures(const FeatureVector &X) {
  std::string Out;
  char Buf[64];
  for (std::size_t I = 0; I < X.size(); ++I) {
    std::snprintf(Buf, sizeof(Buf), "%.17g", X[I]);
    if (I)
      Out += ' ';
    Out += Buf;
  }
  return Out;
}

bool parseFeatures(const std::string &Text, FeatureVector &Out) {
  Out.clear();
  Out.reserve(NumFeatures);
  std::istringstream In(Text);
  std::string Tok;
  while (In >> Tok) {
    if (Out.size() >= NumFeatures)
      return false;
    double V;
    if (!parseFiniteDouble(Tok, V))
      return false;
    Out.push_back(V);
  }
  return Out.size() == NumFeatures;
}

double regressionTarget(double TimeUs) {
  return std::log2(1.0 + std::max(0.0, TimeUs));
}

} // namespace model
} // namespace pinj
