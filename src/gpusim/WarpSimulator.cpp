//===- gpusim/WarpSimulator.cpp -------------------------------------------===//

#include "gpusim/GpuModel.h"

#include "influence/AccessAnalysis.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <cmath>
#include <set>

using namespace pinj;

unsigned pinj::countSectors(
    const std::vector<std::pair<Int, unsigned>> &Accesses,
    unsigned SectorBytes) {
  std::set<Int> Sectors;
  for (const auto &[Addr, Size] : Accesses) {
    Int First = floorDiv(Addr, SectorBytes);
    Int Last = floorDiv(Addr + static_cast<Int>(Size) - 1, SectorBytes);
    for (Int S = First; S <= Last; ++S)
      Sectors.insert(S);
  }
  return Sectors.size();
}

double pinj::SectorTransactionModel::transactionsFor(
    const std::vector<std::pair<Int, unsigned>> &Accesses) const {
  return countSectors(Accesses, Bytes);
}

namespace {

/// Lane access shape of one tensor access inside (or outside) a vector
/// loop.
enum class LaneAccessKind {
  Scalar,    ///< One 4-byte access per instance.
  Vector,    ///< One Width*4-byte access per vector step.
  Broadcast, ///< Constant in the vector iterator: one scalar access.
  Replay     ///< Strided in the vector iterator: Width scalar accesses.
};

/// Per-statement simulation state. Generic over the transaction model:
/// the walk itself only needs the lane-group size and the coalescing
/// rule, so the GPU warp/sector and CPU vector/cache-line targets share
/// it (and share its arithmetic exactly — the GPU path must stay
/// bit-identical to the pre-target-subsystem simulator).
class StmtSimulator {
public:
  StmtSimulator(const MappedKernel &M, const TransactionModel &Tx,
                unsigned Stmt)
      : M(M), K(*M.K), Tx(Tx), LaneCount(Tx.laneCount()), StmtId(Stmt),
        S(K.Stmts[Stmt]), Strides(analyzeStrides(K, S)) {
    // Stride of each access along each *schedule dimension*.
    unsigned ND = M.Dims.size();
    DimStride.assign(Strides.size(), std::vector<Int>(ND, 0));
    for (unsigned A = 0; A != Strides.size(); ++A)
      for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
        if (M.IterDim[StmtId][I] >= 0)
          DimStride[A][M.IterDim[StmtId][I]] = Strides[A].StridePerIter[I];

    // Per-dimension extent for this statement (1 when unbound).
    StmtExtent.assign(ND, 1);
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
      if (M.IterDim[StmtId][I] >= 0)
        StmtExtent[M.IterDim[StmtId][I]] = S.Extents[I];

    VectorDim = -1;
    VectorWidth = 0;
    for (unsigned D = 0; D != ND; ++D) {
      if (M.Dims[D].Role == DimRole::Vector && StmtExtent[D] > 1 &&
          M.Sched.Dims[D].isVectorFor(StmtId)) {
        VectorDim = static_cast<int>(D);
        VectorWidth = M.Dims[D].VectorWidth;
      }
    }
    assert((VectorDim >= 0 || VectorWidth == 0) && "width without dim");
  }

  /// Accumulates this statement's contribution into the totals.
  void accumulate(KernelSim &Sim) {
    unsigned ElemBytes = 4;

    // Thread-dim decomposition of the block's lanes, innermost fastest.
    // Vector dims participate as lane groups: coordinate scale is the
    // vector width (each lane covers Width consecutive iterations).
    std::vector<ThreadDim> ThreadDims;
    for (unsigned D = M.Dims.size(); D-- > 0;) {
      if (M.Dims[D].Role == DimRole::Thread)
        ThreadDims.push_back({D, M.Dims[D].ThreadCount, 1});
      else if (M.Dims[D].Role == DimRole::Vector)
        ThreadDims.push_back(
            {D, M.Dims[D].ThreadCount,
             static_cast<Int>(M.Dims[D].VectorWidth)});
    }
    Int ThreadsPerBlock = 1;
    for (const ThreadDim &T : ThreadDims)
      ThreadsPerBlock = checkedMul(ThreadsPerBlock, T.Count);
    Int WarpsPerBlock =
        std::max<Int>(1, ceilDiv(ThreadsPerBlock, LaneCount));
    Int TotalBlocks = M.numBlocks();
    double TotalWarps =
        static_cast<double>(WarpsPerBlock) * static_cast<double>(TotalBlocks);

    // Per-thread sequential work of this statement: sequential dims plus
    // any leftover of vector dims the lanes and blocks do not cover.
    double StepsPerThread = 1;
    for (unsigned D = 0, ND = M.Dims.size(); D != ND; ++D) {
      const DimMapping &Dim = M.Dims[D];
      if (Dim.Role == DimRole::Seq) {
        StepsPerThread *= static_cast<double>(StmtExtent[D]);
      } else if ((Dim.Role == DimRole::Vector ||
                  Dim.Role == DimRole::Thread) &&
                 StmtExtent[D] > 1) {
        // Lane groups not covered by threads and block splits loop
        // inside each thread (sync-parallel dims keep BlockFactor 1).
        Int Groups = Dim.Role == DimRole::Vector
                         ? ceilDiv(StmtExtent[D], Dim.VectorWidth)
                         : StmtExtent[D];
        Int Covered = checkedMul(Dim.ThreadCount, Dim.BlockFactor);
        StepsPerThread *=
            static_cast<double>(std::max<Int>(1, ceilDiv(Groups, Covered)));
      }
    }

    // Sample a handful of warps of block 0 at two sequential positions.
    const unsigned MaxSampleWarps = 16;
    unsigned SampleCount =
        std::min<unsigned>(MaxSampleWarps, static_cast<unsigned>(
                                               std::min<Int>(WarpsPerBlock,
                                                             1 << 20)));
    double WarpStride =
        static_cast<double>(WarpsPerBlock) / std::max(1u, SampleCount);

    double SumTransactions = 0, SumInstructions = 0, SumActive = 0;
    unsigned Samples = 0;
    for (unsigned WS = 0; WS != SampleCount; ++WS) {
      Int Warp = static_cast<Int>(WS * WarpStride);
      for (Int SeqPos : {Int(0), Int(1)}) {
        double Tx = 0, Instr = 0, Active = 0;
        simulateWarp(Warp, SeqPos, ThreadDims, ElemBytes, Tx, Instr,
                     Active);
        SumTransactions += Tx;
        SumInstructions += Instr;
        SumActive += Active;
        ++Samples;
      }
    }
    static obs::Counter &WarpSamples =
        obs::metrics().counter("gpusim.warps_simulated");
    WarpSamples.add(Samples);
    if (Samples == 0)
      return;
    double AvgTx = SumTransactions / Samples;
    double AvgInstr = SumInstructions / Samples;
    double AvgActive = SumActive / Samples;

    double WarpSteps = TotalWarps * StepsPerThread;
    Sim.Transactions += AvgTx * WarpSteps;
    Sim.TransactionBytes += AvgTx * WarpSteps * Tx.transactionBytes();
    Sim.MemInstructions += AvgInstr * WarpSteps;
    Sim.ComputeInstructions += AvgActive * WarpSteps;
    double Instances = 1;
    for (Int E : S.Extents)
      Instances *= static_cast<double>(E);
    Sim.UsefulBytes += Instances * ElemBytes * (1 + S.Reads.size());
    Sim.Warps = std::max(Sim.Warps, TotalWarps);
  }

private:
  LaneAccessKind accessKind(unsigned A) const {
    if (VectorDim < 0)
      return LaneAccessKind::Scalar;
    Int Stride = DimStride[A][VectorDim];
    if (Stride == 0)
      return LaneAccessKind::Broadcast;
    if (Stride == 1 &&
        isVectorizableAccess(Strides[A],
                             boundIterOf(static_cast<unsigned>(VectorDim)),
                             VectorWidth))
      return LaneAccessKind::Vector;
    return LaneAccessKind::Replay;
  }

  unsigned boundIterOf(unsigned Dim) const {
    for (unsigned I = 0, NI = S.numIters(); I != NI; ++I)
      if (M.IterDim[StmtId][I] == static_cast<int>(Dim))
        return I;
    return 0;
  }

  struct ThreadDim {
    unsigned Dim;
    Int Count;
    Int Scale; ///< Iterator units per lane step (vector width or 1).
  };

  void simulateWarp(Int Warp, Int SeqPos,
                    const std::vector<ThreadDim> &ThreadDims,
                    unsigned ElemBytes, double &TxCount, double &Instr,
                    double &Active) {
    // Base element offset from sequential dims at the sampled position.
    std::vector<Int> BaseCoord(M.Dims.size(), 0);
    for (unsigned D = 0, ND = M.Dims.size(); D != ND; ++D)
      if (M.Dims[D].Role == DimRole::Seq)
        BaseCoord[D] = std::min<Int>(SeqPos, StmtExtent[D] - 1);

    for (unsigned A = 0, NA = Strides.size(); A != NA; ++A) {
      LaneAccessKind Kind = accessKind(A);
      std::vector<std::pair<Int, unsigned>> LaneAccesses;
      unsigned ActiveLanes = 0;
      for (unsigned Lane = 0; Lane != LaneCount; ++Lane) {
        Int Linear = Warp * LaneCount + Lane;
        // Decompose into thread-dim coordinates, innermost fastest.
        bool LaneActive = true;
        Int Remainder = Linear;
        std::vector<Int> Coord = BaseCoord;
        for (const ThreadDim &T : ThreadDims) {
          Int C = (Remainder % T.Count) * T.Scale;
          Remainder /= T.Count;
          // Statements unbound at this dim (extent 1) execute only at
          // coordinate 0; bound ones only within their extent.
          if (C >= StmtExtent[T.Dim]) {
            LaneActive = false;
            break;
          }
          Coord[T.Dim] = C;
        }
        if (Remainder != 0)
          LaneActive = false; // Beyond the block's thread space.
        if (!LaneActive)
          continue;
        ++ActiveLanes;
        Int Elem = Strides[A].ConstOffset;
        for (unsigned D = 0, ND = M.Dims.size(); D != ND; ++D)
          Elem += DimStride[A][D] * Coord[D];
        Int Addr = Elem * ElemBytes;
        switch (Kind) {
        case LaneAccessKind::Scalar:
        case LaneAccessKind::Broadcast:
          LaneAccesses.emplace_back(Addr, ElemBytes);
          Instr += 1;
          break;
        case LaneAccessKind::Vector:
          LaneAccesses.emplace_back(Addr, ElemBytes * VectorWidth);
          Instr += 1;
          break;
        case LaneAccessKind::Replay: {
          Int Stride = DimStride[A][VectorDim];
          for (unsigned E = 0; E != VectorWidth; ++E)
            LaneAccesses.emplace_back(Addr + Stride * ElemBytes * E,
                                      ElemBytes);
          Instr += VectorWidth;
          break;
        }
        }
      }
      TxCount += Tx.transactionsFor(LaneAccesses);
      if (A == 0)
        Active += ActiveLanes; // Count statement instances once.
    }
  }

  const MappedKernel &M;
  const Kernel &K;
  const TransactionModel &Tx;
  unsigned LaneCount;
  unsigned StmtId;
  const Statement &S;
  std::vector<AccessStrides> Strides;
  std::vector<std::vector<Int>> DimStride;
  std::vector<Int> StmtExtent;
  int VectorDim = -1;
  unsigned VectorWidth = 0;
};

} // namespace

KernelSim pinj::accumulateTransactions(const MappedKernel &M,
                                       const TransactionModel &Tx) {
  KernelSim Sim;
  for (unsigned Stmt = 0, E = M.K->Stmts.size(); Stmt != E; ++Stmt) {
    StmtSimulator StmtSim(M, Tx, Stmt);
    StmtSim.accumulate(Sim);
  }
  return Sim;
}

KernelSim pinj::finishGpuTime(KernelSim Sim, const GpuModel &Model) {
  // Analytic time model. Bandwidth saturation depends on the bytes the
  // kernel keeps in flight: a float4 kernel with 4x fewer warps moves
  // the same bytes per request wave as its scalar counterpart.
  double WarpRequests =
      Sim.MemInstructions / std::max(1.0, double(Model.WarpSize));
  double BytesPerRequest =
      WarpRequests > 0 ? Sim.TransactionBytes / WarpRequests : 0.0;
  double BytesPerLane = Sim.MemInstructions > 0
                            ? Sim.UsefulBytes / Sim.MemInstructions
                            : 4.0;
  double Efficiency =
      Model.bandwidthEfficiency(Sim.Warps, BytesPerRequest, BytesPerLane);
  double EffBandwidth = Model.PeakBandwidthGBs * Efficiency; // GB/s
  Sim.MemTimeUs =
      Sim.TransactionBytes / (EffBandwidth * 1e9) * 1e6; // bytes -> us
  Sim.ComputeTimeUs =
      (Sim.MemInstructions + Sim.ComputeInstructions) /
      (Model.IssueRateGops * 1e9) * 1e6;
  Sim.TimeUs =
      Model.LaunchOverheadUs + std::max(Sim.MemTimeUs, Sim.ComputeTimeUs);
  return Sim;
}
