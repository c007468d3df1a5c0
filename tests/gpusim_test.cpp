//===- tests/gpusim_test.cpp - GPU simulator unit tests -------------------===//

#include "codegen/Vectorizer.h"
#include "gpusim/GpuModel.h"
#include "influence/TreeBuilder.h"
#include "sched/Scheduler.h"
#include "target/GpuAnalyticTarget.h"
#include "TestKernels.h"

#include <gtest/gtest.h>

using namespace pinj;

namespace {

/// The GPU-analytic target's full simulation of \p M on \p Model.
KernelSim simulateOn(const MappedKernel &M, const GpuModel &Model) {
  return target::GpuAnalyticTarget(Model).simulate(M);
}

SchedulerOptions baseline() {
  SchedulerOptions O;
  O.SerializeSccs = true;
  return O;
}

KernelSim simulateBaseline(const Kernel &K) {
  SchedulerResult R = scheduleKernel(K, baseline());
  MappedKernel M = mapToGpu(K, R.Sched);
  return simulateOn(M, GpuModel());
}

KernelSim simulateInfluenced(const Kernel &K, bool Vectorize) {
  InfluenceTree Tree = buildInfluenceTree(K, InfluenceOptions());
  SchedulerResult R = scheduleKernel(K, SchedulerOptions(), &Tree);
  finalizeVectorMarks(K, R.Sched, !Vectorize);
  MappedKernel M = mapToGpu(K, R.Sched);
  return simulateOn(M, GpuModel());
}

} // namespace

//===----------------------------------------------------------------------===//
// Sector counting (coalescing rules)
//===----------------------------------------------------------------------===//

TEST(Sectors, FullyCoalescedWarp) {
  // 32 lanes x 4B contiguous = 128B = 4 sectors.
  std::vector<std::pair<Int, unsigned>> Accesses;
  for (Int L = 0; L != 32; ++L)
    Accesses.emplace_back(L * 4, 4);
  EXPECT_EQ(countSectors(Accesses), 4u);
}

TEST(Sectors, FullyStridedWarp) {
  // 32 lanes x 4B at 256B stride: one sector each.
  std::vector<std::pair<Int, unsigned>> Accesses;
  for (Int L = 0; L != 32; ++L)
    Accesses.emplace_back(L * 256, 4);
  EXPECT_EQ(countSectors(Accesses), 32u);
}

TEST(Sectors, BroadcastWarp) {
  std::vector<std::pair<Int, unsigned>> Accesses(32, {1024, 4});
  EXPECT_EQ(countSectors(Accesses), 1u);
}

TEST(Sectors, VectorAccessesContiguous) {
  // 32 lanes x 16B contiguous = 512B = 16 sectors.
  std::vector<std::pair<Int, unsigned>> Accesses;
  for (Int L = 0; L != 32; ++L)
    Accesses.emplace_back(L * 16, 16);
  EXPECT_EQ(countSectors(Accesses), 16u);
}

TEST(Sectors, UnalignedAccessSpansTwoSectors) {
  EXPECT_EQ(countSectors({{30, 4}}), 2u);
  EXPECT_EQ(countSectors({{28, 4}}), 1u);
  EXPECT_EQ(countSectors({{24, 16}}, 32), 2u);
}

TEST(Sectors, EmptyAccessList) { EXPECT_EQ(countSectors({}), 0u); }

TEST(Sectors, WideAccessSplitsAcrossSectors) {
  // One access wider than 128 bits splits over ceil(size / 32) sectors
  // when aligned, one more when it straddles a boundary.
  EXPECT_EQ(countSectors({{0, 64}}), 2u);
  EXPECT_EQ(countSectors({{16, 64}}), 3u);
  EXPECT_EQ(countSectors({{0, 256}}), 8u);
  EXPECT_EQ(countSectors({{4, 256}}), 9u);
}

TEST(Sectors, NegativeStrideCoalescesLikePositive) {
  // Descending lane addresses touch the same sectors as ascending ones.
  std::vector<std::pair<Int, unsigned>> Down, Up;
  for (Int L = 0; L != 32; ++L) {
    Down.emplace_back((31 - L) * 4, 4);
    Up.emplace_back(L * 4, 4);
  }
  EXPECT_EQ(countSectors(Down), countSectors(Up));
  EXPECT_EQ(countSectors(Down), 4u);
  // A descending block not aligned to a sector spans one extra sector.
  std::vector<std::pair<Int, unsigned>> Mis;
  for (Int L = 0; L != 32; ++L)
    Mis.emplace_back(128 - 4 * L, 4);
  EXPECT_EQ(countSectors(Mis), 5u);
}

TEST(Sectors, TransactionModelMatchesGranularity) {
  // The generic transaction model reproduces countSectors at the GPU's
  // 32B granularity and groups 16 contiguous 4B lanes into a single 64B
  // cache line at the CPU's.
  SectorTransactionModel Gpu(32, 32), Cpu(16, 64);
  std::vector<std::pair<Int, unsigned>> Lanes;
  for (Int L = 0; L != 16; ++L)
    Lanes.emplace_back(L * 4, 4);
  EXPECT_EQ(Gpu.transactionsFor(Lanes), 2.0);
  EXPECT_EQ(Cpu.transactionsFor(Lanes), 1.0);
}

//===----------------------------------------------------------------------===//
// Kernel simulation sanity
//===----------------------------------------------------------------------===//

TEST(Simulator, CoalescedElementwiseIsEfficient) {
  Kernel K = makeElementwise(128, 256);
  KernelSim Sim = simulateBaseline(K);
  // Both accesses coalesce: efficiency close to 1.
  EXPECT_GT(Sim.efficiency(), 0.9);
  EXPECT_GT(Sim.Transactions, 0);
  EXPECT_GT(Sim.TimeUs, 0);
}

TEST(Simulator, BadOrderCopyIsInefficient) {
  Kernel K = makeBadOrderCopy(128, 256);
  KernelSim Sim = simulateBaseline(K);
  // Lanes stride by the row size: ~1 sector per lane, 4B useful of 32B.
  EXPECT_LT(Sim.efficiency(), 0.2);
}

TEST(Simulator, InfluenceRepairsBadOrderCopy) {
  Kernel K = makeBadOrderCopy(128, 256);
  KernelSim Isl = simulateBaseline(K);
  KernelSim Novec = simulateInfluenced(K, /*Vectorize=*/false);
  KernelSim Infl = simulateInfluenced(K, /*Vectorize=*/true);
  // The influenced order restores coalescing.
  EXPECT_LT(Novec.Transactions, Isl.Transactions * 0.3);
  EXPECT_LE(Infl.Transactions, Novec.Transactions * 1.05);
  EXPECT_LT(Infl.TimeUs, Isl.TimeUs);
  // Vector types reduce the number of memory instructions by ~4x.
  EXPECT_LT(Infl.MemInstructions, Novec.MemInstructions * 0.5);
}

TEST(Simulator, VectorizationReducesInstructionsOnElementwise) {
  Kernel K = makeElementwise(128, 256);
  KernelSim Novec = simulateInfluenced(K, /*Vectorize=*/false);
  KernelSim Infl = simulateInfluenced(K, /*Vectorize=*/true);
  EXPECT_LT(Infl.MemInstructions, Novec.MemInstructions * 0.6);
  // Transactions stay comparable (already coalesced).
  EXPECT_LE(Infl.Transactions, Novec.Transactions * 1.1);
}

TEST(Simulator, TimeIncludesLaunchOverhead) {
  Kernel K = makeElementwise(4, 4);
  KernelSim Sim = simulateBaseline(K);
  GpuModel Model;
  EXPECT_GE(Sim.TimeUs, Model.LaunchOverheadUs);
}

TEST(Simulator, BiggerTensorsTakeLonger) {
  KernelSim Small = simulateBaseline(makeElementwise(64, 64));
  KernelSim Large = simulateBaseline(makeElementwise(512, 512));
  EXPECT_GT(Large.TimeUs, Small.TimeUs);
  EXPECT_GT(Large.Transactions, Small.Transactions * 10);
}

TEST(Simulator, UsefulBytesMatchProgram) {
  Kernel K = makeElementwise(32, 32);
  KernelSim Sim = simulateBaseline(K);
  // 1 read + 1 write per element, 4B each.
  EXPECT_DOUBLE_EQ(Sim.UsefulBytes, 32 * 32 * 2 * 4.0);
}

//===----------------------------------------------------------------------===//
// Model parameter effects
//===----------------------------------------------------------------------===//

TEST(Simulator, BandwidthScalesTime) {
  Kernel K = makeElementwise(512, 512);
  SchedulerResult R = scheduleKernel(K, baseline());
  MappedKernel M = mapToGpu(K, R.Sched);
  GpuModel Fast;
  GpuModel Slow;
  Slow.PeakBandwidthGBs = Fast.PeakBandwidthGBs / 4;
  KernelSim FastSim = simulateOn(M, Fast);
  KernelSim SlowSim = simulateOn(M, Slow);
  EXPECT_GT(SlowSim.MemTimeUs, FastSim.MemTimeUs * 3.5);
}

TEST(Simulator, SmallLaunchLosesEfficiency) {
  // A tiny kernel cannot saturate bandwidth: its per-byte cost is much
  // higher than a large launch's.
  KernelSim Small = simulateBaseline(makeElementwise(8, 8));
  KernelSim Large = simulateBaseline(makeElementwise(1024, 1024));
  double SmallPerByte = Small.MemTimeUs / Small.TransactionBytes;
  double LargePerByte = Large.MemTimeUs / Large.TransactionBytes;
  EXPECT_GT(SmallPerByte, LargePerByte * 4);
}

TEST(Simulator, VectorAndScalarWavesSaturateAlike) {
  // A vectorized kernel keeps the same bytes in flight with 4x fewer
  // warps; the efficiency model must not punish it.
  Kernel K = makeElementwise(256, 256);
  KernelSim Novec = simulateInfluenced(K, /*Vectorize=*/false);
  KernelSim Infl = simulateInfluenced(K, /*Vectorize=*/true);
  EXPECT_LE(Infl.MemTimeUs, Novec.MemTimeUs * 1.15);
}

//===----------------------------------------------------------------------===//
// Lane-access kinds inside vector loops
//===----------------------------------------------------------------------===//

TEST(Simulator, BroadcastLoadsCoalesceToOneSector) {
  // Bias-add: BIAS[j] is contiguous along the vectorized j, IN/OUT too;
  // the whole kernel coalesces, so efficiency stays high even with the
  // 1D bias tensor in the mix.
  KernelBuilder B("bias");
  unsigned In = B.tensor("IN", {64, 256});
  unsigned Bias = B.tensor("BIAS", {256});
  unsigned Out = B.tensor("OUT", {64, 256});
  B.stmt("S", {{"i", 64}, {"j", 256}})
      .write(Out, {"i", "j"})
      .read(In, {"i", "j"})
      .read(Bias, {"j"})
      .op(OpKind::Add);
  Kernel K = B.build();
  KernelSim Sim = simulateInfluenced(K, /*Vectorize=*/true);
  EXPECT_GT(Sim.efficiency(), 0.85);
}

//===----------------------------------------------------------------------===//
// Golden transaction counts (warp-walk edge cases)
//===----------------------------------------------------------------------===//

namespace {

/// A 1D copy OUT[i] = relu(IN[i]) whose mapping is fully predictable:
/// one parallel dim, Extent threads in one block (for Extent <= 1024).
Kernel make1DCopy(Int Extent) {
  KernelBuilder B("copy1d");
  unsigned In = B.tensor("IN", {Extent});
  unsigned Out = B.tensor("OUT", {Extent});
  B.stmt("S", {{"i", Extent}})
      .write(Out, {"i"})
      .read(In, {"i"})
      .op(OpKind::Relu);
  return B.build();
}

/// Schedules and maps \p K with the baseline scheduler, asserting the
/// one-block all-threads mapping the golden counts below assume.
MappedKernel mapOneBlock(const Kernel &K, Int Threads) {
  SchedulerResult R = scheduleKernel(K, baseline());
  MappedKernel M = mapToGpu(K, R.Sched);
  EXPECT_EQ(M.threadsPerBlock(), Threads);
  EXPECT_EQ(M.numBlocks(), 1);
  return M;
}

} // namespace

TEST(GoldenCounts, PartialLastWarpCountsActiveLanesOnly) {
  // 48 threads = one full warp + one half-full warp. Full warp: 128
  // contiguous bytes = 4 sectors per access; partial warp: 16 active
  // lanes, 64 bytes = 2 sectors per access; 2 accesses (read + write).
  Kernel K = make1DCopy(48);
  MappedKernel M = mapOneBlock(K, 48);
  KernelSim Sim = simulateOn(M, GpuModel());
  EXPECT_DOUBLE_EQ(Sim.Warps, 2.0);
  EXPECT_DOUBLE_EQ(Sim.Transactions, (4 + 2) * 2.0);
  EXPECT_DOUBLE_EQ(Sim.TransactionBytes, 12 * 32.0);
  // Inactive lanes issue nothing: 48 instances x 2 accesses.
  EXPECT_DOUBLE_EQ(Sim.MemInstructions, 48 * 2.0);
  EXPECT_DOUBLE_EQ(Sim.ComputeInstructions, 48.0);
  EXPECT_DOUBLE_EQ(Sim.UsefulBytes, 48 * 2 * 4.0);
}

TEST(GoldenCounts, StrideZeroBroadcastIsOneSectorPerWarp) {
  // OUT[i] = relu(C[0]): the read is stride-0 across the warp, so all
  // 32 lanes hit one sector; the write stays 4 sectors per warp.
  KernelBuilder B("broadcast1d");
  unsigned C = B.tensor("C", {1});
  unsigned Out = B.tensor("OUT", {64});
  B.stmt("S", {{"i", 64}})
      .write(Out, {"i"})
      .read(C, {IndexExpr(Int(0))})
      .op(OpKind::Relu);
  Kernel K = B.build();
  MappedKernel M = mapOneBlock(K, 64);
  KernelSim Sim = simulateOn(M, GpuModel());
  EXPECT_DOUBLE_EQ(Sim.Warps, 2.0);
  EXPECT_DOUBLE_EQ(Sim.Transactions, (4 + 1) * 2.0);
  EXPECT_DOUBLE_EQ(Sim.MemInstructions, 64 * 2.0);
  EXPECT_DOUBLE_EQ(Sim.UsefulBytes, 64 * 2 * 4.0);
}

TEST(GoldenCounts, NegativeStrideCoalescesLikeForward) {
  // OUT[i] = relu(IN[63 - i]): the reversed read touches the same
  // sectors per warp as the forward copy — identical golden counts.
  KernelBuilder B("reverse1d");
  unsigned In = B.tensor("IN", {64});
  unsigned Out = B.tensor("OUT", {64});
  IndexExpr Reversed;
  Reversed.Terms.emplace_back("i", -1);
  Reversed.Constant = 63;
  B.stmt("S", {{"i", 64}})
      .write(Out, {"i"})
      .read(In, {Reversed})
      .op(OpKind::Relu);
  Kernel K = B.build();
  MappedKernel M = mapOneBlock(K, 64);
  KernelSim Rev = simulateOn(M, GpuModel());
  EXPECT_DOUBLE_EQ(Rev.Transactions, (4 + 4) * 2.0);

  Kernel Fwd = make1DCopy(64);
  KernelSim FwdSim = simulateOn(mapOneBlock(Fwd, 64), GpuModel());
  EXPECT_DOUBLE_EQ(Rev.Transactions, FwdSim.Transactions);
  EXPECT_DOUBLE_EQ(Rev.MemInstructions, FwdSim.MemInstructions);
  EXPECT_DOUBLE_EQ(Rev.UsefulBytes, FwdSim.UsefulBytes);
}

TEST(Simulator, ReplayAccessesCostWidthInstructions) {
  // In the repaired hostile op, the read becomes a float4 access too;
  // compare against a kernel whose read stays strided in the vector
  // dim (a transpose read): the latter must issue more instructions
  // per element.
  KernelBuilder B("t");
  unsigned In = B.tensor("IN", {256, 256});
  unsigned Out = B.tensor("OUT", {256, 256});
  B.stmt("T", {{"i", 256}, {"j", 256}})
      .write(Out, {"i", "j"})
      .read(In, {"j", "i"}) // Strided along j: replay in the vector loop.
      .op(OpKind::Assign);
  Kernel K = B.build();
  KernelSim WithReplay = simulateInfluenced(K, /*Vectorize=*/true);
  Kernel Clean = makeElementwise(256, 256);
  KernelSim NoReplay = simulateInfluenced(Clean, /*Vectorize=*/true);
  double ReplayPerElem = WithReplay.MemInstructions / (256.0 * 256.0);
  double CleanPerElem = NoReplay.MemInstructions / (256.0 * 256.0);
  EXPECT_GT(ReplayPerElem, CleanPerElem * 1.5);
}
