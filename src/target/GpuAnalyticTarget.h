//===- target/GpuAnalyticTarget.h - GPU warp/sector target ------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's analytic GPU model behind the TargetModel interface:
/// 32-lane warps coalescing into 32-byte sectors (transaction model)
/// and the bandwidth-saturation / issue-rate / launch-overhead time
/// model of gpusim/GpuModel.h. simulate() is the one GPU simulation
/// entry point: it owns the gpusim.simulate span, fail-point and
/// counters.
///
//===----------------------------------------------------------------------===//

#ifndef POLYINJECT_TARGET_GPUANALYTICTARGET_H
#define POLYINJECT_TARGET_GPUANALYTICTARGET_H

#include "target/Target.h"

namespace pinj {
namespace target {

/// The registry kind string of this backend.
inline constexpr const char *GpuAnalyticKind = "gpu-analytic";

class GpuAnalyticTarget : public TargetModel {
public:
  explicit GpuAnalyticTarget(GpuModel M = GpuModel()) : M(M) {}

  std::string kind() const override { return GpuAnalyticKind; }
  const GpuModel &model() const { return M; }

  KernelSim accumulateCounters(const MappedKernel &Mk) const override;
  KernelSim finishTime(KernelSim Counters) const override;
  KernelSim simulate(const MappedKernel &Mk) const override;

  std::vector<TargetParam> params() const override;
  bool setParam(const std::string &Name, double Value) override;
  std::pair<double, double>
  paramRange(const std::string &Name) const override;
  std::shared_ptr<TargetModel> clone() const override;

private:
  GpuModel M;
};

} // namespace target
} // namespace pinj

#endif // POLYINJECT_TARGET_GPUANALYTICTARGET_H
