//===- target/GpuAnalyticTarget.cpp ---------------------------------------===//

#include "target/GpuAnalyticTarget.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/FailPoint.h"

#include <algorithm>
#include <cmath>

using namespace pinj;
using namespace pinj::target;

std::vector<TargetParam> GpuAnalyticTarget::params() const {
  return {
      {"WarpSize", static_cast<double>(M.WarpSize)},
      {"SectorBytes", static_cast<double>(M.SectorBytes)},
      {"PeakBandwidthGBs", M.PeakBandwidthGBs},
      {"IssueRateGops", M.IssueRateGops},
      {"LaunchOverheadUs", M.LaunchOverheadUs},
      {"OutstandingRequestsPerWarp", M.OutstandingRequestsPerWarp},
      {"HalfSaturationBytes", M.HalfSaturationBytes},
      {"MinEfficiency", M.MinEfficiency},
      {"NarrowAccessEfficiency", M.NarrowAccessEfficiency},
  };
}

KernelSim GpuAnalyticTarget::accumulateCounters(const MappedKernel &Mk) const {
  SectorTransactionModel Tx(M.WarpSize, M.SectorBytes);
  return accumulateTransactions(Mk, Tx);
}

KernelSim GpuAnalyticTarget::finishTime(KernelSim Counters) const {
  return finishGpuTime(Counters, M);
}

KernelSim GpuAnalyticTarget::simulate(const MappedKernel &Mk) const {
  obs::Span Sp("gpusim.simulate");
  failpoint::hit("gpusim.simulate");
  KernelSim Sim = finishTime(accumulateCounters(Mk));

  static obs::Counter &Kernels =
      obs::metrics().counter("gpusim.kernels_simulated");
  static obs::Counter &Transactions =
      obs::metrics().counter("gpusim.transactions");
  static obs::Histogram &TxPerKernel =
      obs::metrics().histogram("gpusim.transactions_per_kernel");
  Kernels.inc();
  Transactions.add(
      static_cast<std::uint64_t>(std::llround(std::max(0.0, Sim.Transactions))));
  TxPerKernel.observe(Sim.Transactions);
  if (Sp.active())
    Sp.arg("kernel", Mk.K->Name)
        .arg("transactions", Sim.Transactions)
        .arg("warps", Sim.Warps)
        .arg("time_us", Sim.TimeUs);
  return Sim;
}

bool GpuAnalyticTarget::setParam(const std::string &Name, double Value) {
  auto [Lo, Hi] = paramRange(Name);
  if (!(Value >= Lo && Value <= Hi) || !std::isfinite(Value))
    return false;
  if (Name == "WarpSize")
    M.WarpSize = static_cast<unsigned>(Value);
  else if (Name == "SectorBytes")
    M.SectorBytes = static_cast<unsigned>(Value);
  else if (Name == "PeakBandwidthGBs")
    M.PeakBandwidthGBs = Value;
  else if (Name == "IssueRateGops")
    M.IssueRateGops = Value;
  else if (Name == "LaunchOverheadUs")
    M.LaunchOverheadUs = Value;
  else if (Name == "OutstandingRequestsPerWarp")
    M.OutstandingRequestsPerWarp = Value;
  else if (Name == "HalfSaturationBytes")
    M.HalfSaturationBytes = Value;
  else if (Name == "MinEfficiency")
    M.MinEfficiency = Value;
  else if (Name == "NarrowAccessEfficiency")
    M.NarrowAccessEfficiency = Value;
  else
    return false;
  return true;
}

std::pair<double, double>
GpuAnalyticTarget::paramRange(const std::string &Name) const {
  if (Name == "MinEfficiency" || Name == "NarrowAccessEfficiency")
    return {0.001, 1.0};
  if (Name == "WarpSize" || Name == "SectorBytes")
    return {1.0, 4096.0};
  return TargetModel::paramRange(Name);
}

std::shared_ptr<TargetModel> GpuAnalyticTarget::clone() const {
  auto Copy = std::make_shared<GpuAnalyticTarget>(M);
  Copy->rename(name());
  return Copy;
}
