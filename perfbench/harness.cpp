//===- perfbench/harness.cpp ----------------------------------------------===//

#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sys/resource.h>

using namespace perfbench;

double perfbench::nowUs() {
  static const Clock::time_point Origin = Clock::now();
  return std::chrono::duration<double, std::micro>(Clock::now() - Origin)
      .count();
}

std::uint64_t Rng::next() {
  std::uint64_t Z = (S += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

double Rng::uniform() { return (next() >> 11) * (1.0 / (1ull << 53)); }

std::size_t Rng::below(std::size_t N) {
  return static_cast<std::size_t>(uniform() * static_cast<double>(N));
}

Zipf::Zipf(std::size_t N, double S) {
  double Sum = 0;
  for (std::size_t R = 0; R != N; ++R) {
    Sum += 1.0 / std::pow(static_cast<double>(R + 1), S);
    Cdf.push_back(Sum);
  }
}

std::size_t Zipf::draw(Rng &R) const {
  double U = R.uniform() * Cdf.back();
  std::size_t I = std::upper_bound(Cdf.begin(), Cdf.end(), U) - Cdf.begin();
  return std::min(I, Cdf.size() - 1);
}

namespace {

std::size_t nearestRank(std::size_t N, double Q) {
  auto K = static_cast<std::size_t>(std::ceil(Q / 100.0 * N - 1e-9));
  return std::clamp<std::size_t>(K, 1, N);
}

} // namespace

double perfbench::percentile(std::vector<double> Samples, double Q) {
  if (Samples.empty())
    return 0;
  std::size_t K = nearestRank(Samples.size(), Q);
  std::nth_element(Samples.begin(), Samples.begin() + (K - 1), Samples.end());
  return Samples[K - 1];
}

std::size_t perfbench::samplesBeyond(std::size_t N, double Q) {
  return N == 0 ? 0 : N - nearestRank(N, Q);
}

double perfbench::highestSupportedPercentile(std::size_t N) {
  for (double Q : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
    if (samplesBeyond(N, Q) >= 10)
      return Q;
  return 0;
}

double perfbench::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / static_cast<double>(Values.size()));
}

int Ledger::begin(const std::string &Name, std::uint64_t Op) {
  Span S;
  S.Name = Name;
  S.Op = Op;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartUs = nowUs();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void Ledger::end(int Index) {
  Spans[Index].EndUs = nowUs();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

bool Ledger::write(const std::string &Path) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  char Buf[128];
  for (const Span &S : Spans) {
    std::snprintf(Buf, sizeof(Buf),
                  "{\"start_us\":%.3f,\"end_us\":%.3f,\"parent\":%d,"
                  "\"op\":%llu,",
                  S.StartUs, S.EndUs, S.Parent,
                  static_cast<unsigned long long>(S.Op));
    Out << Buf << "\"name\":\"" << S.Name << "\",\"counters\":{";
    bool First = true;
    for (const auto &[Name, V] : S.Counters) {
      Out << (First ? "" : ",") << '"' << Name << "\":" << V;
      First = false;
    }
    Out << "}}\n";
  }
  Out.flush();
  return static_cast<bool>(Out);
}

std::vector<double> perfbench::selfTimesUs(const std::vector<Span> &Spans) {
  std::vector<std::vector<std::pair<double, double>>> Children(Spans.size());
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Children[S.Parent].push_back({S.StartUs, S.EndUs});
  std::vector<double> Self(Spans.size());
  for (std::size_t I = 0; I != Spans.size(); ++I) {
    const Span &P = Spans[I];
    auto &C = Children[I];
    std::sort(C.begin(), C.end());
    // Union of the children's intervals, clipped to the parent's.
    double Covered = 0, CurStart = 0, CurEnd = 0;
    bool Have = false;
    for (auto [Start, End] : C) {
      Start = std::max(Start, P.StartUs);
      End = std::min(End, P.EndUs);
      if (End <= Start)
        continue;
      if (Have && Start <= CurEnd) {
        CurEnd = std::max(CurEnd, End);
        continue;
      }
      if (Have)
        Covered += CurEnd - CurStart;
      CurStart = Start;
      CurEnd = End;
      Have = true;
    }
    if (Have)
      Covered += CurEnd - CurStart;
    Self[I] = P.durationUs() - Covered;
  }
  return Self;
}

std::map<std::string, std::vector<double>>
perfbench::foldSelfTimes(const std::vector<Span> &Spans) {
  std::vector<double> Self = selfTimesUs(Spans);
  std::map<std::string, std::vector<double>> Out;
  for (std::size_t I = 0; I != Spans.size(); ++I)
    Out[Spans[I].Name].push_back(Self[I]);
  return Out;
}

double perfbench::dueUs(double StartUs, std::size_t I, double Rps) {
  return StartUs + static_cast<double>(I) * 1e6 / Rps;
}

double perfbench::peakRssMb() {
  struct rusage Usage {};
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

std::string perfbench::resultJson(bool Correct, std::uint64_t Attempted,
                                  std::uint64_t Failed,
                                  const std::vector<Metric> &Metrics) {
  std::string Out = "{\"correct\": ";
  Out += Correct ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  char Buf[64];
  for (std::size_t I = 0; I != Metrics.size(); ++I) {
    const Metric &M = Metrics[I];
    double V = std::isfinite(M.Value) ? M.Value : 0;
    std::snprintf(Buf, sizeof(Buf), "%.12g", V);
    Out += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  Out += "}}";
  return Out;
}
