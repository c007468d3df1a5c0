//===- perfbench/harness.h - Benchmark helpers ------------------*- C++ -*-===//
//
// Part of PolyInject, a reproduction of "Optimizing GPU Deep Learning
// Operators with Polyhedral Scheduling Constraint Injection" (CGO 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pieces of the benchmark that do not touch the compiler: the
/// seeded generator and zipf sampler, percentiles, the span ledger with
/// self-time folding, due-time latency accounting for the open loop,
/// and the result line. Kept free of the library so harness_test can
/// check them in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Microseconds since the first call in this process.
double nowUs();

/// splitmix64: the one random source, so a seed fixes every input.
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : S(Seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, N); N must be positive.
  std::size_t below(std::size_t N);

private:
  std::uint64_t S;
};

/// Zipf(S) over ranks 0..N-1: rank r has weight 1/(r+1)^S.
class Zipf {
public:
  Zipf(std::size_t N, double S);
  std::size_t draw(Rng &R) const;

private:
  std::vector<double> Cdf;
};

/// Nearest-rank percentile \p Q (0 < Q <= 100): the smallest sample
/// with at least Q% of the samples at or below it. 0 when empty.
double percentile(std::vector<double> Samples, double Q);

/// Samples strictly after the nearest-rank position of \p Q in \p N.
std::size_t samplesBeyond(std::size_t N, double Q);

/// The highest of 99.9, 99, 95, 90, 75 and 50 with at least ten samples
/// beyond it among \p N, or 0 when even the median has fewer.
double highestSupportedPercentile(std::size_t N);

/// Geometric mean of positive values; 0 when empty.
double geomean(const std::vector<double> &Values);

/// One timed call into a layer. Parent indexes the enclosing span in
/// the same ledger (-1 for a root); Op is shared by every span of one
/// operator or request. Counters holds the obs::metrics() counter
/// deltas across the call (nonzero entries only).
struct Span {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  int Parent = -1;
  std::uint64_t Op = 0;
  std::map<std::string, std::uint64_t> Counters;

  double durationUs() const { return EndUs - StartUs; }
};

/// In-memory span store. begin/end nest like a stack on one thread.
class Ledger {
public:
  /// Opens a span under the innermost open one; \returns its index.
  int begin(const std::string &Name, std::uint64_t Op);
  /// Closes span \p Index, which must be the innermost open span.
  void end(int Index);
  /// Attaches the counter deltas measured around span \p Index.
  void setCounters(int Index, std::map<std::string, std::uint64_t> C) {
    Spans[Index].Counters = std::move(C);
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Writes one JSON object per span to \p Path. \returns false when the
  /// file could not be written.
  bool write(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  std::vector<int> Open;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children (overlapping children count once).
std::vector<double> selfTimesUs(const std::vector<Span> &Spans);

/// Self times grouped by span name.
std::map<std::string, std::vector<double>>
foldSelfTimes(const std::vector<Span> &Spans);

/// One open-loop request. Times are microseconds on one clock; WallUs
/// is the service time the server reported for the request.
struct RequestTiming {
  double DueUs = 0;
  double SentUs = 0;
  double DoneUs = 0;
  double WallUs = 0;

  /// Latency as the client sees it: from when the request was due, so
  /// a stalled generator charges its delay to every later request.
  double latencyMs() const { return (DoneUs - DueUs) / 1000.0; }
  /// Time the request spent waiting rather than being served.
  double queueWaitMs() const { return (DoneUs - DueUs - WallUs) / 1000.0; }
  /// How late the generator sent the request.
  double latenessMs() const { return (SentUs - DueUs) / 1000.0; }
};

/// Due time of request \p I in a stream offered at \p Rps from \p StartUs.
double dueUs(double StartUs, std::size_t I, double Rps);

/// Peak resident set size of this process in MiB.
double peakRssMb();

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// The result line: {"correct":..,"attempted":..,"failed":..,
/// "metrics":{"name":{"value":..,"unit":".."},..}}.
std::string resultJson(bool Correct, std::uint64_t Attempted,
                       std::uint64_t Failed,
                       const std::vector<Metric> &Metrics);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
