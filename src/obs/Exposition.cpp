//===- obs/Exposition.cpp - Prometheus-style metrics exposition -----------===//

#include "obs/Exposition.h"

#include "obs/Json.h"
#include "obs/Metrics.h"
#include "support/TextFile.h"

#include <chrono>

namespace pinj {
namespace obs {

std::string expositionName(const std::string &Name) {
  std::string Out = "pinj_";
  Out.reserve(Name.size() + 5);
  for (char C : Name) {
    bool Ok = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
              (C >= '0' && C <= '9') || C == '_';
    Out += Ok ? C : '_';
  }
  return Out;
}

namespace {

// Prometheus float formatting: plain decimal, no trailing zeros; the
// json::number helper already does exactly that.
std::string num(double V) { return json::number(V); }

} // namespace

std::string renderExposition(const MetricsSnapshot &S) {
  std::string Out;
  Out.reserve(4096);
  for (const auto &[Name, Value] : S.Counters) {
    std::string M = expositionName(Name);
    Out += "# TYPE " + M + " counter\n";
    Out += M + " " + std::to_string(Value) + "\n";
  }
  for (const auto &[Name, H] : S.Histograms) {
    std::string M = expositionName(Name);
    Out += "# TYPE " + M + " histogram\n";
    // Cumulative le-buckets over the fixed quarter-octave bounds; only
    // boundaries where the cumulative count changes are emitted (plus
    // +Inf), keeping the series compact without losing information.
    std::uint64_t Cum = 0;
    for (std::size_t I = 0; I < H.Buckets.size(); ++I) {
      if (H.Buckets[I] == 0)
        continue;
      Cum += H.Buckets[I];
      Out += M + "_bucket{le=\"" +
             num(Histogram::bucketUpperBound(static_cast<unsigned>(I))) +
             "\"} " + std::to_string(Cum) + "\n";
    }
    Out += M + "_bucket{le=\"+Inf\"} " + std::to_string(H.Count) + "\n";
    Out += M + "_sum " + num(H.Sum) + "\n";
    Out += M + "_count " + std::to_string(H.Count) + "\n";
  }
  return Out;
}

std::string MetricsRegistry::renderExposition() const {
  return obs::renderExposition(snapshot());
}

void ExpositionWriter::start(std::string P, unsigned Interval) {
  if (Running)
    return;
  Path = std::move(P);
  IntervalMs = Interval == 0 ? 1000 : Interval;
  StopRequested = false;
  Running = true;
  Thread = std::thread([this] {
    std::unique_lock<std::mutex> Lock(Mu);
    for (;;) {
      Cv.wait_for(Lock, std::chrono::milliseconds(IntervalMs),
                  [this] { return StopRequested; });
      writeOnce();
      if (StopRequested)
        return;
    }
  });
}

void ExpositionWriter::stop() {
  if (!Running)
    return;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    StopRequested = true;
  }
  Cv.notify_all();
  if (Thread.joinable())
    Thread.join();
  Running = false;
}

void ExpositionWriter::writeOnce() const {
  // Best effort: a failed write leaves the last good scrape in place and
  // the next interval tries again.
  writeFileAtomic(Path, metrics().renderExposition(), nullptr);
}

} // namespace obs
} // namespace pinj
