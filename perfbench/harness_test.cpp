//===- perfbench/harness_test.cpp - Tests of the benchmark's helpers ------===//

#include "harness.h"

#include <gtest/gtest.h>


using namespace perfbench;

namespace {

Span makeSpan(const char *Name, double Start, double End, int Parent,
              std::uint64_t Op = 0) {
  Span S;
  S.Name = Name;
  S.StartUs = Start;
  S.EndUs = End;
  S.Parent = Parent;
  S.Op = Op;
  return S;
}

TEST(SelfTime, SubtractsChildrenOnce) {
  // op [0,100] with children [10,30], [20,50] (overlapping) and [60,70].
  std::vector<Span> Spans = {
      makeSpan("op", 0, 100, -1),        makeSpan("a", 10, 30, 0),
      makeSpan("b", 20, 50, 0),          makeSpan("c", 60, 70, 0),
      makeSpan("grandchild", 12, 18, 1),
  };
  std::vector<double> Self = selfTimesUs(Spans);
  EXPECT_DOUBLE_EQ(Self[0], 100 - 40 - 10);
  EXPECT_DOUBLE_EQ(Self[1], 20 - 6);
  EXPECT_DOUBLE_EQ(Self[2], 30);
  EXPECT_DOUBLE_EQ(Self[3], 10);
  EXPECT_DOUBLE_EQ(Self[4], 6);
}

TEST(SelfTime, ClipsChildrenToParent) {
  std::vector<Span> Spans = {makeSpan("op", 10, 20, -1),
                             makeSpan("late", 15, 40, 0)};
  EXPECT_DOUBLE_EQ(selfTimesUs(Spans)[0], 5);
}

TEST(SelfTime, FoldsByName) {
  std::vector<Span> Spans = {
      makeSpan("op", 0, 10, -1, 1), makeSpan("x", 0, 4, 0, 1),
      makeSpan("op", 20, 30, -1, 2), makeSpan("x", 21, 22, 2, 2)};
  auto Folded = foldSelfTimes(Spans);
  EXPECT_EQ(Folded["op"], (std::vector<double>{6, 9}));
  EXPECT_EQ(Folded["x"], (std::vector<double>{4, 1}));
}

TEST(Ledger, NestsAndRecordsCounters) {
  Ledger L;
  int Root = L.begin("op", 7);
  int Child = L.begin("child", 7);
  L.end(Child);
  L.setCounters(Child, {{"lp.ilp_solves", 3}});
  L.end(Root);
  int Next = L.begin("op", 8);
  L.end(Next);
  ASSERT_EQ(L.spans().size(), 3u);
  EXPECT_EQ(L.spans()[Child].Parent, Root);
  EXPECT_EQ(L.spans()[Next].Parent, -1);
  EXPECT_EQ(L.spans()[Child].Counters.at("lp.ilp_solves"), 3u);
  EXPECT_LE(L.spans()[Root].StartUs, L.spans()[Child].StartUs);
  EXPECT_GE(L.spans()[Root].EndUs, L.spans()[Child].EndUs);
}

TEST(Percentile, NearestRank) {
  std::vector<double> V;
  for (int I = 1; I <= 100; ++I)
    V.push_back(I);
  EXPECT_EQ(percentile(V, 50), 50);
  EXPECT_EQ(percentile(V, 99), 99);
  EXPECT_EQ(percentile(V, 100), 100);
  EXPECT_EQ(percentile({}, 50), 0);
  EXPECT_EQ(percentile({3, 1, 2}, 50), 2);
}

TEST(Percentile, TenSamplesBeyond) {
  // p99 needs 1000 samples for ten beyond it, p95 200, p90 100.
  EXPECT_EQ(samplesBeyond(1000, 99), 10u);
  EXPECT_EQ(samplesBeyond(999, 99), 9u);
  EXPECT_EQ(highestSupportedPercentile(1000), 99);
  EXPECT_EQ(highestSupportedPercentile(999), 95);
  EXPECT_EQ(highestSupportedPercentile(200), 95);
  EXPECT_EQ(highestSupportedPercentile(199), 90);
  EXPECT_EQ(highestSupportedPercentile(10000), 99.9);
  EXPECT_EQ(highestSupportedPercentile(15), 0);
}

TEST(Rng, SameSeedSameStream) {
  Rng A(42), B(42), C(43);
  bool Differs = false;
  for (int I = 0; I != 100; ++I) {
    std::uint64_t X = A.next();
    EXPECT_EQ(X, B.next());
    Differs |= X != C.next();
  }
  EXPECT_TRUE(Differs);
}

TEST(Zipf, DeterministicAndSkewed) {
  Zipf Z(64, 1.0);
  Rng A(7), B(7);
  std::vector<std::size_t> Count(64);
  for (int I = 0; I != 20000; ++I) {
    std::size_t X = Z.draw(A);
    ASSERT_EQ(X, Z.draw(B));
    ASSERT_LT(X, 64u);
    ++Count[X];
  }
  // Rank 0 has weight 1, rank 1 weight 1/2: about twice as frequent.
  EXPECT_GT(Count[0], Count[1]);
  EXPECT_NEAR(static_cast<double>(Count[0]) / Count[1], 2.0, 0.3);
  EXPECT_GT(Count[1], Count[63]);
}

TEST(DueTime, LatencyCountsFromDueTime) {
  RequestTiming T;
  T.DueUs = dueUs(1000, 3, 100); // 100 rps: due every 10 ms.
  EXPECT_DOUBLE_EQ(T.DueUs, 31000);
  T.SentUs = 33000; // The generator ran 2 ms late.
  T.DoneUs = 41000;
  T.WallUs = 5000; // The server worked 5 ms on it.
  EXPECT_DOUBLE_EQ(T.latencyMs(), 10);
  EXPECT_DOUBLE_EQ(T.latenessMs(), 2);
  EXPECT_DOUBLE_EQ(T.queueWaitMs(), 5);
}

TEST(Result, LastLineShape) {
  std::string J = resultJson(true, 10, 0, {{"latency_p50_ms", 1.25, "ms"}});
  EXPECT_EQ(J, "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
               "\"metrics\": {\"latency_p50_ms\": {\"value\": 1.25, "
               "\"unit\": \"ms\"}}}");
}

TEST(Geomean, OfRatios) {
  EXPECT_DOUBLE_EQ(geomean({}), 0);
  EXPECT_NEAR(geomean({2, 8}), 4, 1e-12);
}

} // namespace
