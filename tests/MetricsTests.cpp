//===- tests/MetricsTests.cpp - Quantile histogram & Prometheus tests -------===//
//
// Covers the deterministic quantile layer of the stats registry:
// LogHistogram bucketing/merge/quantile semantics, the registry's value
// series and JSON section, and the registry's Prometheus text-exposition
// renderer (including a byte-exact golden for the deterministic part).
//
//===----------------------------------------------------------------------===//

#include "support/StatsRegistry.h"

#include "TestJson.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

using namespace gdp;
using namespace gdp::telemetry;

namespace {

// Deterministic pseudo-random positive samples (no <random> seeding drama).
std::vector<double> lcgSamples(size_t N) {
  std::vector<double> Out;
  uint64_t X = 88172645463325252ULL;
  for (size_t I = 0; I != N; ++I) {
    X = X * 6364136223846793005ULL + 1442695040888963407ULL;
    // Spread over ~9 orders of magnitude.
    Out.push_back(static_cast<double>((X >> 33) % 1000000000 + 1) * 1e-3);
  }
  return Out;
}

TEST(LogHistogram, BucketEdgeBoundsSample) {
  // Every sample is <= the upper edge of its bucket, and the edge is at
  // most one sub-bucket width (12.5%) above it.
  for (double V : {1.0, 1.124, 1.125, 3.0, 0.001, 7e-9, 123456789.0, 0.5}) {
    int32_t Idx = LogHistogram::bucketIndex(V);
    double Edge = LogHistogram::bucketUpperEdge(Idx);
    EXPECT_GE(Edge, V) << V;
    EXPECT_LE(Edge, V * 1.125 * (1 + 1e-12)) << V;
  }
  // Power-of-two boundaries land in the first sub-bucket of their octave.
  EXPECT_EQ(LogHistogram::bucketIndex(1.0), 1 * 8 + 0);
  EXPECT_EQ(LogHistogram::bucketIndex(2.0), 2 * 8 + 0);
  EXPECT_EQ(LogHistogram::bucketIndex(0.5), 0 * 8 + 0);
}

TEST(LogHistogram, NonPositiveAndNonFiniteUnderflow) {
  LogHistogram H;
  H.add(0.0);
  H.add(-5.0);
  H.add(std::nan(""));
  H.add(std::numeric_limits<double>::infinity());
  EXPECT_EQ(H.count(), 4u);
  EXPECT_EQ(H.underflowCount(), 4u);
  EXPECT_TRUE(H.buckets().empty());
  // All mass below every bucket: quantiles report 0.
  EXPECT_EQ(H.quantile(0.5), 0.0);
  EXPECT_EQ(H.quantile(0.99), 0.0);
}

TEST(LogHistogram, QuantileRankSemantics) {
  LogHistogram H;
  for (int I = 1; I <= 10; ++I)
    H.add(static_cast<double>(I));
  // Rank ceil(0.5*10)=5 -> bucket of sample 5; the representative is its
  // upper edge, within 12.5% above.
  double P50 = H.quantile(0.5);
  EXPECT_GE(P50, 5.0);
  EXPECT_LE(P50, 5.0 * 1.125);
  double P100 = H.quantile(1.0);
  EXPECT_GE(P100, 10.0);
  EXPECT_LE(P100, 10.0 * 1.125);
  // Q=0 clamps to rank 1 (the minimum's bucket).
  double P0 = H.quantile(0.0);
  EXPECT_GE(P0, 1.0);
  EXPECT_LE(P0, 1.125);
}

TEST(LogHistogram, SplitMergeEqualsSequential) {
  // Merging K partial histograms is exactly the one-histogram result,
  // regardless of how samples were sharded — the property that makes the
  // session-shard merge deterministic at any thread count.
  std::vector<double> Samples = lcgSamples(5000);
  LogHistogram Whole;
  LogHistogram Parts[3];
  for (size_t I = 0; I != Samples.size(); ++I) {
    Whole.add(Samples[I]);
    Parts[I % 3].add(Samples[I]);
  }
  LogHistogram Merged;
  // Merge in a scrambled order: buckets are commutative.
  Merged.merge(Parts[2]);
  Merged.merge(Parts[0]);
  Merged.merge(Parts[1]);
  EXPECT_EQ(Merged.count(), Whole.count());
  EXPECT_EQ(Merged.underflowCount(), Whole.underflowCount());
  EXPECT_EQ(Merged.buckets(), Whole.buckets());
  for (double Q : {0.0, 0.25, 0.5, 0.9, 0.99, 1.0})
    EXPECT_EQ(Merged.quantile(Q), Whole.quantile(Q)) << Q;
}

TEST(LogHistogram, WeightedAddMatchesRepeatedAdd) {
  LogHistogram A, B;
  A.add(3.5, 7);
  for (int I = 0; I != 7; ++I)
    B.add(3.5);
  EXPECT_EQ(A.buckets(), B.buckets());
  EXPECT_EQ(A.count(), B.count());
}

TEST(StatsRegistry, QuantilesTrackEveryValueSeries) {
  StatsRegistry R;
  for (double X : {1.0, 2.0, 4.0, 8.0})
    R.recordValue("v", X);
  EXPECT_EQ(R.getValue("v").count(), 4u);
  EXPECT_GE(R.quantile("v", 0.5), 2.0);
  EXPECT_LE(R.quantile("v", 0.5), 2.0 * 1.125);
  // Untouched series: empty histogram, quantile 0.
  EXPECT_EQ(R.getValue("nope").count(), 0u);
  EXPECT_EQ(R.quantile("nope", 0.9), 0.0);
}

TEST(StatsRegistry, QuantileSectionInJson) {
  StatsRegistry R;
  for (int I = 0; I != 10; ++I)
    R.recordValue("sched.len", static_cast<double>(I + 1));
  testjson::JVal Doc;
  std::string Err;
  ASSERT_TRUE(testjson::parse(R.toJson(), Doc, Err)) << Err;
  ASSERT_TRUE(Doc.has("quantiles"));
  const testjson::JVal &Q = Doc["quantiles"]["sched.len"];
  EXPECT_EQ(Q["count"].Num, 10);
  EXPECT_DOUBLE_EQ(Q["p50"].Num, R.quantile("sched.len", 0.5));
  EXPECT_DOUBLE_EQ(Q["p90"].Num, R.quantile("sched.len", 0.9));
  EXPECT_DOUBLE_EQ(Q["p99"].Num, R.quantile("sched.len", 0.99));
}

TEST(StatsRegistry, MergePropagatesQuantiles) {
  StatsRegistry A, B;
  A.recordValue("v", 1.0);
  B.recordValue("v", 100.0);
  B.recordValue("only_b", 2.0);
  A.mergeFrom(B);
  EXPECT_EQ(A.getValue("v").count(), 2u);
  EXPECT_EQ(A.getValue("only_b").count(), 1u);
  EXPECT_GE(A.quantile("v", 1.0), 100.0);
}

TEST(MetricsHub, PrometheusNameSanitization) {
  EXPECT_EQ(StatsRegistry::prometheusName("rhop.moves"), "gdp_rhop_moves");
  EXPECT_EQ(StatsRegistry::prometheusName("a-b c\"d"), "gdp_a_b_c_d");
  EXPECT_EQ(StatsRegistry::prometheusName("ok_name:sub"), "gdp_ok_name:sub");
  EXPECT_EQ(StatsRegistry::prometheusName(""), "gdp_");
}

TEST(MetricsHub, PrometheusGolden) {
  // Byte-exact golden of the deterministic exposition (timers excluded):
  // the surface gdpd's prometheus stats format serves, so it is pinned.
  StatsRegistry R;
  R.addCounter("rhop.moves", 42);
  R.recordValue("sched.len", 1.0); // bucket edge 1.125
  R.addTime("wall", 0.25);         // must not appear with IncludeTimers=false
  std::string Got = R.toPrometheus(/*IncludeTimers=*/false);
  const char *Want = "# TYPE gdp_rhop_moves counter\n"
                     "gdp_rhop_moves 42\n"
                     "# TYPE gdp_sched_len summary\n"
                     "gdp_sched_len{quantile=\"0.5\"} 1.125\n"
                     "gdp_sched_len{quantile=\"0.9\"} 1.125\n"
                     "gdp_sched_len{quantile=\"0.99\"} 1.125\n"
                     "gdp_sched_len_sum 1\n"
                     "gdp_sched_len_count 1\n";
  EXPECT_EQ(Got, Want);
  // With timers the wall clock shows up as a _seconds counter.
  std::string WithTimers = R.toPrometheus();
  EXPECT_NE(WithTimers.find("# TYPE gdp_wall_seconds counter\n"
                            "gdp_wall_seconds 0.25\n"),
            std::string::npos);
}

} // namespace
