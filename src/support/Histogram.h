//===- support/Histogram.h - Simple statistics accumulator -----*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A streaming statistics accumulator (count / mean / min / max / geomean)
/// used by the benchmark harness to summarize per-benchmark series the way
/// the paper reports averages, plus the telemetry subsystem's value series
/// (LogHistogram below): exact count/sum/min/max with log-bucketed
/// quantiles, the one type every recorded value series is stored as.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_HISTOGRAM_H
#define GDP_SUPPORT_HISTOGRAM_H

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>

namespace gdp {

/// Accumulates a series of double samples and reports summary statistics.
class Stats {
public:
  /// Adds one sample.
  void add(double X);

  uint64_t count() const { return Count; }
  double sum() const { return Sum; }
  double mean() const;
  /// Geometric mean; all samples must have been positive.
  double geomean() const;
  double min() const { return Min; }
  double max() const { return Max; }

private:
  uint64_t Count = 0;
  double Sum = 0;
  double LogSum = 0;
  bool AnyNonPositive = false;
  double Min = 0;
  double Max = 0;
};

namespace telemetry {

/// One value series: its exact count, sum, min and max, plus HDR-style log
/// buckets for quantiles. Each power-of-two octave is split into
/// `SubBucketsPerOctave` equal-width sub-buckets, so a sample lands in a
/// bucket whose width is at most 1/SubBucketsPerOctave of its magnitude
/// (≤ 12.5% relative error at 8 sub-buckets). Bucketing is a pure function
/// of the sample's bits (frexp), so two series built from the same
/// multiset of samples — in any order, on any thread split — have
/// identical buckets, and merging is exact bucket-count addition.
/// Quantiles report the upper edge of the bucket holding the requested
/// rank, which makes p50/p90/p99 deterministic and mergeable.
///
/// Every sample counts toward sum, min and max. Samples that are zero,
/// negative or non-finite carry no magnitude to bucket; they count toward
/// `underflowCount()` and rank below every bucket (quantile reports 0 for
/// them).
class LogHistogram {
public:
  static constexpr int SubBucketsPerOctave = 8;

  /// Bucket index of a positive finite sample: octave * 8 + sub-bucket.
  static int32_t bucketIndex(double V) {
    int Exp;
    double M = std::frexp(V, &Exp); // M in [0.5, 1), V = M * 2^Exp.
    int Sub = static_cast<int>((M - 0.5) * 2 * SubBucketsPerOctave);
    if (Sub >= SubBucketsPerOctave)
      Sub = SubBucketsPerOctave - 1;
    return static_cast<int32_t>(Exp) * SubBucketsPerOctave + Sub;
  }

  /// Exclusive upper edge of bucket \p Index (its quantile representative).
  static double bucketUpperEdge(int32_t Index) {
    int32_t Oct = Index >= 0 ? Index / SubBucketsPerOctave
                             : (Index - (SubBucketsPerOctave - 1)) /
                                   SubBucketsPerOctave;
    int32_t Sub = Index - Oct * SubBucketsPerOctave;
    return std::ldexp(0.5 + static_cast<double>(Sub + 1) /
                                (2 * SubBucketsPerOctave),
                      Oct);
  }

  /// Rebuilds a series from its fields — the decoding half of the serving
  /// layer's binary stats codec (serve/Wire.h). The count is the underflow
  /// plus the bucket counts, so a round trip through (sum(), min(), max(),
  /// underflowCount(), buckets()) is exact and cross-process merges stay
  /// exact too.
  static LogHistogram fromParts(double Sum, double Min, double Max,
                                uint64_t Underflow,
                                std::map<int32_t, uint64_t> Buckets) {
    LogHistogram H;
    H.Sum = Sum;
    H.Min = Min;
    H.Max = Max;
    H.Underflow = H.Total = Underflow;
    for (const auto &[Index, N] : Buckets)
      H.Total += N;
    H.Buckets = std::move(Buckets);
    return H;
  }

  /// Adds \p N samples of value \p V.
  void add(double V, uint64_t N = 1) {
    if (Total == 0) {
      Min = Max = V;
    } else {
      if (V < Min)
        Min = V;
      if (V > Max)
        Max = V;
    }
    Total += N;
    Sum += V * static_cast<double>(N);
    if (!(V > 0) || !std::isfinite(V)) {
      Underflow += N;
      return;
    }
    Buckets[bucketIndex(V)] += N;
  }

  /// Exact, order-independent merge: counts and sums add, extremes widen.
  void merge(const LogHistogram &O) {
    if (O.Total == 0)
      return;
    if (Total == 0) {
      *this = O;
      return;
    }
    Total += O.Total;
    Sum += O.Sum;
    if (O.Min < Min)
      Min = O.Min;
    if (O.Max > Max)
      Max = O.Max;
    Underflow += O.Underflow;
    for (const auto &[Index, N] : O.Buckets)
      Buckets[Index] += N;
  }

  uint64_t count() const { return Total; }
  double sum() const { return Sum; }
  double min() const { return Min; }
  double max() const { return Max; }
  double mean() const { return Total ? Sum / static_cast<double>(Total) : 0; }
  uint64_t underflowCount() const { return Underflow; }
  const std::map<int32_t, uint64_t> &buckets() const { return Buckets; }

  /// Value at quantile \p Q in [0, 1]: the upper edge of the bucket that
  /// contains the sample of rank ceil(Q * count).
  double quantile(double Q) const {
    if (Total == 0)
      return 0;
    double Want = std::ceil(Q * static_cast<double>(Total));
    uint64_t Rank = Want < 1 ? 1 : static_cast<uint64_t>(Want);
    if (Rank > Total)
      Rank = Total;
    uint64_t Acc = Underflow;
    if (Acc >= Rank)
      return 0;
    for (const auto &[Index, N] : Buckets) {
      Acc += N;
      if (Acc >= Rank)
        return bucketUpperEdge(Index);
    }
    return 0; // Unreachable: buckets sum to Total - Underflow.
  }

private:
  std::map<int32_t, uint64_t> Buckets;
  uint64_t Underflow = 0;
  uint64_t Total = 0;
  double Sum = 0;
  double Min = 0;
  double Max = 0;
};

} // namespace telemetry
} // namespace gdp

#endif // GDP_SUPPORT_HISTOGRAM_H
