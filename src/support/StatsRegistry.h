//===- support/StatsRegistry.h - Named counters and histograms --*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A thread-safe registry of named monotonic counters, value series and
/// phase timers — the statistics half of the `gdp::telemetry` subsystem
/// (TELEMETRY.md / docs/OBSERVABILITY.md) and the only metrics registry in
/// the system. Counters count deterministic algorithm events (refinement
/// moves, coarsening levels, interpreted steps); timers hold wall-clock
/// seconds and are kept separate so tests can compare the deterministic
/// part of two runs exactly.
///
/// Export is a flat JSON object with stable (sorted) key order, or
/// Prometheus text exposition format (version 0.0.4): counters as
/// `counter`, value series as `summary` with p50/p90/p99 quantile labels,
/// timers as `_seconds` counters. Metric names are sanitized (dots become
/// underscores, `gdp_` prefix) to satisfy the Prometheus data model.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SUPPORT_STATSREGISTRY_H
#define GDP_SUPPORT_STATSREGISTRY_H

#include "support/Histogram.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace gdp {
namespace telemetry {

/// Thread-safe collection of named statistics.
class StatsRegistry {
public:
  /// Adds \p Delta to the monotonic counter \p Name (created at 0).
  void addCounter(const std::string &Name, uint64_t Delta);

  /// Records one sample of the value series \p Name: its count, sum,
  /// min, max and quantile buckets (support/Histogram.h).
  void recordValue(const std::string &Name, double Value);

  /// Adds \p Seconds to the wall-clock timer \p Name.
  void addTime(const std::string &Name, double Seconds);

  /// Current value of a counter (0 if never touched).
  uint64_t getCounter(const std::string &Name) const;

  /// Current accumulated seconds of a timer (0 if never touched).
  double getTime(const std::string &Name) const;

  /// Snapshot of the value series \p Name (empty if never touched).
  LogHistogram getValue(const std::string &Name) const;

  /// Quantile \p Q of the value series \p Name (0 if never touched).
  double quantile(const std::string &Name, double Q) const;

  /// Number of distinct counters.
  size_t numCounters() const;

  /// Copy of the counter table (for diffing before/after a region).
  std::map<std::string, uint64_t> counterSnapshot() const;

  /// Copy of the timer table.
  std::map<std::string, double> timerSnapshot() const;

  /// Copy of the value-series table.
  std::map<std::string, LogHistogram> valueSnapshot() const;

  /// Merges every counter, value series and timer of \p O into this registry.
  void mergeFrom(const StatsRegistry &O);

  /// Merges a decoded value series into series \p Name — the serving
  /// layer's binary stats codec reconstructs remote registries with it
  /// (serve/Wire.h); exact, like mergeFrom.
  void mergeValue(const std::string &Name, const LogHistogram &V);

  /// Drops all recorded statistics.
  void reset();

  /// Flat JSON object: {"counters":{...},"values":{name:{count,sum,min,
  /// max,mean}},"quantiles":{name:{count,p50,p90,p99}},"timers_sec":{...}}
  /// with keys in sorted order.
  std::string toJson() const;

  /// Prometheus text exposition of every counter and value series, plus
  /// the timers when \p IncludeTimers (false leaves only the
  /// deterministic part, as the determinism tests compare).
  std::string toPrometheus(bool IncludeTimers = true) const;

  /// `gdp_` + \p Name with every character outside [a-zA-Z0-9_:] mapped
  /// to '_' — a valid Prometheus metric name.
  static std::string prometheusName(const std::string &Name);

private:
  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, LogHistogram> Values;
  std::map<std::string, double> Timers;
};

} // namespace telemetry
} // namespace gdp

#endif // GDP_SUPPORT_STATSREGISTRY_H
