//===- tests/DeterminismTests.cpp - Parallel determinism guarantees ----------===//
//
// The determinism contract of docs/PARALLELISM.md, enforced end to end:
// the full pipeline on three workloads × all four strategies produces
// identical cycle counts, move counts, cut weights and data placements at
// --threads=1, 2 and 8, and across repeated runs; the bench harness's
// deterministic-mode JSON records — static and trace-simulated — are
// byte-identical at every thread count; and the exhaustive search (fig9) returns bit-identical point
// clouds and the same optimum masks regardless of how the mask space was
// chunked over workers.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "partition/Exhaustive.h"
#include "partition/Pipeline.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

using namespace gdp;

namespace {

const unsigned ThreadCounts[] = {1, 2, 8};

/// Three representative workloads (one Mediabench codec, two DSP kernels),
/// prepared once for the whole suite.
const std::vector<bench::SuiteEntry> &entries() {
  static std::vector<bench::SuiteEntry> Entries = [] {
    std::vector<bench::SuiteEntry> Out;
    for (const char *Name : {"rawcaudio", "fir", "viterbi"}) {
      bench::SuiteEntry E;
      E.Name = Name;
      E.P = buildWorkload(Name);
      // Trace capture rides along so the simulator determinism tests can
      // share the same entries (it changes nothing observable; see
      // SimTests.TraceHookChangesNothingObservable).
      E.PP = prepareProgram(*E.P, 200000000ULL, /*CaptureTrace=*/true);
      if (!E.PP.Ok)
        ADD_FAILURE() << Name << ": " << E.PP.Error;
      Out.push_back(std::move(E));
    }
    return Out;
  }();
  return Entries;
}

/// The 3 workloads × 4 strategies matrix at move latency 5.
std::vector<bench::EvalTask> fullMatrix() {
  std::vector<bench::EvalTask> Tasks;
  for (const bench::SuiteEntry &E : entries())
    for (StrategyKind K : {StrategyKind::GDP, StrategyKind::ProfileMax,
                           StrategyKind::Naive, StrategyKind::Unified})
      Tasks.push_back({&E, K, 5});
  return Tasks;
}

/// Everything deterministic about one pipeline run.
struct RunObservation {
  uint64_t Cycles = 0;
  uint64_t DynamicMoves = 0;
  uint64_t StaticMoves = 0;
  unsigned RHOPRuns = 0;
  std::vector<int> Homes; ///< Placement, object id order.

  bool operator==(const RunObservation &O) const = default;
};

std::vector<RunObservation> observeMatrix(unsigned Threads) {
  bench::setThreads(Threads);
  std::vector<PipelineResult> Results = bench::runMatrix(fullMatrix());
  std::vector<RunObservation> Out;
  for (const PipelineResult &R : Results) {
    RunObservation Obs;
    Obs.Cycles = R.Cycles;
    Obs.DynamicMoves = R.DynamicMoves;
    Obs.StaticMoves = R.StaticMoves;
    Obs.RHOPRuns = R.RHOPRuns;
    for (unsigned I = 0; I != R.Placement.getNumObjects(); ++I)
      Obs.Homes.push_back(R.Placement.getHome(I));
    Out.push_back(std::move(Obs));
  }
  return Out;
}

TEST(Determinism, PipelineMatrixIdenticalAtEveryThreadCount) {
  std::vector<RunObservation> Baseline = observeMatrix(1);
  ASSERT_EQ(Baseline.size(), 12u); // 3 workloads × 4 strategies.
  for (unsigned Threads : ThreadCounts) {
    std::vector<RunObservation> Got = observeMatrix(Threads);
    ASSERT_EQ(Got.size(), Baseline.size());
    for (size_t I = 0; I != Baseline.size(); ++I) {
      EXPECT_EQ(Got[I].Cycles, Baseline[I].Cycles)
          << "task " << I << " at " << Threads << " threads";
      EXPECT_EQ(Got[I].DynamicMoves, Baseline[I].DynamicMoves)
          << "task " << I << " at " << Threads << " threads";
      EXPECT_EQ(Got[I].StaticMoves, Baseline[I].StaticMoves)
          << "task " << I << " at " << Threads << " threads";
      EXPECT_EQ(Got[I].Homes, Baseline[I].Homes)
          << "placement of task " << I << " at " << Threads << " threads";
    }
  }
}

TEST(Determinism, PipelineMatrixIdenticalAcrossRepeatedRuns) {
  std::vector<RunObservation> First = observeMatrix(8);
  std::vector<RunObservation> Second = observeMatrix(8);
  EXPECT_EQ(First, Second);
}

TEST(Determinism, JsonRecordsByteIdenticalAtEveryThreadCount) {
  // The exact bytes --json --deterministic writes, per task.
  bench::setThreads(1);
  std::vector<std::string> Baseline = bench::runMatrixRecords(fullMatrix());
  ASSERT_EQ(Baseline.size(), 12u);
  for (unsigned Threads : ThreadCounts) {
    bench::setThreads(Threads);
    std::vector<std::string> Got = bench::runMatrixRecords(fullMatrix());
    ASSERT_EQ(Got.size(), Baseline.size());
    for (size_t I = 0; I != Baseline.size(); ++I)
      EXPECT_EQ(Got[I], Baseline[I])
          << "record " << I << " at " << Threads << " threads";
  }
}

TEST(Determinism, JsonRecordsByteIdenticalAcrossRepeatedRuns) {
  bench::setThreads(8);
  EXPECT_EQ(bench::runMatrixRecords(fullMatrix()),
            bench::runMatrixRecords(fullMatrix()));
}

TEST(Determinism, JsonRecordsByteIdenticalWithAndWithoutAffinity) {
  // Core pinning is a placement hint, never an input: the records a pinned
  // pool produces are byte-for-byte the records of an unpinned one, at
  // every thread count (the fig7-affinity experiment's core claim).
  support::setThreadAffinity(false);
  bench::setThreads(1);
  std::vector<std::string> Baseline = bench::runMatrixRecords(fullMatrix());
  ASSERT_EQ(Baseline.size(), 12u);
  for (unsigned Threads : ThreadCounts) {
    bench::setThreads(Threads);
    support::setThreadAffinity(true);
    std::vector<std::string> Got = bench::runMatrixRecords(fullMatrix());
    support::setThreadAffinity(false);
    ASSERT_EQ(Got.size(), Baseline.size());
    for (size_t I = 0; I != Baseline.size(); ++I)
      EXPECT_EQ(Got[I], Baseline[I])
          << "record " << I << " pinned at " << Threads << " threads";
  }
}

TEST(Determinism, SimRecordsByteIdenticalAtEveryThreadCount) {
  // The trace-driven simulator is sequential per task and tasks only fan
  // out across the pool, so its JSON records — cycles, stall breakdown,
  // utilization — are byte-identical at any thread count.
  bench::setThreads(1);
  std::vector<std::string> Baseline = bench::runSimMatrixRecords(fullMatrix());
  ASSERT_EQ(Baseline.size(), 12u);
  for (const std::string &Rec : Baseline)
    EXPECT_NE(Rec.find("\"sim_cycles\""), std::string::npos);
  for (unsigned Threads : ThreadCounts) {
    bench::setThreads(Threads);
    std::vector<std::string> Got = bench::runSimMatrixRecords(fullMatrix());
    ASSERT_EQ(Got.size(), Baseline.size());
    for (size_t I = 0; I != Baseline.size(); ++I)
      EXPECT_EQ(Got[I], Baseline[I])
          << "sim record " << I << " at " << Threads << " threads";
  }
}

TEST(Determinism, SimRecordsByteIdenticalAcrossRepeatedRuns) {
  bench::setThreads(8);
  EXPECT_EQ(bench::runSimMatrixRecords(fullMatrix()),
            bench::runSimMatrixRecords(fullMatrix()));
}

TEST(Determinism, CutWeightIdenticalAtEveryThreadCount) {
  // GDP's graph cut weight is a histogram value (not part of the record
  // counters), observed through per-task shard sessions the way gdptool
  // collects them.
  auto CutWeights = [](unsigned Threads) {
    support::ThreadPool Pool(Threads - 1);
    std::vector<const bench::SuiteEntry *> Es;
    for (const bench::SuiteEntry &E : entries())
      Es.push_back(&E);
    return Pool.parallelMap(Es, [](const bench::SuiteEntry *E) {
      telemetry::TelemetrySession S;
      telemetry::ScopedSession Scope(S);
      PipelineOptions Opt;
      Opt.Strategy = StrategyKind::GDP;
      runStrategy(E->PP, Opt);
      telemetry::LogHistogram V = S.stats().getValue("gdp.cut_weight");
      return std::pair<uint64_t, double>(V.count(), V.sum());
    });
  };
  auto Baseline = CutWeights(1);
  ASSERT_EQ(Baseline.size(), 3u);
  for (const auto &[Count, Sum] : Baseline)
    EXPECT_GT(Count, 0u) << "GDP must record a cut weight";
  for (unsigned Threads : ThreadCounts)
    EXPECT_EQ(CutWeights(Threads), Baseline) << Threads << " threads";
}

TEST(Determinism, ExhaustiveSearchIdenticalAtEveryThreadCount) {
  for (const bench::SuiteEntry &E : entries()) {
    PipelineOptions Opt;
    Opt.MoveLatency = 5;
    ExhaustiveResult Baseline = exhaustiveSearch(E.PP, Opt, 1);
    std::string BaselineRec =
        bench::formatExhaustiveRecord(E.Name, 5, Baseline);
    for (unsigned Threads : ThreadCounts) {
      ExhaustiveResult R = exhaustiveSearch(E.PP, Opt, Threads);
      ASSERT_EQ(R.Points.size(), Baseline.Points.size()) << E.Name;
      for (size_t I = 0; I != R.Points.size(); ++I) {
        EXPECT_EQ(R.Points[I].Mask, Baseline.Points[I].Mask);
        EXPECT_EQ(R.Points[I].Cycles, Baseline.Points[I].Cycles)
            << E.Name << " mask " << I << " at " << Threads << " threads";
        EXPECT_EQ(R.Points[I].Imbalance, Baseline.Points[I].Imbalance);
      }
      EXPECT_EQ(R.BestCycles, Baseline.BestCycles) << E.Name;
      EXPECT_EQ(R.WorstCycles, Baseline.WorstCycles) << E.Name;
      EXPECT_EQ(R.BestMask, Baseline.BestMask)
          << E.Name << ": the tie-break must pick the lowest mask at "
          << Threads << " threads";
      EXPECT_EQ(R.WorstMask, Baseline.WorstMask) << E.Name;
      EXPECT_EQ(R.GDPMask, Baseline.GDPMask) << E.Name;
      EXPECT_EQ(R.ProfileMaxMask, Baseline.ProfileMaxMask) << E.Name;
      // fig9's --json record is byte-identical too.
      EXPECT_EQ(bench::formatExhaustiveRecord(E.Name, 5, R), BaselineRec)
          << E.Name << " at " << Threads << " threads";
    }
  }
}

TEST(Determinism, QuantileAndPrometheusIdenticalAtEveryThreadCount) {
  // The merged session's quantile histograms — and the deterministic part
  // of the Prometheus exposition rendered from it — are byte-identical at
  // any thread count: shards are per-task and merge in input order, and
  // log-bucket merging is exact (tests/MetricsTests.cpp).
  auto Observe = [](unsigned Threads) {
    support::ThreadPool Pool(Threads - 1);
    telemetry::TelemetrySession Main;
    telemetry::ScopedSession Scope(Main);
    std::vector<size_t> Indices(entries().size());
    std::iota(Indices.begin(), Indices.end(), 0);
    std::vector<std::unique_ptr<telemetry::TelemetrySession>> Shards =
        Pool.parallelMap(Indices, [](size_t I) {
          auto S = std::make_unique<telemetry::TelemetrySession>();
          S->adoptTaskContext(telemetry::inheritedContext(),
                              static_cast<int32_t>(I));
          telemetry::ScopedSession Inner(*S);
          for (StrategyKind K :
               {StrategyKind::GDP, StrategyKind::ProfileMax}) {
            PipelineOptions Opt;
            Opt.Strategy = K;
            runStrategy(entries()[I].PP, Opt);
          }
          return S;
        });
    for (const auto &S : Shards)
      Main.mergeFrom(*S);
    // Quantile values per metric plus the full deterministic exposition.
    std::string Prom = Main.stats().toPrometheus(/*IncludeTimers=*/false);
    std::map<std::string, std::vector<double>> Qs;
    for (const auto &[Name, H] : Main.stats().valueSnapshot())
      for (double Q : {0.5, 0.9, 0.99})
        Qs[Name].push_back(H.quantile(Q));
    return std::pair(Prom, Qs);
  };
  entries(); // Warm up: preparation must not record into the first run.
  auto Baseline = Observe(1);
  EXPECT_FALSE(Baseline.second.empty());
  EXPECT_NE(Baseline.first.find("quantile=\"0.99\""), std::string::npos);
  for (unsigned Threads : ThreadCounts) {
    auto Got = Observe(Threads);
    EXPECT_EQ(Got.second, Baseline.second) << Threads << " threads";
    EXPECT_EQ(Got.first, Baseline.first)
        << "Prometheus exposition diverged at " << Threads << " threads";
  }
}

TEST(Determinism, MergedSpanTreeIdenticalAtEveryThreadCount) {
  // The merged trace's structural skeleton — event name, span id, parent
  // id, task index, in merge order — must not depend on the thread count.
  // (Timestamps and durations are wall-clock and excluded.)
  auto Skeleton = [](unsigned Threads) {
    support::ThreadPool Pool(Threads - 1);
    telemetry::TelemetrySession Main;
    telemetry::ScopedSession Scope(Main);
    telemetry::Span Root("matrix", "test");
    std::vector<size_t> Indices(entries().size());
    std::iota(Indices.begin(), Indices.end(), 0);
    std::vector<std::unique_ptr<telemetry::TelemetrySession>> Shards =
        Pool.parallelMap(Indices, [](size_t I) {
          auto S = std::make_unique<telemetry::TelemetrySession>();
          S->adoptTaskContext(telemetry::inheritedContext(),
                              static_cast<int32_t>(I));
          telemetry::ScopedSession Inner(*S);
          PipelineOptions Opt;
          Opt.Strategy = StrategyKind::GDP;
          runStrategy(entries()[I].PP, Opt);
          return S;
        });
    for (const auto &S : Shards)
      Main.mergeFrom(*S);
    Root.stop();
    std::vector<std::tuple<std::string, uint64_t, uint64_t, int32_t>> Out;
    for (const telemetry::TraceEvent &E : Main.trace().events())
      Out.emplace_back(E.Name, E.SpanId, E.ParentId, E.TaskIndex);
    return Out;
  };
  entries(); // Warm up: preparation must not record into the first run.
  auto Baseline = Skeleton(1);
  ASSERT_FALSE(Baseline.empty());
  // Every shard event was re-parented into the root's tree and tagged.
  int32_t MaxTask = -1;
  for (const auto &[Name, Span, Parent, Task] : Baseline)
    if (Name != "matrix") {
      EXPECT_GE(Task, 0) << Name;
      MaxTask = std::max(MaxTask, Task);
    }
  EXPECT_EQ(MaxTask, 2) << "three tasks expected";
  for (unsigned Threads : ThreadCounts)
    EXPECT_EQ(Skeleton(Threads), Baseline) << Threads << " threads";
}

TEST(Determinism, ExhaustiveShardedTelemetryMergesExactly) {
  // Telemetry shards merged at join time must add up to exactly the
  // serial counts: one "exhaustive.points" total and 2^N evaluations.
  const bench::SuiteEntry &E = entries()[0]; // rawcaudio.
  PipelineOptions Opt;
  auto CountersAt = [&](unsigned Threads) {
    telemetry::TelemetrySession S;
    telemetry::ScopedSession Scope(S);
    exhaustiveSearch(E.PP, Opt, Threads);
    return S.stats().counterSnapshot();
  };
  auto Serial = CountersAt(1);
  EXPECT_GT(Serial.at("exhaustive.points"), 0u);
  for (unsigned Threads : ThreadCounts)
    EXPECT_EQ(CountersAt(Threads), Serial) << Threads << " threads";
}

} // namespace
