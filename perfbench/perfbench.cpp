//===- perfbench/perfbench.cpp - The repository benchmark ------------------===//
//
// One process runs one workload and prints one JSON record as the last line
// of its standard output (perfbench/run.py builds this binary and drives it):
//
//   perfbench --workload fig7_suite|gen_20k|serve_mixed --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [--sock-dir DIR]
//             [--tiny] [--corrupt-fingerprint]
//
// Workloads (perfbench/README.md says why each was chosen):
//   fig7_suite   the 20 bundled kernels x {Unified, GDP, ProfileMax, Naive},
//                2 clusters, 5-cycle moves; each cell is runStrategy then
//                simulateStrategy. Serial, one thread.
//   gen_20k      one 20k-op generated program x the same four strategies,
//                static schedule only. Serial, one thread.
//   serve_mixed  an in-process cluster (2 shards x 1 worker + coordinator,
//                unix sockets) driven by 2 closed-loop clients; fig7 kernel
//                requests hit the warm prepared-program cache, every 16th
//                request names a fresh generated program and misses.
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// spends half the time untraced and half traced: the traced half runs the
// same pipeline as a sequence of the modules' public calls, each wrapped in
// a span recorded by this file, and reports per-layer time, self time,
// counts and the tracing overhead. Every check below failing makes the
// record say "correct": false and the process exit 1.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/DefUse.h"
#include "analysis/LoopInfo.h"
#include "analysis/PointsTo.h"
#include "gen/Generator.h"
#include "ir/Verifier.h"
#include "machine/MachineModel.h"
#include "partition/AccessMerge.h"
#include "partition/GlobalDataPartitioner.h"
#include "partition/Pipeline.h"
#include "partition/PreparedCache.h"
#include "partition/ProgramGraph.h"
#include "partition/RHOP.h"
#include "profile/ExecTrace.h"
#include "profile/Interpreter.h"
#include "sched/ListScheduler.h"
#include "serve/Client.h"
#include "serve/Coordinator.h"
#include "serve/Server.h"
#include "sim/Simulator.h"
#include "support/Json.h"
#include "support/StrUtil.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace gdp;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

constexpr uint64_t kMaxSteps = 200000000ULL;
constexpr unsigned kClusters = 2;
/// Setting up is repeated at least kMinSetupReps times and until
/// kSetupBudgetSec has passed; setup_s is the median.
constexpr unsigned kMinSetupReps = 5, kMaxSetupReps = 100;
constexpr double kSetupBudgetSec = 1.0;

bool moreSetups(size_t Done, Clock::time_point Start) {
  return Done < kMinSetupReps ||
         (Done < kMaxSetupReps && secondsSince(Start) < kSetupBudgetSec);
}
/// The generated program of gen_20k. Generator seeds differ up to 2.5x in
/// compile cost at 20k ops, which would swamp any regression bound, so the
/// program is pinned (the ROADMAP's measured gen:103 family); --seed
/// permutes the order cells run in.
constexpr uint64_t kGen20kSeed = 103;
/// serve_mixed: one request in kMissEvery names a fresh generated program.
constexpr uint64_t kMissEvery = 16;

const StrategyKind kStrategies[] = {StrategyKind::Unified, StrategyKind::GDP,
                                    StrategyKind::ProfileMax,
                                    StrategyKind::Naive};
const char *const kWireStrategies[] = {"unified", "gdp", "profilemax",
                                       "naive"};
const unsigned kServeLatencies[] = {1, 5, 10};

double median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

/// Nearest-rank percentile (\p Q in [0, 1]).
double percentile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Rank = static_cast<size_t>(std::ceil(Q * static_cast<double>(V.size())));
  return V[std::min(V.size() - 1, Rank ? Rank - 1 : 0)];
}

double geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double L = 0;
  for (double X : V)
    L += std::log(X);
  return std::exp(L / static_cast<double>(V.size()));
}

double peakRssMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  return 0;
}

//===----------------------------------------------------------------------===//
// Span recorder
//===----------------------------------------------------------------------===//

/// One timed call into a layer. Group is the pass / set-up repetition the
/// span belongs to, Id the cell or request it serves.
struct Span {
  std::string Name;
  double BeginUs = 0, EndUs = 0;
  int Parent = -1;
  uint64_t Id = 0;
  int Group = 0;
  unsigned Tid = 0;
};

/// Single-threaded, in-memory span recorder; one per thread that traces.
class Tracer {
public:
  Tracer(Clock::time_point Epoch, unsigned Tid) : Epoch(Epoch), Tid(Tid) {}

  int open(const char *Name, uint64_t Id) {
    Span S;
    S.Name = Name;
    S.BeginUs = nowUs();
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Id = Id;
    S.Group = Group;
    S.Tid = Tid;
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }
  void close(int I) {
    Spans[static_cast<size_t>(I)].EndUs = nowUs();
    Stack.pop_back();
  }

  int Group = 0;
  std::vector<Span> Spans;

private:
  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }
  Clock::time_point Epoch;
  unsigned Tid;
  std::vector<int> Stack;
};

/// RAII span; a null tracer records nothing.
class Scope {
public:
  Scope(Tracer *T, const char *Name, uint64_t Id)
      : T(T), I(T ? T->open(Name, Id) : -1) {}
  ~Scope() {
    if (T)
      T->close(I);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int I;
};

/// Calls \p F inside a span named \p Name.
template <class Fn> auto layer(Tracer *T, const char *Name, uint64_t Id, Fn &&F) {
  Scope S(T, Name, Id);
  return F();
}

/// Per-group totals of span durations (seconds) and of self time per layer
/// (the name's prefix before the first '.'; self time is the span minus
/// the part of it its children cover).
struct SpanTotals {
  std::map<std::string, std::map<int, double>> ByName;
  std::map<std::string, std::map<int, double>> SelfByLayer;
  size_t Count = 0;

  void add(const std::vector<Span> &Spans) {
    std::vector<double> ChildUs(Spans.size(), 0);
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        ChildUs[static_cast<size_t>(S.Parent)] += S.EndUs - S.BeginUs;
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      double Dur = (S.EndUs - S.BeginUs) * 1e-6;
      ByName[S.Name][S.Group] += Dur;
      std::string Layer = S.Name.substr(0, S.Name.find('.'));
      SelfByLayer[Layer][S.Group] += Dur - ChildUs[I] * 1e-6;
    }
    Count += Spans.size();
  }

  /// Median over the groups in [Lo, Hi] of the per-group total (groups
  /// without such a span count as 0).
  static double medianOf(const std::map<std::string, std::map<int, double>> &M,
                         const std::string &Key, int Lo, int Hi) {
    std::vector<double> V;
    auto It = M.find(Key);
    for (int G = Lo; G <= Hi; ++G) {
      double X = 0;
      if (It != M.end()) {
        auto GI = It->second.find(G);
        if (GI != It->second.end())
          X = GI->second;
      }
      V.push_back(X);
    }
    return median(V);
  }
};

bool writeChromeTrace(const std::string &Path,
                      const std::vector<const Tracer *> &Tracers) {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\"traceEvents\": [";
  bool First = true;
  for (const Tracer *T : Tracers)
    for (const Span &S : T->Spans) {
      std::string Parent =
          S.Parent >= 0 ? T->Spans[static_cast<size_t>(S.Parent)].Name : "";
      Out << (First ? "\n" : ",\n")
          << formatStr("{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                       "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                       "\"args\": {\"id\": %llu, \"group\": %d, "
                       "\"parent\": \"%s\"}}",
                       S.Name.c_str(),
                       S.Name.substr(0, S.Name.find('.')).c_str(), S.BeginUs,
                       S.EndUs - S.BeginUs, S.Tid,
                       static_cast<unsigned long long>(S.Id), S.Group,
                       Parent.c_str());
      First = false;
    }
  Out << "\n]}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// Programs and preparation
//===----------------------------------------------------------------------===//

/// A program source: a bundled kernel name or a gen:SEED:OPS spec.
struct Source {
  std::string Name;
  bool Generated = false;
  gen::GenOptions Gen;
};

Source kernelSource(const std::string &Name) { return {Name, false, {}}; }

Source genSource(const std::string &Spec) {
  Source S{Spec, true, {}};
  if (!gen::parseGenSpec(Spec, S.Gen)) {
    std::fprintf(stderr, "perfbench: malformed generated-program spec %s\n",
                 Spec.c_str());
    std::exit(2);
  }
  return S;
}

struct Prog {
  std::string Name;
  std::shared_ptr<Program> P;
  PreparedProgram PP;
  uint64_t StaticOps = 0;
  uint64_t Blocks = 0;
};

/// Builds and prepares \p Src (verify + points-to + profile with trace).
/// Untraced it calls prepareProgram; traced it makes the same calls one by
/// one so each layer gets its own span.
Prog prepare(const Source &Src, Tracer *T, uint64_t Id) {
  Prog G;
  G.Name = Src.Name;
  if (Src.Generated)
    G.P = layer(T, "gen.generate", Id,
                [&] { return gen::generateProgram(Src.Gen); });
  else
    G.P = layer(T, "workloads.build", Id,
                [&] { return buildWorkload(Src.Name); });
  if (!G.P) {
    G.PP.Error = "program failed to build";
    return G;
  }
  G.StaticOps = G.P->getNumOps();
  for (unsigned F = 0; F != G.P->getNumFunctions(); ++F)
    G.Blocks += G.P->getFunction(F).getNumBlocks();
  if (!T) {
    G.PP = prepareProgram(*G.P, kMaxSteps, /*CaptureTrace=*/true);
    return G;
  }
  auto Start = Clock::now();
  PreparedProgram &PP = G.PP;
  PP.P = G.P.get();
  VerifyResult VR =
      layer(T, "ir.verify", Id, [&] { return verifyProgram(*G.P); });
  if (!VR.ok()) {
    PP.Error = "verification failed: " + VR.message();
    return G;
  }
  unsigned Empty = layer(T, "analysis.points_to", Id,
                         [&] { return annotateMemoryAccesses(*G.P); });
  if (Empty != 0) {
    PP.Error = "memory operations with empty access sets";
    return G;
  }
  Interpreter Interp(*G.P);
  PP.Trace = std::make_shared<ExecTrace>();
  Interp.setTrace(PP.Trace.get());
  InterpResult IR =
      layer(T, "profile.interpret", Id, [&] { return Interp.run(kMaxSteps); });
  if (!IR.Ok) {
    PP.Error = "profiling run failed: " + IR.Error;
    return G;
  }
  PP.Prof = Interp.getProfile();
  PP.Prof.applyHeapSizes(*G.P);
  PP.Ok = true;
  PP.PrepareSeconds = secondsSince(Start);
  return G;
}

/// One DefUse, and one CFG + LoopInfo, per function of \p G: what a single
/// construction of each analysis costs (the pipeline builds them again
/// inside ProgramGraph, RHOP and the scheduler; the benchmark cannot see
/// how often from outside).
void probeAnalyses(const Prog &G, Tracer *T, uint64_t Id) {
  {
    Scope S(T, "analysis.defuse_build", Id);
    for (unsigned F = 0; F != G.P->getNumFunctions(); ++F)
      DefUse DU(G.P->getFunction(F));
  }
  {
    Scope S(T, "analysis.loops_build", Id);
    for (unsigned F = 0; F != G.P->getNumFunctions(); ++F) {
      CFG Cfg(G.P->getFunction(F));
      LoopInfo LI(G.P->getFunction(F), Cfg);
    }
  }
}

//===----------------------------------------------------------------------===//
// Cells: one strategy on one program
//===----------------------------------------------------------------------===//

struct Fingerprint {
  uint64_t Cycles = 0, DynMoves = 0, StaticMoves = 0;
  bool operator==(const Fingerprint &O) const {
    return Cycles == O.Cycles && DynMoves == O.DynMoves &&
           StaticMoves == O.StaticMoves;
  }
};

struct CellResult {
  bool Failed = false;
  std::string Error;
  Fingerprint Fp;
  DataPlacement Placement;
  ClusterAssignment Assignment;
  bool Simulated = false;
  SimResult Sim;
  double CompileSec = 0; ///< runStrategy (or its recomposition).
  double CellSec = 0;    ///< CompileSec plus the simulation.
  /// Untraced only: the pipeline's own PhaseTimes::DataPartitionSeconds.
  double PipelineDataPartitionSec = 0;
  unsigned RhopRuns = 0;
  // Traced GDP cells only.
  uint64_t GraphNodes = 0, MergedGroups = 0, CutWeight = 0;
};

/// Objects' dynamic access counts per cluster under a computation
/// partition (what ProfileMax and Naive rank objects by).
std::vector<std::vector<uint64_t>>
accessByCluster(const Program &P, const ProfileData &Prof,
                const ClusterAssignment &CA) {
  std::vector<std::vector<uint64_t>> Counts(
      P.getNumObjects(), std::vector<uint64_t>(kClusters, 0));
  for (unsigned F = 0; F != P.getNumFunctions(); ++F)
    for (const auto &BB : P.getFunction(F).blocks())
      for (const auto &Op : BB->operations()) {
        if (!Op->isMemoryAccess())
          continue;
        unsigned OpId = static_cast<unsigned>(Op->getId());
        unsigned C = static_cast<unsigned>(CA.get(F, OpId));
        for (const auto &[Obj, Count] : Prof.getAccessMap(F, OpId))
          Counts[static_cast<unsigned>(Obj)][C] += Count;
      }
  return Counts;
}

/// runStrategy rebuilt from the partition/sched modules' public calls, each
/// in its own span. Covers the clean paths of the four strategies (no
/// degradation ladder); a cell that would need it fails, and any other
/// divergence shows as a fingerprint mismatch against the untraced run.
void recomposeStrategy(const Prog &G, StrategyKind K, const MachineModel &MM,
                       Tracer *T, uint64_t Id, CellResult &C) {
  const Program &P = *G.P;
  const ProfileData &Prof = G.PP.Prof;
  auto Rhop = [&](const LockMap *Locks) {
    ++C.RhopRuns;
    return layer(T, "partition.rhop", Id,
                 [&] { return runRHOP(P, Prof, MM, Locks); });
  };
  auto LockedRhop = [&] {
    LockMap Locks = buildLockMap(P, C.Placement, Prof);
    C.Assignment = Rhop(&Locks);
  };
  switch (K) {
  case StrategyKind::GDP: {
    // Probes: runGlobalDataPartitioning builds both again inside; timing
    // them apart splits its time into graph build, merge and cut.
    ProgramGraph PG = layer(T, "partition.program_graph", Id,
                            [&] { return ProgramGraph(P, Prof); });
    AccessMerge AM = layer(T, "partition.access_merge", Id,
                           [&] { return AccessMerge(PG, P); });
    C.GraphNodes = PG.getNumNodes();
    C.MergedGroups = AM.getNumGroups();
    GDPOptions DataOpt;
    DataOpt.MemCapacityBytes = MM.getClusterMemoryBytes();
    GDPResult D = layer(T, "partition.gdp", Id, [&] {
      return runGlobalDataPartitioning(P, Prof, MM.getNumClusters(), DataOpt);
    });
    if (!D.Feasible) {
      C.Failed = true;
      C.Error = "GDP cut infeasible: the traced run does not replay the "
                "degradation ladder";
      return;
    }
    C.CutWeight = D.CutWeight;
    C.Placement = D.Placement;
    LockedRhop();
    break;
  }
  case StrategyKind::ProfileMax: {
    ClusterAssignment First = Rhop(nullptr);
    {
      // Objects grouped as in GDP's coarsening, then placed greedily by
      // dynamic frequency under a byte cap, as in the pipeline (tolerance
      // 0.125).
      Scope Place(T, "partition.profilemax_place", Id);
      ProgramGraph PG(P, Prof);
      std::vector<std::vector<int>> Cls = AccessMerge(PG, P).objectClasses();
      auto Counts = accessByCluster(P, Prof, First);
      struct Info {
        unsigned Index;
        uint64_t Total = 0, Bytes = 0;
        std::vector<uint64_t> Per;
      };
      std::vector<Info> Infos;
      uint64_t TotalBytes = 0;
      for (unsigned I = 0; I != Cls.size(); ++I) {
        Info In{I, 0, 0, std::vector<uint64_t>(kClusters, 0)};
        for (int Obj : Cls[I]) {
          In.Bytes += P.getObject(static_cast<unsigned>(Obj)).getSizeBytes();
          for (unsigned Cl = 0; Cl != kClusters; ++Cl) {
            In.Per[Cl] += Counts[static_cast<unsigned>(Obj)][Cl];
            In.Total += Counts[static_cast<unsigned>(Obj)][Cl];
          }
        }
        TotalBytes += In.Bytes;
        Infos.push_back(std::move(In));
      }
      std::sort(Infos.begin(), Infos.end(), [](const Info &A, const Info &B) {
        return A.Total != B.Total ? A.Total > B.Total : A.Index < B.Index;
      });
      double Cap = 1.125 * static_cast<double>(TotalBytes) / kClusters;
      std::vector<uint64_t> Bytes(kClusters, 0);
      C.Placement = DataPlacement(P.getNumObjects());
      for (const Info &In : Infos) {
        unsigned Pref = 0;
        for (unsigned Cl = 1; Cl != kClusters; ++Cl)
          if (In.Per[Cl] > In.Per[Pref])
            Pref = Cl;
        unsigned Chosen = Pref;
        if (static_cast<double>(Bytes[Pref] + In.Bytes) > Cap)
          for (unsigned Cl = 0; Cl != kClusters; ++Cl)
            if (Bytes[Cl] < Bytes[Chosen])
              Chosen = Cl;
        for (int Obj : Cls[In.Index])
          C.Placement.setHome(static_cast<unsigned>(Obj),
                              static_cast<int>(Chosen));
        Bytes[Chosen] += In.Bytes;
      }
    }
    LockedRhop();
    break;
  }
  case StrategyKind::Naive: {
    C.Assignment = Rhop(nullptr);
    auto Counts = accessByCluster(P, Prof, C.Assignment);
    C.Placement = DataPlacement(P.getNumObjects());
    for (unsigned Obj = 0; Obj != P.getNumObjects(); ++Obj) {
      unsigned Best = 0;
      for (unsigned Cl = 1; Cl != kClusters; ++Cl)
        if (Counts[Obj][Cl] > Counts[Obj][Best])
          Best = Cl;
      C.Placement.setHome(Obj, static_cast<int>(Best));
    }
    for (unsigned F = 0; F != P.getNumFunctions(); ++F)
      for (const auto &BB : P.getFunction(F).blocks())
        for (const auto &Op : BB->operations()) {
          int Home = -1;
          if (Op->isMemoryAccess())
            Home = C.Placement.homeOfOp(*Op, F, Prof);
          else if (Op->getOpcode() == Opcode::Malloc)
            Home = C.Placement.getHome(
                static_cast<unsigned>(Op->getMallocSite()));
          if (Home >= 0)
            C.Assignment.set(F, static_cast<unsigned>(Op->getId()), Home);
        }
    break;
  }
  case StrategyKind::Unified:
    C.Assignment = Rhop(nullptr);
    C.Placement = DataPlacement(P.getNumObjects());
    break;
  }
  ProgramSchedule PS = layer(T, "sched.schedule", Id, [&] {
    return scheduleProgram(P, Prof, MM, C.Assignment);
  });
  C.Fp = {PS.TotalCycles, PS.DynamicMoves, PS.StaticMoves};
}

/// Evaluates one cell; with \p Sim the dynamic trace is replayed after the
/// static schedule.
CellResult evalCell(const Prog &G, StrategyKind K, unsigned Lat, bool Sim,
                    Tracer *T, uint64_t Id) {
  CellResult C;
  PipelineOptions Opt;
  Opt.Strategy = K;
  Opt.NumClusters = kClusters;
  Opt.MoveLatency = Lat;
  Scope Cell(T, "cell", Id);
  auto Start = Clock::now();
  if (T) {
    MachineModel MM = machineFor(Opt);
    recomposeStrategy(G, K, MM, T, Id, C);
    C.CompileSec = secondsSince(Start);
    if (Sim && !C.Failed) {
      C.Simulated = true;
      C.Sim = layer(T, "sim.replay", Id, [&] {
        return simulateTrace(*G.P, *G.PP.Trace, MM, C.Assignment,
                             C.Placement);
      });
    }
  } else {
    PipelineResult R = runStrategy(G.PP, Opt);
    C.CompileSec = secondsSince(Start);
    if (Sim && !R.Failed) {
      C.Simulated = true;
      C.Sim = simulateStrategy(G.PP, R, Opt);
    }
    C.Failed = R.Failed;
    if (R.Failed)
      C.Error = R.Diags.empty() ? "evaluation failed" : R.Diags[0].render();
    C.Fp = {R.Cycles, R.DynamicMoves, R.StaticMoves};
    C.Placement = std::move(R.Placement);
    C.Assignment = std::move(R.Assignment);
    C.PipelineDataPartitionSec = R.Phases.DataPartitionSeconds;
    C.RhopRuns = R.RHOPRuns;
  }
  C.CellSec = secondsSince(Start);
  return C;
}

/// The correctness checks that need only the cell itself.
void checkCell(const Prog &G, StrategyKind K, unsigned Lat,
               const CellResult &C, std::vector<std::string> &Errors) {
  std::string Where = formatStr("%s/%s/lat%u", G.Name.c_str(), strategyName(K),
                                Lat);
  if (C.Failed) {
    Errors.push_back(Where + ": cell failed: " + C.Error);
    return;
  }
  if (C.Simulated && !C.Sim.Ok)
    Errors.push_back(Where + ": simulation failed: " + C.Sim.Error);
  else if (C.Simulated && C.Sim.Cycles < C.Fp.Cycles)
    Errors.push_back(formatStr("%s: simulated cycles %llu < static %llu",
                               Where.c_str(),
                               static_cast<unsigned long long>(C.Sim.Cycles),
                               static_cast<unsigned long long>(C.Fp.Cycles)));
  if (K == StrategyKind::Unified)
    return;
  for (unsigned Obj = 0; Obj != C.Placement.getNumObjects(); ++Obj) {
    int H = C.Placement.getHome(Obj);
    if (H < 0 || H >= static_cast<int>(kClusters)) {
      Errors.push_back(formatStr("%s: object %u home %d outside [0, %u)",
                                 Where.c_str(), Obj, H, kClusters));
      return;
    }
  }
  if (K != StrategyKind::GDP && K != StrategyKind::ProfileMax)
    return;
  LockMap Locks = buildLockMap(*G.P, C.Placement, G.PP.Prof);
  for (unsigned F = 0; F != Locks.size(); ++F)
    for (unsigned Op = 0; Op != Locks[F].size(); ++Op)
      if (Locks[F][Op] >= 0 && C.Assignment.get(F, Op) != Locks[F][Op]) {
        Errors.push_back(formatStr(
            "%s: locked memory op %u of function %u on cluster %d, home %d",
            Where.c_str(), Op, F, C.Assignment.get(F, Op), Locks[F][Op]));
        return;
      }
}

//===----------------------------------------------------------------------===//
// Run state shared by the workloads
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
  std::string SockDir = ".bench_build/perfbench-sock";
  bool Tiny = false;
  bool CorruptFingerprint = false;
};

struct Run {
  Options Opt;
  Clock::time_point Epoch = Clock::now();
  uint64_t Attempted = 0, Failed = 0;
  std::vector<std::string> Errors;
  std::vector<std::pair<std::string, std::pair<double, const char *>>> Metrics;
  std::vector<std::unique_ptr<Tracer>> Tracers;
  SpanTotals Totals;
  /// Cell key -> fingerprint of its first evaluation in this process.
  std::map<std::string, Fingerprint> Fingerprints;
  bool Corrupted = false;

  void metric(const std::string &Name, double V, const char *Unit) {
    Metrics.push_back({Name, {V, Unit}});
  }

  Tracer *newTracer(unsigned Tid) {
    Tracers.push_back(std::make_unique<Tracer>(Epoch, Tid));
    return Tracers.back().get();
  }

  /// Records \p Fp for \p Key, or checks it against the recorded one.
  void fingerprint(const std::string &Key, const Fingerprint &Fp,
                   const char *Where) {
    auto [It, New] = Fingerprints.emplace(Key, Fp);
    if (New) {
      if (Opt.CorruptFingerprint && !Corrupted) {
        // Self-test hook: a corrupted stored fingerprint must trip the
        // check on the next evaluation of this cell.
        It->second.Cycles ^= 1;
        Corrupted = true;
      }
      return;
    }
    if (!(It->second == Fp))
      Errors.push_back(formatStr(
          "%s: fingerprint of %s changed: (%llu, %llu, %llu) vs (%llu, %llu, "
          "%llu)",
          Where, Key.c_str(),
          static_cast<unsigned long long>(It->second.Cycles),
          static_cast<unsigned long long>(It->second.DynMoves),
          static_cast<unsigned long long>(It->second.StaticMoves),
          static_cast<unsigned long long>(Fp.Cycles),
          static_cast<unsigned long long>(Fp.DynMoves),
          static_cast<unsigned long long>(Fp.StaticMoves)));
  }
};

std::string cellKey(const std::string &Prog, StrategyKind K, unsigned Lat) {
  return formatStr("%s/%s/lat%u", Prog.c_str(), strategyName(K), Lat);
}

/// Sets every program up repeatedly; returns the last preparation.
std::vector<Prog> setUp(Run &R, const std::vector<Source> &Sources,
                        double &SetupMedian) {
  std::vector<double> Times;
  std::vector<Prog> Progs;
  for (auto First = Clock::now(); moreSetups(Times.size(), First);) {
    Progs.clear();
    auto Start = Clock::now();
    for (size_t I = 0; I != Sources.size(); ++I)
      Progs.push_back(prepare(Sources[I], nullptr, I));
    Times.push_back(secondsSince(Start));
  }
  for (const Prog &G : Progs)
    if (!G.PP.Ok)
      R.Errors.push_back(G.Name + ": preparation failed: " + G.PP.Error);
  SetupMedian = median(Times);
  return Progs;
}

//===----------------------------------------------------------------------===//
// fig7_suite and gen_20k
//===----------------------------------------------------------------------===//

struct PassStats {
  double CellSec = 0, GdpSec = 0, PipelineGdpDataSec = 0, P50Ms = 0,
         P99Ms = 0;
  uint64_t Ops = 0, Cells = 0;
};

struct Phase {
  std::vector<PassStats> Passes;
  size_t Cells = 0;
  /// First pass's cells, in canonical (program, strategy) order.
  std::vector<CellResult> Canon;
};

/// Runs passes over every (program, strategy) cell for about \p Budget
/// seconds, in a seeded order that changes per pass. With a tracer the
/// passes alternate untraced / traced, so both kinds see the same machine
/// state, and the traced ones land in \p Traced. At least two passes of
/// each kind run.
void runPasses(Run &R, const std::vector<Prog> &Progs,
               const std::vector<Prog> &TracedProgs, bool Sim, double Budget,
               Tracer *T, Phase &Timed, Phase &Traced) {
  size_t NumCells = Progs.size() * 4;
  std::vector<size_t> Order(NumCells);
  for (size_t I = 0; I != NumCells; ++I)
    Order[I] = I;
  std::mt19937_64 Rng(R.Opt.Seed * 0x9E3779B97F4A7C15ULL);
  int MinPasses = T ? 4 : 2;
  auto Start = Clock::now();
  for (int Pass = 0;; ++Pass) {
    double Elapsed = secondsSince(Start);
    if (Pass >= MinPasses && Elapsed + Elapsed / Pass > Budget)
      break;
    // The first pass runs in canonical order, so the heap (and the peak
    // resident memory it sets) does not depend on the seed.
    if (Pass > 0)
      std::shuffle(Order.begin(), Order.end(), Rng);
    bool IsTraced = T && Pass % 2 == 1;
    Phase &Ph = IsTraced ? Traced : Timed;
    Tracer *PT = IsTraced ? T : nullptr;
    const std::vector<Prog> &Ps = IsTraced ? TracedProgs : Progs;
    if (PT)
      PT->Group = 1000 + static_cast<int>(Ph.Passes.size());
    bool First = Ph.Passes.empty();
    if (First)
      Ph.Canon.resize(NumCells);
    PassStats PS;
    std::vector<double> PassMs;
    {
      Scope PassSpan(PT, "pass", static_cast<uint64_t>(Pass));
      if (PT)
        for (size_t I = 0; I != Ps.size(); ++I)
          probeAnalyses(Ps[I], PT, I);
      for (size_t Idx : Order) {
        const Prog &G = Ps[Idx / 4];
        StrategyKind K = kStrategies[Idx % 4];
        CellResult C = evalCell(G, K, 5, Sim, PT, Idx);
        ++R.Attempted;
        R.Failed += C.Failed;
        checkCell(G, K, 5, C, R.Errors);
        R.fingerprint(cellKey(G.Name, K, 5), C.Fp,
                      IsTraced ? "traced" : "timed");
        PS.CellSec += C.CellSec;
        PS.Ops += G.StaticOps;
        ++PS.Cells;
        PassMs.push_back(C.CellSec * 1e3);
        if (K == StrategyKind::GDP) {
          PS.GdpSec += C.CompileSec;
          PS.PipelineGdpDataSec += C.PipelineDataPartitionSec;
        }
        if (First)
          Ph.Canon[Idx] = std::move(C);
      }
    }
    PS.P50Ms = percentile(PassMs, 0.5);
    PS.P99Ms = percentile(PassMs, 0.99);
    Ph.Cells += PassMs.size();
    Ph.Passes.push_back(PS);
  }
}

template <class Fn> double medianOver(const std::vector<PassStats> &P, Fn F) {
  std::vector<double> V;
  for (const PassStats &S : P)
    V.push_back(F(S));
  return median(V);
}

double opsPerSec(const std::vector<PassStats> &P) {
  return medianOver(P, [](const PassStats &S) {
    return static_cast<double>(S.Ops) / S.CellSec;
  });
}

/// Per-layer metrics of the traced spans: compile layers per pass (median
/// over groups [Lo, Hi]), preparation layers for group \p SetupGroup, and
/// exact counts over \p Cells (one traced evaluation of every cell). A
/// layer the workload does not exercise reads 0.
void layerMetrics(Run &R, const std::vector<Prog> &Progs,
                  const std::vector<CellResult> &Cells, int Lo, int Hi,
                  int SetupGroup) {
  auto PerPass = [&](const char *Span) {
    return SpanTotals::medianOf(R.Totals.ByName, Span, Lo, Hi);
  };
  auto PerSetup = [&](const char *Span) {
    return SpanTotals::medianOf(R.Totals.ByName, Span, SetupGroup,
                                SetupGroup);
  };
  uint64_t Ops = 0, Blocks = 0, BlockExecs = 0;
  for (const Prog &G : Progs) {
    Ops += G.StaticOps;
    Blocks += G.Blocks;
    BlockExecs += G.PP.Trace ? G.PP.Trace->Blocks.size() : 0;
  }
  uint64_t Nodes = 0, Groups = 0, Cut = 0, Rhop = 0, StaticMoves = 0,
           BusStall = 0, Remote = 0;
  for (const CellResult &C : Cells) {
    Nodes += C.GraphNodes;
    Groups += C.MergedGroups;
    Cut += C.CutWeight;
    Rhop += C.RhopRuns;
    StaticMoves += C.Fp.StaticMoves;
    BusStall += C.Sim.BusContentionStallCycles;
    Remote += C.Sim.RemoteAccesses;
  }
  double Gdp = PerPass("partition.gdp");
  R.metric("gen.generate_s", PerSetup("gen.generate"), "s");
  R.metric("workloads.build_s", PerSetup("workloads.build"), "s");
  R.metric("ir.verify_s", PerSetup("ir.verify"), "s");
  R.metric("ir.static_ops", static_cast<double>(Ops), "count");
  R.metric("ir.blocks", static_cast<double>(Blocks), "count");
  R.metric("analysis.points_to_s", PerSetup("analysis.points_to"), "s");
  R.metric("analysis.defuse_build_s", PerPass("analysis.defuse_build"), "s");
  R.metric("analysis.loops_build_s", PerPass("analysis.loops_build"), "s");
  R.metric("profile.interpret_s", PerSetup("profile.interpret"), "s");
  R.metric("profile.block_execs", static_cast<double>(BlockExecs), "count");
  R.metric("partition.program_graph_s", PerPass("partition.program_graph"),
           "s");
  R.metric("partition.access_merge_s", PerPass("partition.access_merge"), "s");
  R.metric("partition.gdp_s", Gdp, "s");
  R.metric("partition.gdp_self_s",
           std::max(0.0, Gdp - PerPass("partition.program_graph") -
                             PerPass("partition.access_merge")),
           "s");
  R.metric("partition.profilemax_place_s",
           PerPass("partition.profilemax_place"), "s");
  R.metric("partition.graph_nodes", static_cast<double>(Nodes), "count");
  R.metric("partition.merged_groups", static_cast<double>(Groups), "count");
  R.metric("partition.cut_weight", static_cast<double>(Cut), "count");
  R.metric("partition.rhop_s", PerPass("partition.rhop"), "s");
  R.metric("partition.rhop_runs", static_cast<double>(Rhop), "count");
  R.metric("sched.schedule_s", PerPass("sched.schedule"), "s");
  R.metric("sched.static_moves", static_cast<double>(StaticMoves), "count");
  R.metric("sim.replay_s", PerPass("sim.replay"), "s");
  R.metric("sim.bus_stall_cycles", static_cast<double>(BusStall), "count");
  R.metric("sim.remote_accesses", static_cast<double>(Remote), "count");
  for (const char *L : {"analysis", "partition", "sched", "sim", "cell"})
    R.metric(formatStr("self.%s_s", L),
             SpanTotals::medianOf(R.Totals.SelfByLayer, L, Lo, Hi), "s");
  R.metric("trace.spans", static_cast<double>(R.Totals.Count), "count");
}

void runCompileWorkload(Run &R, const std::vector<Source> &Sources,
                        bool SimInPass) {
  Tracer *T = R.Opt.Trace ? R.newTracer(0) : nullptr;
  double SetupSec = 0;
  std::vector<Prog> Progs = setUp(R, Sources, SetupSec);
  // The traced passes run on a traced preparation, so the fingerprint
  // check also covers prepareProgram against its recomposition.
  std::vector<Prog> TracedProgs;
  if (T) {
    T->Group = -1;
    for (size_t I = 0; I != Sources.size(); ++I) {
      TracedProgs.push_back(prepare(Sources[I], T, I));
      if (!TracedProgs.back().PP.Ok)
        R.Errors.push_back(Sources[I].Name + ": traced preparation failed: " +
                           TracedProgs.back().PP.Error);
    }
  }
  if (!R.Errors.empty())
    return;

  Phase Timed, Traced;
  runPasses(R, Progs, TracedProgs, SimInPass, R.Opt.Seconds, T, Timed,
            Traced);
  double RssMb = peakRssMb();

  // Quality, from the timed run's first pass.
  std::vector<double> Pct, SimPct;
  double GdpDyn = 0;
  for (size_t I = 0; I != Progs.size(); ++I) {
    const CellResult &U = Timed.Canon[I * 4 + 0];
    const CellResult &G = Timed.Canon[I * 4 + 1];
    if (U.Failed || G.Failed || G.Fp.Cycles == 0)
      continue;
    Pct.push_back(100.0 * static_cast<double>(U.Fp.Cycles) /
                  static_cast<double>(G.Fp.Cycles));
    GdpDyn += static_cast<double>(G.Fp.DynMoves);
    SimResult SU = U.Sim, SG = G.Sim;
    if (!SimInPass) {
      // gen_20k bypasses the simulator in its passes; replay GDP and
      // Unified once here, outside every timed metric, for the quality
      // metric and the sim >= static check.
      PipelineOptions Opt;
      Opt.Strategy = StrategyKind::GDP;
      SG = simulateTrace(*Progs[I].P, *Progs[I].PP.Trace, machineFor(Opt),
                         G.Assignment, G.Placement);
      Opt.Strategy = StrategyKind::Unified;
      SU = simulateTrace(*Progs[I].P, *Progs[I].PP.Trace, machineFor(Opt),
                         U.Assignment, U.Placement);
      for (auto [S, C] : {std::pair{&SU, &U}, std::pair{&SG, &G}})
        if (!S->Ok || S->Cycles < C->Fp.Cycles)
          R.Errors.push_back(Progs[I].Name +
                             ": simulation failed or undercut static cycles");
    }
    if (SG.Cycles)
      SimPct.push_back(100.0 * static_cast<double>(SU.Cycles) /
                       static_cast<double>(SG.Cycles));
  }

  const auto &P = Timed.Passes;
  double CellSecMedian = medianOver(P, [](const PassStats &S) {
    return S.CellSec / static_cast<double>(S.Cells);
  });
  R.metric("setup_s", SetupSec, "s");
  R.metric("compile_ops_per_s", opsPerSec(P), "ops/s");
  R.metric("gdp_compile_s",
           medianOver(P, [](const PassStats &S) { return S.GdpSec; }), "s");
  R.metric("gdp_pct_of_unified", geomean(Pct), "%");
  R.metric("gdp_sim_pct_of_unified", geomean(SimPct), "%");
  R.metric("gdp_dyn_moves", GdpDyn, "count");
  R.metric("peak_rss_mb", RssMb, "MB");
  R.metric("req_per_s", CellSecMedian > 0 ? 1.0 / CellSecMedian : 0, "1/s");
  // Cell latency percentiles per pass, median over passes: a pass holds
  // every cell once, so its p99 is its slowest cell.
  R.metric("req_p50_ms",
           medianOver(P, [](const PassStats &S) { return S.P50Ms; }), "ms");
  R.metric("req_p99_ms",
           medianOver(P, [](const PassStats &S) { return S.P99Ms; }), "ms");
  std::printf("timed: %zu passes, %zu cells (latency samples); ops/s per "
              "pass:",
              P.size(), Timed.Cells);
  for (const PassStats &S : P)
    std::printf(" %.0f", static_cast<double>(S.Ops) / S.CellSec);
  std::printf("\n");
  if (!T)
    return;
  for (const auto &Tr : R.Tracers)
    R.Totals.add(Tr->Spans);
  int Lo = 1000, Hi = 1000 + static_cast<int>(Traced.Passes.size()) - 1;
  layerMetrics(R, TracedProgs, Traced.Canon, Lo, Hi, -1);
  // Tracing overhead: traced vs untraced throughput, with the probe
  // constructions (program graph and access merge, which the untraced
  // pipeline performs inside runGlobalDataPartitioning) taken out.
  double Probe =
      SpanTotals::medianOf(R.Totals.ByName, "partition.program_graph", Lo,
                           Hi) +
      SpanTotals::medianOf(R.Totals.ByName, "partition.access_merge", Lo, Hi);
  double TracedSec =
      medianOver(Traced.Passes, [](const PassStats &S) { return S.CellSec; });
  double Untraced = opsPerSec(Timed.Passes);
  double TracedNoProbe = static_cast<double>(Traced.Passes[0].Ops) /
                         std::max(1e-9, TracedSec - Probe);
  R.metric("partition.pipeline_gdp_data_partition_s",
           medianOver(Timed.Passes,
                      [](const PassStats &S) { return S.PipelineGdpDataSec; }),
           "s");
  R.metric("trace.untraced_compile_ops_per_s", Untraced, "ops/s");
  R.metric("trace.traced_compile_ops_per_s", opsPerSec(Traced.Passes),
           "ops/s");
  R.metric("trace.overhead_pct", 100.0 * (Untraced / TracedNoProbe - 1.0),
           "%");
  for (const char *Name : {"serve.hit_rtt_ms_p50", "serve.miss_rtt_ms_p50",
                           "serve.overhead_ms_p50"})
    R.metric(Name, 0, "ms");
  R.metric("serve.cache_hit_ratio", 0, "ratio");
  R.metric("serve.shed", 0, "count");
  R.metric("serve.retries", 0, "count");
}

//===----------------------------------------------------------------------===//
// serve_mixed
//===----------------------------------------------------------------------===//

/// An in-process cluster: shard servers plus a coordinator, each pumping on
/// its own thread, torn down (threads joined) on destruction.
class Cluster {
public:
  Cluster() = default;
  ~Cluster() { stop(); }
  Cluster(const Cluster &) = delete;
  Cluster &operator=(const Cluster &) = delete;

  bool boot(const std::string &SockDir, unsigned Tag, unsigned Shards,
            unsigned Clients, std::string &Err) {
    std::vector<support::SockAddr> ShardAddrs;
    for (unsigned I = 0; I <= Shards; ++I) {
      bool IsCoord = I == Shards;
      support::SockAddr A;
      A.IsUnix = true;
      A.Path = formatStr("%s/%d-%u-%s%u.sock", SockDir.c_str(),
                         static_cast<int>(::getpid()), Tag,
                         IsCoord ? "c" : "s", I);
      Member M;
      M.Svc = std::make_unique<serve::Service>(serve::ServiceOptions());
      if (IsCoord) {
        auto CB = std::make_unique<serve::CoordinatorBackend>(
            ShardAddrs, serve::CoordinatorOptions());
        Coord = CB.get();
        M.B = std::move(CB);
      } else {
        M.B = std::make_unique<serve::LocalBackend>(*M.Svc);
      }
      serve::ServerOptions SO;
      SO.Listen = A;
      // A server's pool has Threads - 1 workers and every persistent
      // connection pins one: shards get one worker (the coordinator's
      // connection), the coordinator one per client plus a spare.
      SO.Threads = IsCoord ? Clients + 2 : 2;
      SO.MaxInflight = Clients * 2 + 8;
      M.Srv = std::make_unique<serve::Server>(SO, *M.Svc, *M.B);
      std::vector<support::Diag> Diags;
      if (!M.Srv->start(Diags)) {
        Err = Diags.empty() ? "server failed to start" : Diags[0].render();
        return false;
      }
      serve::Server *S = M.Srv.get();
      M.Pump = std::thread([S] { S->run(); });
      (IsCoord ? Target : A) = M.Srv->boundAddr();
      if (!IsCoord)
        ShardAddrs.push_back(A);
      Members.push_back(std::move(M));
    }
    return true;
  }

  void stop() {
    for (Member &M : Members)
      M.Srv->requestStop();
    for (Member &M : Members)
      if (M.Pump.joinable())
        M.Pump.join();
    Members.clear();
    Coord = nullptr;
  }

  support::SockAddr Target;
  serve::CoordinatorBackend *Coord = nullptr;

private:
  struct Member {
    std::unique_ptr<serve::Service> Svc;
    std::unique_ptr<serve::Backend> B;
    std::unique_ptr<serve::Server> Srv;
    std::thread Pump;
  };
  std::vector<Member> Members;
};

struct Response {
  uint64_t Index = 0;
  serve::Status S = serve::Status::Ok;
  double Ms = 0;
  serve::PartitionRequest Req;
  bool Hit = false;
  Fingerprint Fp;
  double PrepareSec = 0, PartitionSec = 0;
};

struct ServeMix {
  std::vector<std::string> Kernels;
  uint64_t Seed = 1;
  unsigned MissOps = 1000;

  /// Request \p I of the deterministic request stream.
  serve::PartitionRequest request(uint64_t I) const {
    serve::PartitionRequest Req;
    if (I % kMissEvery == kMissEvery - 1) {
      uint64_t Miss = I / kMissEvery;
      Req.Spec = formatStr("gen:%llu:%u",
                           static_cast<unsigned long long>(
                               Seed * 1000003ULL + Miss),
                           MissOps);
      Req.Strategy = kWireStrategies[Miss % 4];
      return Req;
    }
    uint64_t Hit = I - (I + 1) / kMissEvery, NK = Kernels.size();
    Req.Spec = Kernels[Hit % NK];
    Req.Strategy = kWireStrategies[(Hit / NK) % 4];
    Req.MoveLatency = kServeLatencies[(Hit / (NK * 4)) % 3];
    return Req;
  }
};

bool parseResponse(const std::string &Body, Response &Out) {
  support::json::JVal V;
  support::json::Parser P(Body);
  if (!P.parse(V) || V.K != support::json::JVal::Object)
    return false;
  auto U64 = [&](const char *K) {
    return static_cast<uint64_t>(V[K].Num);
  };
  Out.Fp = {U64("cycles"), U64("dynamic_moves"), U64("static_moves")};
  Out.Hit = V["cache"].Str == "hit";
  Out.PrepareSec = V["prepare_sec"].Num;
  Out.PartitionSec = V["partition_sec"].Num;
  return true;
}

/// Drives the cluster with closed-loop clients for \p Seconds; returns the
/// responses and the wall time until the last one arrived.
std::vector<Response> load(Run &R, const Cluster &C, const ServeMix &Mix,
                           unsigned Clients, double Seconds,
                           std::atomic<uint64_t> &Next, bool Traced,
                           double &WallSec) {
  std::vector<std::vector<Response>> Per(Clients);
  std::vector<Tracer *> Tracers(Clients, nullptr);
  if (Traced)
    for (unsigned K = 0; K != Clients; ++K)
      Tracers[K] = R.newTracer(K + 1);
  auto Start = Clock::now();
  auto End = Start + std::chrono::duration<double>(Seconds);
  std::vector<std::thread> Threads;
  for (unsigned K = 0; K != Clients; ++K)
    Threads.emplace_back([&, K] {
      serve::Client Cl;
      if (!Cl.connect(C.Target, 30000, nullptr))
        return;
      while (Clock::now() < End) {
        Response Rsp;
        Rsp.Index = Next.fetch_add(1);
        Rsp.Req = Mix.request(Rsp.Index);
        std::string Body;
        auto T0 = Clock::now();
        {
          Scope S(Tracers[K], "serve.request", Rsp.Index);
          Rsp.S = Cl.partition(Rsp.Req, Body, nullptr);
        }
        Rsp.Ms = secondsSince(T0) * 1e3;
        if (Rsp.S == serve::Status::Ok && !parseResponse(Body, Rsp))
          Rsp.S = serve::Status::InternalError;
        Per[K].push_back(std::move(Rsp));
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  WallSec = secondsSince(Start);
  std::vector<Response> All;
  for (auto &V : Per)
    for (Response &Rsp : V)
      All.push_back(std::move(Rsp));
  std::sort(All.begin(), All.end(), [](const Response &A, const Response &B) {
    return A.Index < B.Index;
  });
  return All;
}

void runServeWorkload(Run &R) {
  const unsigned Shards = 2, Clients = 2;
  ServeMix Mix;
  Mix.Seed = R.Opt.Seed;
  for (const WorkloadInfo &W : allWorkloads())
    Mix.Kernels.push_back(W.Name);
  if (R.Opt.Tiny) {
    Mix.Kernels.resize(3);
    Mix.MissOps = 200;
  }
  std::error_code EC;
  std::filesystem::create_directories(R.Opt.SockDir, EC);

  // Set-up: boot plus one warm-up request per kernel, from a cold cache.
  Cluster C;
  std::vector<double> SetupTimes;
  for (auto First = Clock::now(); moreSetups(SetupTimes.size(), First);) {
    unsigned Rep = static_cast<unsigned>(SetupTimes.size());
    C.stop();
    PreparedProgramCache::global().clear();
    auto Start = Clock::now();
    std::string Err;
    if (!C.boot(R.Opt.SockDir, Rep, Shards, Clients, Err)) {
      R.Errors.push_back("cluster boot failed: " + Err);
      return;
    }
    serve::Client Cl;
    if (!Cl.connect(C.Target, 30000, nullptr)) {
      R.Errors.push_back("cannot connect to the coordinator");
      return;
    }
    for (const std::string &K : Mix.Kernels) {
      serve::PartitionRequest Req;
      Req.Spec = K;
      std::string Body;
      if (Cl.partition(Req, Body, nullptr) != serve::Status::Ok) {
        R.Errors.push_back("warm-up request for " + K + " failed");
        return;
      }
    }
    SetupTimes.push_back(secondsSince(Start));
  }

  // Traced runs alternate short untraced and traced slices, so both see
  // the same cache state.
  std::atomic<uint64_t> Next{0};
  double Slice = R.Opt.Trace ? std::min(1.0, R.Opt.Seconds / 4)
                             : R.Opt.Seconds;
  double WallSec = 0, TracedWall = 0;
  std::vector<Response> Timed, Traced;
  auto LoadStart = Clock::now();
  for (unsigned I = 0; secondsSince(LoadStart) < R.Opt.Seconds ||
                       (R.Opt.Trace && Traced.empty());
       ++I) {
    bool IsTraced = R.Opt.Trace && I % 2 == 1;
    double Wall = 0;
    std::vector<Response> Rs =
        load(R, C, Mix, Clients, Slice, Next, IsTraced, Wall);
    (IsTraced ? TracedWall : WallSec) += Wall;
    std::vector<Response> &Into = IsTraced ? Traced : Timed;
    Into.insert(Into.end(), Rs.begin(), Rs.end());
  }
  double RssMb = peakRssMb();
  uint64_t Retries = C.Coord->localStats().getCounter("serve.retry.attempts");
  C.stop();

  // Verification: every distinct request is evaluated locally (traced in
  // the traced run), and every ok response must match it. All kernel x
  // strategy x latency cells are evaluated, with simulation, for the
  // quality metrics.
  Tracer *T = R.Opt.Trace ? R.newTracer(0) : nullptr;
  const int VGroup = 2000;
  if (T)
    T->Group = VGroup;
  std::vector<Prog> Progs;
  std::map<std::string, size_t> ProgOf;
  auto addProg = [&](const std::string &Spec) {
    if (ProgOf.count(Spec))
      return;
    Source S =
        Spec.rfind("gen:", 0) == 0 ? genSource(Spec) : kernelSource(Spec);
    ProgOf.emplace(Spec, Progs.size());
    Progs.push_back(prepare(S, T, Progs.size()));
    if (!Progs.back().PP.Ok)
      R.Errors.push_back(Spec + ": local preparation failed: " +
                         Progs.back().PP.Error);
  };
  for (const std::string &K : Mix.Kernels)
    addProg(K);
  std::vector<Response> All = Timed;
  All.insert(All.end(), Traced.begin(), Traced.end());
  for (const Response &Rsp : All)
    if (Rsp.S == serve::Status::Ok)
      addProg(Rsp.Req.Spec);
  if (!R.Errors.empty())
    return;
  // Progs is complete: references into it stay valid from here on.
  auto progFor = [&](const std::string &Spec) -> const Prog & {
    return Progs[ProgOf.at(Spec)];
  };

  std::map<std::string, CellResult> Local;
  auto localCell = [&](const std::string &Spec, StrategyKind K, unsigned Lat,
                       bool Sim) -> CellResult & {
    std::string Key = cellKey(Spec, K, Lat);
    auto It = Local.find(Key);
    if (It == Local.end()) {
      const Prog &G = progFor(Spec);
      CellResult Cell = evalCell(G, K, Lat, Sim, T, Local.size());
      checkCell(G, K, Lat, Cell, R.Errors);
      It = Local.emplace(Key, std::move(Cell)).first;
    }
    return It->second;
  };
  std::vector<double> Pct, SimPct;
  double GdpDyn = 0;
  for (unsigned Lat : kServeLatencies)
    for (const std::string &K : Mix.Kernels) {
      for (StrategyKind S : kStrategies)
        localCell(K, S, Lat, true);
      const CellResult &U = localCell(K, StrategyKind::Unified, Lat, true);
      const CellResult &G = localCell(K, StrategyKind::GDP, Lat, true);
      if (U.Failed || G.Failed)
        continue;
      Pct.push_back(100.0 * static_cast<double>(U.Fp.Cycles) /
                    static_cast<double>(G.Fp.Cycles));
      SimPct.push_back(100.0 * static_cast<double>(U.Sim.Cycles) /
                       static_cast<double>(G.Sim.Cycles));
      GdpDyn += static_cast<double>(G.Fp.DynMoves);
    }
  uint64_t Shed = 0;
  for (const Response &Rsp : All) {
    ++R.Attempted;
    if (Rsp.S != serve::Status::Ok) {
      ++R.Failed;
      Shed += Rsp.S == serve::Status::Overloaded;
      R.Errors.push_back(formatStr("request %llu (%s) answered %s",
                                   static_cast<unsigned long long>(Rsp.Index),
                                   Rsp.Req.Spec.c_str(),
                                   serve::statusName(Rsp.S)));
      continue;
    }
    StrategyKind K = StrategyKind::GDP;
    for (unsigned I = 0; I != 4; ++I)
      if (Rsp.Req.Strategy == kWireStrategies[I])
        K = kStrategies[I];
    CellResult &L = localCell(Rsp.Req.Spec, K, Rsp.Req.MoveLatency, false);
    if (R.Opt.CorruptFingerprint && !R.Corrupted) {
      // Self-test hook: a corrupted local fingerprint must trip the check.
      L.Fp.Cycles ^= 1;
      R.Corrupted = true;
    }
    if (!(L.Fp == Rsp.Fp))
      R.Errors.push_back(formatStr(
          "request %llu (%s): served fingerprint (%llu, %llu, %llu) but local "
          "runStrategy gives (%llu, %llu, %llu)",
          static_cast<unsigned long long>(Rsp.Index),
          cellKey(Rsp.Req.Spec, K, Rsp.Req.MoveLatency).c_str(),
          static_cast<unsigned long long>(Rsp.Fp.Cycles),
          static_cast<unsigned long long>(Rsp.Fp.DynMoves),
          static_cast<unsigned long long>(Rsp.Fp.StaticMoves),
          static_cast<unsigned long long>(L.Fp.Cycles),
          static_cast<unsigned long long>(L.Fp.DynMoves),
          static_cast<unsigned long long>(L.Fp.StaticMoves)));
  }

  struct Window {
    double Rps = 0, OpsPerSec = 0, GdpSec = 0, P50 = 0, P99 = 0;
    double HitP50 = 0, MissP50 = 0, OverheadP50 = 0, HitRatio = 0;
    size_t Samples = 0;
  };
  auto summarize = [&](const std::vector<Response> &Rs, double Wall) {
    Window W;
    std::vector<double> Ms, Hit, Miss, Overhead, Gdp;
    double Ok = 0, Ops = 0, Hits = 0;
    for (const Response &Rsp : Rs) {
      Ms.push_back(Rsp.Ms);
      if (Rsp.S != serve::Status::Ok)
        continue;
      ++Ok;
      Ops += static_cast<double>(progFor(Rsp.Req.Spec).StaticOps);
      Hits += Rsp.Hit;
      (Rsp.Hit ? Hit : Miss).push_back(Rsp.Ms);
      // A hit does not pay its cached preparation again.
      Overhead.push_back(Rsp.Ms - 1e3 * (Rsp.PartitionSec +
                                         (Rsp.Hit ? 0 : Rsp.PrepareSec)));
      if (Rsp.Req.Strategy == "gdp")
        Gdp.push_back(Rsp.PartitionSec);
    }
    W.Rps = Ok / Wall;
    W.OpsPerSec = Ops / Wall;
    W.GdpSec = median(Gdp);
    W.P50 = percentile(Ms, 0.5);
    W.P99 = percentile(Ms, 0.99);
    W.HitP50 = median(Hit);
    W.MissP50 = median(Miss);
    W.OverheadP50 = median(Overhead);
    W.HitRatio = Ok > 0 ? Hits / Ok : 0;
    W.Samples = Ms.size();
    return W;
  };
  Window TW = summarize(Timed, WallSec);
  R.metric("setup_s", median(SetupTimes), "s");
  R.metric("compile_ops_per_s", TW.OpsPerSec, "ops/s");
  R.metric("gdp_compile_s", TW.GdpSec, "s");
  R.metric("gdp_pct_of_unified", geomean(Pct), "%");
  R.metric("gdp_sim_pct_of_unified", geomean(SimPct), "%");
  R.metric("gdp_dyn_moves", GdpDyn, "count");
  R.metric("peak_rss_mb", RssMb, "MB");
  R.metric("req_per_s", TW.Rps, "1/s");
  R.metric("req_p50_ms", TW.P50, "ms");
  R.metric("req_p99_ms", TW.P99, "ms");
  std::printf("timed: %zu requests (latency samples) in %.2f s, %zu "
              "programs verified locally\n",
              TW.Samples, WallSec, Progs.size());
  if (!T)
    return;

  for (const auto &Tr : R.Tracers)
    R.Totals.add(Tr->Spans);
  std::vector<CellResult> LocalCells;
  for (auto &[Key, Cell] : Local)
    LocalCells.push_back(Cell);
  layerMetrics(R, Progs, LocalCells, VGroup, VGroup, VGroup);
  Window XW = summarize(Traced, TracedWall);
  R.metric("partition.pipeline_gdp_data_partition_s", 0, "s");
  R.metric("trace.untraced_compile_ops_per_s", TW.OpsPerSec, "ops/s");
  R.metric("trace.traced_compile_ops_per_s", XW.OpsPerSec, "ops/s");
  R.metric("trace.overhead_pct", 100.0 * (TW.OpsPerSec / XW.OpsPerSec - 1.0),
           "%");
  R.metric("serve.hit_rtt_ms_p50", XW.HitP50, "ms");
  R.metric("serve.miss_rtt_ms_p50", XW.MissP50, "ms");
  R.metric("serve.overhead_ms_p50", XW.OverheadP50, "ms");
  R.metric("serve.cache_hit_ratio", XW.HitRatio, "ratio");
  R.metric("serve.shed", static_cast<double>(Shed), "count");
  R.metric("serve.retries", static_cast<double>(Retries), "count");
}

//===----------------------------------------------------------------------===//
// Command line and record
//===----------------------------------------------------------------------===//

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    if (Ch == '"' || Ch == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(Ch) < 0x20)
      Out += formatStr("\\u%04x", Ch);
    else
      Out += Ch;
  }
  return Out + "\"";
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fig7_suite|gen_20k|serve_mixed --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE] [--sock-dir DIR] [--tiny] "
               "[--corrupt-fingerprint]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Value = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload")
      O.Workload = Value();
    else if (A == "--seed")
      O.Seed = std::strtoull(Value().c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::strtod(Value().c_str(), nullptr);
    else if (A == "--trace")
      O.Trace = Value() == "1";
    else if (A == "--trace-out")
      O.TraceOut = Value();
    else if (A == "--sock-dir")
      O.SockDir = Value();
    else if (A == "--tiny")
      O.Tiny = true;
    else if (A == "--corrupt-fingerprint")
      O.CorruptFingerprint = true;
    else
      usage(("unknown argument " + A).c_str());
  }
  if (O.Workload != "fig7_suite" && O.Workload != "gen_20k" &&
      O.Workload != "serve_mixed")
    usage("unknown or missing --workload");
  if (!(O.Seconds > 0))
    usage("--seconds must be positive");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Run R;
  R.Opt = parseArgs(Argc, Argv);

#ifdef __OPTIMIZE__
  const bool Optimized = true;
#else
  const bool Optimized = false;
#endif
  if (!Optimized)
    std::fprintf(stderr,
                 "\n*** WARNING: perfbench was built WITHOUT optimization "
                 "(build type '%s'); its timings are not comparable. ***\n\n",
                 PERFBENCH_BUILD_TYPE);

  if (R.Opt.Workload == "fig7_suite") {
    std::vector<Source> Sources;
    for (const WorkloadInfo &W : allWorkloads())
      Sources.push_back(kernelSource(W.Name));
    if (R.Opt.Tiny)
      Sources.resize(3);
    runCompileWorkload(R, Sources, /*SimInPass=*/true);
  } else if (R.Opt.Workload == "gen_20k") {
    Source S{"gen_20k", true,
             gen::GenOptions::scale(kGen20kSeed, R.Opt.Tiny ? 2000 : 20000)};
    runCompileWorkload(R, {S}, /*SimInPass=*/false);
  } else {
    runServeWorkload(R);
  }

  if (R.Opt.Trace && !R.Opt.TraceOut.empty()) {
    std::vector<const Tracer *> Ts;
    for (const auto &T : R.Tracers)
      Ts.push_back(T.get());
    if (!writeChromeTrace(R.Opt.TraceOut, Ts))
      R.Errors.push_back("cannot write trace " + R.Opt.TraceOut);
  }

  bool Correct = R.Errors.empty() && R.Failed == 0 && R.Attempted > 0;
  for (const std::string &E : R.Errors)
    std::printf("CHECK FAILED: %s\n", E.c_str());
  std::string Json = "{\"workload\": " + jsonStr(R.Opt.Workload);
  Json += formatStr(", \"correct\": %s, \"attempted\": %llu, \"failed\": %llu",
                    Correct ? "true" : "false",
                    static_cast<unsigned long long>(R.Attempted),
                    static_cast<unsigned long long>(R.Failed));
  Json += formatStr(", \"check_failures\": %zu", R.Errors.size());
  Json += ", \"meta\": {\"seed\": " +
          formatStr("%llu", static_cast<unsigned long long>(R.Opt.Seed)) +
          ", \"seconds\": " + formatStr("%g", R.Opt.Seconds) +
          ", \"trace\": " + (R.Opt.Trace ? "1" : "0") +
          ", \"tiny\": " + (R.Opt.Tiny ? "true" : "false") +
          ", \"build_type\": " + jsonStr(PERFBENCH_BUILD_TYPE) +
          ", \"optimized\": " + (Optimized ? "true" : "false") +
          ", \"compiler\": " + jsonStr(PERFBENCH_COMPILER) +
          formatStr(", \"nproc\": %u", std::thread::hardware_concurrency()) +
          formatStr(", \"threads\": %u, \"clients\": %u",
                    R.Opt.Workload == "serve_mixed" ? 2u : 1u,
                    R.Opt.Workload == "serve_mixed" ? 2u : 0u) +
          "}";
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    const auto &[Name, VU] = R.Metrics[I];
    Json += formatStr("%s%s: {\"value\": %.9g, \"unit\": %s}", I ? ", " : "",
                      jsonStr(Name).c_str(), VU.first,
                      jsonStr(VU.second).c_str());
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return Correct ? 0 : 1;
}
