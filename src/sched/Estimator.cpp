//===- sched/Estimator.cpp - Schedule-length estimation ---------------------===//

#include "sched/Estimator.h"

#include "ir/Operation.h"
#include "machine/MachineModel.h"

#include <algorithm>
#include <cassert>

using namespace gdp;

ScheduleEstimator::ScheduleEstimator(const BlockDFG &DFG,
                                     const MachineModel &MM,
                                     support::Arena *A)
    : Latency(A), OpIds(A), Kind(A), FUCount(A), DataEdges(A), LiveUses(A),
      SuccOff(A), SuccTo(A), SuccBase(A), SuccIsData(A), KindCountScratch(A),
      StartScratch(A), MoveScratch(A) {
  N = DFG.size();
  NumClusters = MM.getNumClusters();
  MoveLat = MM.getMoveLatency();
  BW = std::max(1u, MM.getMoveBandwidth());

  Latency.resize(N);
  OpIds.resize(N);
  Kind.resize(N);
  for (unsigned I = 0; I != N; ++I) {
    const Operation &Op = DFG.getOp(I);
    Latency[I] = MM.getLatency(Op.getOpcode());
    OpIds[I] = static_cast<unsigned>(Op.getId());
    Kind[I] = static_cast<uint8_t>(Op.getFUKind());
  }

  FUCount.resize(NumClusters * 4);
  for (unsigned C = 0; C != NumClusters; ++C)
    for (unsigned K = 0; K != 4; ++K)
      FUCount[C * 4 + K] = MM.getFUCount(C, static_cast<FUKind>(K));

  for (const auto &Edge : DFG.edges())
    if (Edge.Kind == BlockDFG::EdgeKind::Data)
      DataEdges.push_back({Edge.From, Edge.To});

  for (const auto &LI : DFG.liveIns()) {
    if (LI.DefOpId < 0 || LI.Hoistable)
      continue; // Hoisted transfers are paid per loop entry, not here.
    LiveUses.push_back({LI.LocalUser, LI.DefOpId});
  }

  // Flatten the successor lists with their base (same-cluster) delays.
  SuccOff.resize(N + 1, 0);
  SuccTo.reserve(DFG.edges().size());
  SuccBase.reserve(DFG.edges().size());
  SuccIsData.reserve(DFG.edges().size());
  for (unsigned I = 0; I != N; ++I) {
    SuccOff[I] = static_cast<uint32_t>(SuccTo.size());
    for (unsigned E : DFG.succs(I)) {
      const BlockDFG::Edge &Edge = DFG.edges()[E];
      unsigned Base = 0;
      switch (Edge.Kind) {
      case BlockDFG::EdgeKind::Data:
        Base = Latency[I];
        break;
      case BlockDFG::EdgeKind::Mem:
        Base = 1;
        break;
      case BlockDFG::EdgeKind::Order:
        Base = 0;
        break;
      }
      SuccTo.push_back(Edge.To);
      SuccBase.push_back(Base);
      SuccIsData.push_back(Edge.Kind == BlockDFG::EdgeKind::Data);
    }
  }
  SuccOff[N] = static_cast<uint32_t>(SuccTo.size());

  MoveScratch.reserve(DataEdges.size() + LiveUses.size());
  StartScratch.reserve(N);
  KindCountScratch.reserve(NumClusters * 4);
}

unsigned
ScheduleEstimator::computeMoves(const std::vector<int> &ClusterOfOp) const {
  // Distinct (producer key, dest cluster) pairs; negative keys distinguish
  // external producers from local ones. Collect-sort-unique matches the
  // set semantics without per-call node allocation.
  auto &Transfers = MoveScratch;
  Transfers.clear();
  for (const DataEdge &E : DataEdges) {
    int CF = ClusterOfOp[OpIds[E.From]], CT = ClusterOfOp[OpIds[E.To]];
    if (CF != CT)
      Transfers.push_back({static_cast<int>(E.From), CT});
  }
  for (const LiveUse &L : LiveUses) {
    int DefCluster = ClusterOfOp[static_cast<unsigned>(L.DefId)];
    int UserCluster = ClusterOfOp[OpIds[L.User]];
    if (DefCluster != UserCluster)
      Transfers.push_back({-(L.DefId + 2), UserCluster});
  }
  std::sort(Transfers.begin(), Transfers.end());
  Transfers.erase(std::unique(Transfers.begin(), Transfers.end()),
                  Transfers.end());
  return static_cast<unsigned>(Transfers.size());
}

unsigned ScheduleEstimator::resourceBound(const unsigned *KindCount) const {
  unsigned Bound = 0;
  for (unsigned S = 0; S != NumClusters * 4; ++S) {
    if (KindCount[S] == 0)
      continue;
    unsigned Units = FUCount[S];
    assert(Units > 0 && "operations assigned to cluster without units");
    Bound = std::max(Bound, (KindCount[S] + Units - 1) / Units);
  }
  return Bound;
}

Estimate ScheduleEstimator::sweep(const std::vector<int> &ClusterOfOp,
                                  unsigned *Start,
                                  unsigned *KindCount) const {
  if (N == 0)
    return {};
  auto ClusterOf = [&](unsigned Local) {
    int C = ClusterOfOp[OpIds[Local]];
    assert(C >= 0 && "estimator needs a complete assignment");
    return static_cast<unsigned>(C);
  };

  // --- Resource bound.
  std::fill(KindCount, KindCount + NumClusters * 4, 0u);
  for (unsigned I = 0; I != N; ++I)
    ++KindCount[ClusterOf(I) * 4 + Kind[I]];
  unsigned ResourceBound = resourceBound(KindCount);

  // --- Interconnect bound.
  unsigned Moves = computeMoves(ClusterOfOp);
  unsigned BusBound = (Moves + BW - 1) / BW;

  // --- Critical path. Program order is a topological order (all region
  // edges point forward).
  std::fill(Start, Start + N, 0u);
  for (const LiveUse &L : LiveUses)
    if (static_cast<unsigned>(ClusterOfOp[static_cast<unsigned>(L.DefId)]) !=
        ClusterOf(L.User))
      Start[L.User] = std::max(Start[L.User], MoveLat);
  unsigned CP = 0;
  for (unsigned I = 0; I != N; ++I) {
    unsigned CI = ClusterOf(I);
    unsigned SI = Start[I];
    for (uint32_t E = SuccOff[I], End = SuccOff[I + 1]; E != End; ++E) {
      unsigned Delay = SuccBase[E];
      if (SuccIsData[E] && ClusterOf(SuccTo[E]) != CI)
        Delay += MoveLat;
      unsigned To = SuccTo[E];
      Start[To] = std::max(Start[To], SI + Delay);
    }
    CP = std::max(CP, SI + std::max(1u, Latency[I]));
  }

  return {std::max({ResourceBound, BusBound, CP}), Moves};
}

Estimate
ScheduleEstimator::evaluate(const std::vector<int> &ClusterOfOp) const {
  KindCountScratch.resize(NumClusters * 4);
  StartScratch.resize(N);
  return sweep(ClusterOfOp, StartScratch.data(), KindCountScratch.data());
}

// --- ScheduleEstimator::State ------------------------------------------------

namespace {
void incCount(uint32_t &Count, uint32_t &Distinct) {
  if (Count++ == 0)
    ++Distinct;
}
void decCount(uint32_t &Count, uint32_t &Distinct) {
  assert(Count > 0 && "consumer count underflow");
  if (--Count == 0)
    --Distinct;
}
} // namespace

void ScheduleEstimator::State::bind(const ScheduleEstimator &E) {
  Est = &E;
  C = E.NumClusters;
  unsigned N = E.N;

  // Predecessor CSR from the successor arrays (counting sort by target;
  // each op's preds come out ascending by producer).
  PredOff.assign(N + 1, 0);
  for (uint32_t Edge = 0, End = E.SuccOff[N]; Edge != End; ++Edge)
    ++PredOff[E.SuccTo[Edge] + 1];
  for (unsigned I = 0; I != N; ++I)
    PredOff[I + 1] += PredOff[I];
  PredFrom.resize(PredOff[N]);
  PredEdge.resize(PredOff[N]);
  for (unsigned I = 0; I != N; ++I)
    for (uint32_t Edge = E.SuccOff[I]; Edge != E.SuccOff[I + 1]; ++Edge) {
      uint32_t Slot = PredOff[E.SuccTo[Edge]]++;
      PredFrom[Slot] = I;
      PredEdge[Slot] = Edge;
    }
  for (unsigned I = N; I != 0; --I)
    PredOff[I] = PredOff[I - 1];
  PredOff[0] = 0;

  // Live uses per consumer (LiveUses is ascending by user) and the
  // distinct producing defs ("keys") they name.
  LiveOff.assign(N + 1, 0);
  KeyDef.clear();
  for (const LiveUse &L : E.LiveUses) {
    ++LiveOff[L.User + 1];
    KeyDef.push_back(L.DefId);
  }
  for (unsigned I = 0; I != N; ++I)
    LiveOff[I + 1] += LiveOff[I];
  std::sort(KeyDef.begin(), KeyDef.end());
  KeyDef.erase(std::unique(KeyDef.begin(), KeyDef.end()), KeyDef.end());
  auto KeyOf = [&](int32_t DefId) {
    return static_cast<uint32_t>(
        std::lower_bound(KeyDef.begin(), KeyDef.end(), DefId) -
        KeyDef.begin());
  };
  KeyOfUse.resize(E.LiveUses.size());
  for (size_t J = 0; J != E.LiveUses.size(); ++J)
    KeyOfUse[J] = KeyOf(E.LiveUses[J].DefId);
  // A key produced inside the region: a value carried around a loop whose
  // body is this block.
  KeyOfLocal.assign(N, -1);
  for (unsigned I = 0; I != N; ++I) {
    int32_t Id = static_cast<int32_t>(E.OpIds[I]);
    uint32_t K = KeyOf(Id);
    if (K != KeyDef.size() && KeyDef[K] == Id)
      KeyOfLocal[I] = static_cast<int32_t>(K);
  }

  ProducerMark.assign(N, 0);
  KeyMark.assign(KeyDef.size(), 0);
  Epoch = 0;
}

Estimate ScheduleEstimator::State::load(const std::vector<int> &ClusterOfOp) {
  const ScheduleEstimator &E = *Est;
  unsigned N = E.N;
  S.resize(N);
  KindCount.resize(C * 4);
  Estimate Result = E.sweep(ClusterOfOp, S.data(), KindCount.data());
  Moves = Result.Moves;

  Cl.resize(N);
  for (unsigned I = 0; I != N; ++I)
    Cl[I] = static_cast<unsigned>(ClusterOfOp[E.OpIds[I]]);
  KeyCl.resize(KeyDef.size());
  for (size_t K = 0; K != KeyDef.size(); ++K)
    KeyCl[K] = static_cast<unsigned>(
        ClusterOfOp[static_cast<unsigned>(KeyDef[K])]);

  // Tails, in reverse topological (program) order.
  T.resize(N);
  CP = 0;
  for (unsigned I = N; I-- > 0;) {
    unsigned Tail = std::max(1u, E.Latency[I]);
    for (uint32_t Edge = E.SuccOff[I]; Edge != E.SuccOff[I + 1]; ++Edge) {
      unsigned To = E.SuccTo[Edge];
      Tail = std::max(Tail, delay(Edge, Cl[I], Cl[To]) + T[To]);
    }
    T[I] = Tail;
    CP = std::max(CP, S[I] + Tail);
  }

  ConsCount.assign(static_cast<size_t>(N) * C, 0);
  ConsDistinct.assign(N, 0);
  for (unsigned I = 0; I != N; ++I)
    for (uint32_t Edge = E.SuccOff[I]; Edge != E.SuccOff[I + 1]; ++Edge)
      if (E.SuccIsData[Edge])
        incCount(ConsCount[static_cast<size_t>(I) * C + Cl[E.SuccTo[Edge]]],
                 ConsDistinct[I]);
  KeyCount.assign(KeyDef.size() * C, 0);
  KeyDistinct.assign(KeyDef.size(), 0);
  for (size_t J = 0; J != E.LiveUses.size(); ++J) {
    uint32_t K = KeyOfUse[J];
    incCount(KeyCount[static_cast<size_t>(K) * C + Cl[E.LiveUses[J].User]],
             KeyDistinct[K]);
  }
  return Result;
}

unsigned ScheduleEstimator::State::delay(uint32_t SuccEdge, unsigned FromCl,
                                         unsigned ToCl) const {
  unsigned D = Est->SuccBase[SuccEdge];
  if (Est->SuccIsData[SuccEdge] && FromCl != ToCl)
    D += Est->MoveLat;
  return D;
}

unsigned ScheduleEstimator::State::producerMoves(unsigned P) const {
  return ConsDistinct[P] - (ConsCount[static_cast<size_t>(P) * C + Cl[P]] > 0);
}

unsigned ScheduleEstimator::State::keyMoves(unsigned K) const {
  return KeyDistinct[K] -
         (KeyCount[static_cast<size_t>(K) * C + KeyCl[K]] > 0);
}

void ScheduleEstimator::State::touchProducer(unsigned P) {
  if (ProducerMark[P] != Epoch) {
    ProducerMark[P] = Epoch;
    TouchedProducers.push_back(P);
  }
}

void ScheduleEstimator::State::touchKey(unsigned K) {
  if (KeyMark[K] != Epoch) {
    KeyMark[K] = Epoch;
    TouchedKeys.push_back(K);
  }
}

void ScheduleEstimator::State::applyMoves(const unsigned *Begin,
                                          const unsigned *End, unsigned From,
                                          unsigned To) {
  const ScheduleEstimator &E = *Est;
  for (const unsigned *It = Begin; It != End; ++It) {
    unsigned X = *It;
    Cl[X] = To;
    --KindCount[From * 4 + E.Kind[X]];
    ++KindCount[To * 4 + E.Kind[X]];
    for (uint32_t P = PredOff[X]; P != PredOff[X + 1]; ++P) {
      if (!E.SuccIsData[PredEdge[P]])
        continue;
      size_t Row = static_cast<size_t>(PredFrom[P]) * C;
      decCount(ConsCount[Row + From], ConsDistinct[PredFrom[P]]);
      incCount(ConsCount[Row + To], ConsDistinct[PredFrom[P]]);
    }
    for (uint32_t J = LiveOff[X]; J != LiveOff[X + 1]; ++J) {
      uint32_t K = KeyOfUse[J];
      size_t Row = static_cast<size_t>(K) * C;
      decCount(KeyCount[Row + From], KeyDistinct[K]);
      incCount(KeyCount[Row + To], KeyDistinct[K]);
    }
    if (KeyOfLocal[X] >= 0)
      KeyCl[static_cast<unsigned>(KeyOfLocal[X])] = To;
  }
}

TrialEstimate ScheduleEstimator::State::trial(const unsigned *Begin,
                                              const unsigned *End,
                                              unsigned To) {
  const ScheduleEstimator &E = *Est;
  assert(Begin != End && "empty trial");
  unsigned From = Cl[*Begin];
  assert(From != To && "trial must change the cluster");

  // The producers and keys whose transfer count can change: the members
  // themselves, their data producers, the live-in defs they consume, and
  // the keys they produce.
  ++Epoch;
  TouchedProducers.clear();
  TouchedKeys.clear();
  bool MovesLiveInDef = false;
  for (const unsigned *It = Begin; It != End; ++It) {
    unsigned X = *It;
    assert(Cl[X] == From && "trial members must share a cluster");
    touchProducer(X);
    for (uint32_t P = PredOff[X]; P != PredOff[X + 1]; ++P)
      if (E.SuccIsData[PredEdge[P]])
        touchProducer(PredFrom[P]);
    for (uint32_t J = LiveOff[X]; J != LiveOff[X + 1]; ++J)
      touchKey(KeyOfUse[J]);
    if (KeyOfLocal[X] >= 0) {
      touchKey(static_cast<unsigned>(KeyOfLocal[X]));
      MovesLiveInDef = true;
    }
  }
  auto TouchedMoves = [&] {
    unsigned Sum = 0;
    for (uint32_t P : TouchedProducers)
      Sum += producerMoves(P);
    for (uint32_t K : TouchedKeys)
      Sum += keyMoves(K);
    return Sum;
  };

  unsigned Before = TouchedMoves();
  applyMoves(Begin, End, From, To);
  TrialEstimate R;
  R.Moves = Moves - Before + TouchedMoves();
  R.Length = std::max(E.resourceBound(KindCount.data()),
                      (R.Moves + E.BW - 1) / E.BW);

  // Critical path. A moved live-in def changes the start of consumers
  // that need not be its neighbours: bound by resources and bus only.
  if (!MovesLiveInDef && End - Begin == 1) {
    unsigned X = *Begin;
    unsigned Start = 0;
    for (uint32_t J = LiveOff[X]; J != LiveOff[X + 1]; ++J)
      if (KeyCl[KeyOfUse[J]] != To)
        Start = std::max(Start, E.MoveLat);
    for (uint32_t P = PredOff[X]; P != PredOff[X + 1]; ++P)
      Start = std::max(Start, S[PredFrom[P]] +
                                  delay(PredEdge[P], Cl[PredFrom[P]], To));
    unsigned Tail = std::max(1u, E.Latency[X]);
    for (uint32_t Edge = E.SuccOff[X]; Edge != E.SuccOff[X + 1]; ++Edge) {
      unsigned Succ = E.SuccTo[Edge];
      Tail = std::max(Tail, delay(Edge, To, Cl[Succ]) + T[Succ]);
    }
    unsigned Through = Start + Tail;
    // Every path avoiding X keeps its length, and the longest of them is
    // CP unless X was critical.
    bool Critical = S[X] + T[X] >= CP;
    R.Exact = !Critical || Through >= CP;
    R.Length = std::max(R.Length, R.Exact ? std::max(CP, Through) : Through);
  } else if (!MovesLiveInDef) {
    bool AnyCritical = false;
    for (const unsigned *It = Begin; It != End && !AnyCritical; ++It)
      AnyCritical = S[*It] + T[*It] >= CP;
    if (!AnyCritical) // The old critical path survives untouched.
      R.Length = std::max(R.Length, CP);
  }

  applyMoves(Begin, End, To, From);
  return R;
}
