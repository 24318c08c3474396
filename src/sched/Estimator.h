//===- sched/Estimator.h - Schedule-length estimation -----------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A fast schedule-length estimator for one region under a candidate
/// cluster assignment. This is the cost model RHOP refines against (paper
/// §3.4: "schedule estimates ... without requiring the need to actually
/// schedule the code"): the maximum of
///
///  * the resource bound — ops of each FU kind per cluster over the unit
///    count;
///  * the interconnect bound — distinct intercluster transfers over the
///    bus bandwidth;
///  * the critical path, with the move latency added to every cross-
///    cluster data edge and cross-cluster live-in.
///
/// It is a lower bound on (and in practice tracks) what the list scheduler
/// produces.
///
/// Two ways to ask it:
///
///  * `evaluate()` — the full evaluation of one assignment, O(region). The
///    constructor front-loads everything that does not depend on the
///    assignment (op ids, FU kinds, latencies, unit counts, a flat
///    successor array with per-edge base delays, the filtered live-in
///    list), and the query reuses internal scratch buffers instead of
///    allocating. It is const but not reentrant: do not share one
///    estimator instance across threads.
///  * `ScheduleEstimator::State` — an incremental view of one region under
///    its current assignment, for local search. `trial()` scores "move
///    these ops to cluster c" from the moved ops' own edges, O(Σ degree),
///    without touching the assignment; the full evaluation remains the
///    fallback when the delta cannot decide the critical path.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SCHED_ESTIMATOR_H
#define GDP_SCHED_ESTIMATOR_H

#include "sched/BlockDFG.h"
#include "support/Arena.h"

#include <cstdint>
#include <utility>
#include <vector>

namespace gdp {

class MachineModel;

/// Estimated schedule length of a region and its static move count (the
/// distinct intercluster transfers it needs — also the bus-bound
/// numerator).
struct Estimate {
  unsigned Length = 0;
  unsigned Moves = 0;
};

/// The estimate of a candidate move. Moves is always exact. Length is
/// exact when Exact is set; otherwise it is a lower bound, and the full
/// evaluation of the moved assignment gives the exact value.
struct TrialEstimate {
  unsigned Length = 0;
  unsigned Moves = 0;
  bool Exact = false;
};

/// Schedule-length estimator for one region.
class ScheduleEstimator {
public:
  /// Precomputed tables and scratch on \p A when given (heap otherwise).
  ScheduleEstimator(const BlockDFG &DFG, const MachineModel &MM,
                    support::Arena *A = nullptr);

  /// Full evaluation of the region when operations are placed according
  /// to \p ClusterOfOp (indexed by operation id; must be complete).
  Estimate evaluate(const std::vector<int> &ClusterOfOp) const;

  class State;

private:
  /// The full evaluation, writing each op's ASAP start to \p Start and the
  /// per-(cluster, FU kind) op counts to \p KindCount.
  Estimate sweep(const std::vector<int> &ClusterOfOp, unsigned *Start,
                 unsigned *KindCount) const;
  unsigned computeMoves(const std::vector<int> &ClusterOfOp) const;
  /// Max over (cluster, FU kind) of ops over units.
  unsigned resourceBound(const unsigned *KindCount) const;

  unsigned N = 0;
  unsigned NumClusters = 0;
  unsigned MoveLat = 0;
  unsigned BW = 1;

  support::ArenaVector<unsigned> Latency; // per local op
  support::ArenaVector<unsigned> OpIds;   // local op → function-wide op id
  support::ArenaVector<uint8_t> Kind;     // local op → FU kind
  support::ArenaVector<unsigned> FUCount; // [cluster * 4 + kind] → units

  /// Data edges only (the ones that can become transfers), local indices.
  struct DataEdge {
    uint32_t From, To;
  };
  support::ArenaVector<DataEdge> DataEdges;

  /// Live-ins with a real, non-hoistable producer elsewhere, ascending by
  /// (User, DefId).
  struct LiveUse {
    uint32_t User; // local index of the consumer
    int32_t DefId; // producing operation id (≥ 0)
  };
  support::ArenaVector<LiveUse> LiveUses;

  /// Flat successor adjacency: edges of local op I live at
  /// [SuccOff[I], SuccOff[I+1]), with the assignment-independent base
  /// delay and a flag for "data edge" (pays a move when cross-cluster).
  support::ArenaVector<uint32_t> SuccOff;
  support::ArenaVector<uint32_t> SuccTo;
  support::ArenaVector<uint32_t> SuccBase;
  support::ArenaVector<uint8_t> SuccIsData;

  // Per-query scratch, reused across calls (const queries, not reentrant).
  mutable support::ArenaVector<unsigned> KindCountScratch;
  mutable support::ArenaVector<unsigned> StartScratch;
  mutable support::ArenaVector<std::pair<int, int>> MoveScratch;
};

/// The incremental estimate of one region under its current assignment:
///
///  * per-(cluster, FU kind) op counts (the resource bound);
///  * per producer × cluster consumer counts (the move count), where a
///    producer is a local op or a distinct non-hoistable live-in def;
///  * each op's ASAP start S and tail T (the longest path from the op's
///    issue to the end of the region), and CP = max S + T.
///
/// A trial "move ops G from cluster a to b" applies G's moves to the
/// counts in O(Σ degree of G), reads the bounds and undoes them. The
/// critical path after the move is exact from the neighbours' S and T
/// (which the move cannot change, the region being a DAG) when G is one op
/// x that is not the producer of a same-block live-in: the longest path
/// avoiding x is unchanged, so CP' = max(CP, S'(x) + T'(x)) when x was not
/// critical, and CP' = S'(x) + T'(x) when x was critical and its new path
/// is still at least CP. Otherwise the trial's length is a lower bound:
/// max(resource, bus, CP) when no member of G was critical, or
/// max(resource, bus) when one was or G moves a live-in's producer.
///
/// Heap-backed and reused: one State serves every region of a partitioning
/// run, sized by the largest. bind() attaches it to a region (O(N + E));
/// load() recomputes it from an assignment (O(N + E)).
class ScheduleEstimator::State {
public:
  /// Attaches to \p Est's region and builds the adjacency trials need.
  /// \p Est must outlive the binding.
  void bind(const ScheduleEstimator &Est);

  /// Recomputes the state for \p ClusterOfOp and returns its estimate
  /// (equal to Est.evaluate(ClusterOfOp)).
  Estimate load(const std::vector<int> &ClusterOfOp);

  /// Scores moving the local ops [Begin, End) — all on one cluster in the
  /// loaded assignment — to cluster \p To. The state is left unchanged.
  TrialEstimate trial(const unsigned *Begin, const unsigned *End,
                      unsigned To);

private:
  void touchProducer(unsigned P);
  void touchKey(unsigned K);
  void applyMoves(const unsigned *Begin, const unsigned *End, unsigned From,
                  unsigned To);
  unsigned producerMoves(unsigned P) const;
  unsigned keyMoves(unsigned K) const;
  unsigned delay(uint32_t SuccEdge, unsigned FromCl, unsigned ToCl) const;

  const ScheduleEstimator *Est = nullptr;
  unsigned C = 0; // clusters

  // --- Region adjacency (rebuilt by bind()).
  /// Incoming edges of local op I at [PredOff[I], PredOff[I+1]): the
  /// producer and the edge's slot in the estimator's successor arrays.
  std::vector<uint32_t> PredOff, PredFrom, PredEdge;
  /// The estimator's live uses of local op I: [LiveOff[I], LiveOff[I+1]).
  std::vector<uint32_t> LiveOff;
  std::vector<uint32_t> KeyOfUse; ///< live use → distinct-def key
  std::vector<int32_t> KeyDef;    ///< key → producing op id (ascending)
  std::vector<int32_t> KeyOfLocal; ///< local op → key it produces, or -1

  // --- Assignment-dependent state (rebuilt by load()).
  std::vector<unsigned> Cl;        ///< local op → cluster
  std::vector<unsigned> KeyCl;     ///< key → cluster of its producer
  std::vector<unsigned> KindCount; ///< [cluster * 4 + kind] → ops
  std::vector<uint32_t> ConsCount; ///< [producer * C + cluster] → consumers
  std::vector<uint32_t> ConsDistinct; ///< producer → clusters with any
  std::vector<uint32_t> KeyCount;     ///< [key * C + cluster] → users
  std::vector<uint32_t> KeyDistinct;  ///< key → clusters with any
  std::vector<unsigned> S, T;
  unsigned CP = 0;
  unsigned Moves = 0;

  // --- Per-trial scratch: the producers and keys whose move count the
  // trial changes, deduplicated by epoch stamps (never cleared per trial).
  std::vector<uint32_t> TouchedProducers, TouchedKeys;
  std::vector<uint32_t> ProducerMark, KeyMark;
  uint32_t Epoch = 0;
};

} // namespace gdp

#endif // GDP_SCHED_ESTIMATOR_H
