//===- sched/BlockDFG.h - Per-region data-flow graph ------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The data-flow graph of one basic block (the scheduling/partitioning
/// region): data edges from def-use chains, memory ordering edges between
/// conflicting memory operations, and an issue-order edge from every
/// operation to the terminator. Values flowing in from other blocks are
/// recorded as live-ins together with their (external) defining operation,
/// so the scheduler can charge intercluster moves when the producer lives
/// on a different cluster.
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SCHED_BLOCKDFG_H
#define GDP_SCHED_BLOCKDFG_H

#include <vector>

namespace gdp {

class BasicBlock;
class DefUse;
class LoopInfo;
class OpIndex;
class Operation;

/// Data-flow graph over the operations of one block. Nodes are local
/// indices [0, size) in program order.
class BlockDFG {
public:
  enum class EdgeKind {
    Data,  ///< Register flow; latency of the producer, plus a move if the
           ///< endpoints are on different clusters.
    Mem,   ///< Memory/call ordering; consumer issues at least 1 cycle later.
    Order, ///< Issue order only (operation → terminator).
  };

  struct Edge {
    unsigned From;
    unsigned To;
    EdgeKind Kind;
  };

  /// A value flowing into the block: local consumer + external producer.
  struct LiveIn {
    unsigned LocalUser; ///< Local index of the consuming operation.
    int DefOpId;        ///< Producing operation id elsewhere in the
                        ///< function, or -1 for parameters (no move cost).
    bool Hoistable = false; ///< Loop-invariant in this block's loop: a
                            ///< cross-cluster transfer is paid per loop
                            ///< entry, not per iteration.
  };

  /// Builds the region DFG. When \p LI is given, live-ins of values that
  /// are invariant in this block's innermost loop are marked hoistable.
  /// \p OI answers localIndexOf, so it must outlive the DFG.
  BlockDFG(const BasicBlock &BB, const DefUse &DU, const OpIndex &OI,
           const LoopInfo *LI = nullptr);

  unsigned size() const { return static_cast<unsigned>(Ops.size()); }
  const Operation &getOp(unsigned Local) const { return *Ops[Local]; }
  /// Local index of operation id \p OpId, or -1 if not in this block.
  int localIndexOf(unsigned OpId) const;

  const std::vector<Edge> &edges() const { return Edges; }
  /// Outgoing edge indices of \p Local.
  const std::vector<unsigned> &succs(unsigned Local) const {
    return Succs[Local];
  }
  /// Incoming edge indices of \p Local.
  const std::vector<unsigned> &preds(unsigned Local) const {
    return Preds[Local];
  }
  const std::vector<LiveIn> &liveIns() const { return LiveInList; }

private:
  void addEdge(unsigned From, unsigned To, EdgeKind Kind);

  const OpIndex *Index; // answers localIndexOf; outlives the DFG
  int BlockId;
  std::vector<const Operation *> Ops;
  std::vector<Edge> Edges;
  std::vector<std::vector<unsigned>> Succs;
  std::vector<std::vector<unsigned>> Preds;
  std::vector<LiveIn> LiveInList;
};

} // namespace gdp

#endif // GDP_SCHED_BLOCKDFG_H
