//===- partition/ProgramGraph.cpp - Program-level data-flow graph -----------===//

#include "partition/ProgramGraph.h"

#include "analysis/DefUse.h"
#include "analysis/OpIndex.h"
#include "ir/Program.h"
#include "profile/ProfileData.h"

#include <cassert>

using namespace gdp;

ProgramGraph::ProgramGraph(const Program &P, const ProfileData &Prof) {
  // --- Node layout: one slot per op id, functions concatenated.
  FuncBase.resize(P.getNumFunctions());
  unsigned Total = 0;
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    FuncBase[F] = Total;
    Total += P.getFunction(F).getNumOpIds();
  }
  Ops.assign(Total, nullptr);
  Freq.assign(Total, 0);

  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    for (const auto &BB : Fn.blocks()) {
      uint64_t BF = Prof.getBlockFreq(F, static_cast<unsigned>(BB->getId()));
      for (const auto &Op : BB->operations()) {
        unsigned Node = nodeOf(F, static_cast<unsigned>(Op->getId()));
        Ops[Node] = Op.get();
        Freq[Node] = BF;
      }
    }
  }

  // --- Register-flow edges from def-use chains, weighted by the use
  // block's execution frequency (at least 1 so cold code still coheres).
  // One DefUse per function; it also yields the nodes a call binds to:
  // the callee's parameter uses (in parameter order) and its value returns.
  std::vector<std::vector<unsigned>> ParamUseNodes(P.getNumFunctions());
  std::vector<std::vector<unsigned>> RetNodes(P.getNumFunctions());
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    DefUse DU(Fn);
    for (const auto &BB : Fn.blocks()) {
      for (const auto &Op : BB->operations()) {
        unsigned UseId = static_cast<unsigned>(Op->getId());
        uint64_t W = std::max<uint64_t>(
            1, Prof.getBlockFreq(F, static_cast<unsigned>(BB->getId())));
        for (unsigned S = 0, E = Op->getNumSrcs(); S != E; ++S)
          for (unsigned DefIdx : DU.defsForUse(UseId, S)) {
            const DefUse::DefSite &Def = DU.getDef(DefIdx);
            if (Def.isParam())
              continue;
            Edges.push_back({nodeOf(F, static_cast<unsigned>(Def.OpId)),
                             nodeOf(F, UseId), W});
          }
      }
      const Operation *Term = BB->getTerminator();
      if (Term && Term->getOpcode() == Opcode::Ret && Term->getNumSrcs() > 0)
        RetNodes[F].push_back(nodeOf(F, static_cast<unsigned>(Term->getId())));
    }
    for (unsigned Param = 0; Param != Fn.getNumParams(); ++Param)
      for (const auto &Use : DU.usesOfParam(Param))
        ParamUseNodes[F].push_back(
            nodeOf(F, static_cast<unsigned>(Use.OpId)));
  }

  // --- Call-boundary edges: call node <-> callee parameter uses and
  // return-value producers.
  for (unsigned F = 0; F != P.getNumFunctions(); ++F) {
    const Function &Fn = P.getFunction(F);
    for (const auto &BB : Fn.blocks()) {
      for (const auto &Op : BB->operations()) {
        if (Op->getOpcode() != Opcode::Call)
          continue;
        unsigned CallNode = nodeOf(F, static_cast<unsigned>(Op->getId()));
        uint64_t W = std::max<uint64_t>(
            1, Prof.getBlockFreq(F, static_cast<unsigned>(BB->getId())));
        unsigned CalleeId = static_cast<unsigned>(Op->getCallee());
        for (unsigned UseNode : ParamUseNodes[CalleeId])
          Edges.push_back({CallNode, UseNode, W});
        for (unsigned RetNode : RetNodes[CalleeId])
          Edges.push_back({RetNode, CallNode, W});
      }
    }
  }
}

std::pair<unsigned, unsigned> ProgramGraph::funcOpOf(unsigned Node) const {
  assert(Node < getNumNodes() && "node out of range");
  unsigned F = static_cast<unsigned>(FuncBase.size()) - 1;
  while (FuncBase[F] > Node)
    --F;
  return {F, Node - FuncBase[F]};
}
