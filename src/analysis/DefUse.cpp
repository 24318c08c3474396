//===- analysis/DefUse.cpp - Reaching definitions and DU-chains -------------===//

#include "analysis/DefUse.h"

#include "analysis/CFG.h"
#include "ir/Function.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace gdp;

namespace {

bool testBit(const uint64_t *Words, unsigned I) {
  return (Words[I / 64] >> (I % 64)) & 1ULL;
}

void setBit(uint64_t *Words, unsigned I) { Words[I / 64] |= 1ULL << (I % 64); }

} // namespace

DefUse::DefUse(const Function &F) {
  // --- Enumerate definition sites. Parameters first, then op defs in
  // block/position order so indices are deterministic.
  DefIdxOfOp.assign(F.getNumOpIds(), -1);
  DefIdxOfParam.resize(F.getNumParams());
  for (unsigned P = 0; P != F.getNumParams(); ++P) {
    DefIdxOfParam[P] = static_cast<int>(Defs.size());
    Defs.push_back({-(static_cast<int>(P) + 1), static_cast<int>(P)});
  }
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations())
      if (Op->hasDest()) {
        DefIdxOfOp[static_cast<unsigned>(Op->getId())] =
            static_cast<int>(Defs.size());
        Defs.push_back({Op->getId(), Op->getDest()});
      }

  unsigned NumDefs = getNumDefs();
  unsigned NumBlocks = F.getNumBlocks();
  unsigned NumRegs = F.getNumVRegs();
  size_t Words = (NumDefs + 63) / 64;

  // Defs grouped by register, ascending.
  std::vector<std::vector<unsigned>> DefsOfReg(NumRegs);
  for (unsigned D = 0; D != NumDefs; ++D)
    DefsOfReg[static_cast<unsigned>(Defs[D].Reg)].push_back(D);

  // Per-register scratch: the last def of the register seen in block
  // Stamp[R], or stale when Stamp[R] differs from the current block.
  std::vector<unsigned> Stamp(NumRegs, ~0u);
  std::vector<unsigned> LastDef(NumRegs, 0);

  // --- KILL per block: every def of each register the block writes, once
  // per (block, register). GEN is the last def of each such register; it
  // seeds OUT, which only grows.
  std::vector<uint64_t> Kill(NumBlocks * Words, 0);
  std::vector<uint64_t> In(NumBlocks * Words, 0);
  std::vector<uint64_t> Out(NumBlocks * Words, 0);
  std::vector<unsigned> Written;
  for (unsigned B = 0; B != NumBlocks; ++B) {
    Written.clear();
    for (const auto &Op : F.getBlock(B).operations()) {
      if (!Op->hasDest())
        continue;
      unsigned R = static_cast<unsigned>(Op->getDest());
      if (Stamp[R] != B) {
        Stamp[R] = B;
        Written.push_back(R);
      }
      LastDef[R] =
          static_cast<unsigned>(DefIdxOfOp[static_cast<unsigned>(Op->getId())]);
    }
    uint64_t *BKill = Kill.data() + B * Words;
    for (unsigned R : Written) {
      for (unsigned D : DefsOfReg[R])
        setBit(BKill, D);
      setBit(Out.data() + B * Words, LastDef[R]);
    }
  }

  // --- Iterate IN/OUT to a fixpoint over reverse post order, a word at a
  // time: OUT = GEN ∪ (IN − KILL).
  CFG Cfg(F);
  // Entry IN: parameter pseudo-definitions.
  if (NumBlocks != 0)
    for (unsigned P = 0; P != F.getNumParams(); ++P)
      setBit(In.data(), static_cast<unsigned>(DefIdxOfParam[P]));

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (int BSigned : Cfg.reversePostOrder()) {
      unsigned B = static_cast<unsigned>(BSigned);
      uint64_t *BIn = In.data() + B * Words;
      for (int Pred : Cfg.predecessors(B)) {
        const uint64_t *POut =
            Out.data() + static_cast<unsigned>(Pred) * Words;
        for (size_t W = 0; W != Words; ++W)
          BIn[W] |= POut[W];
      }
      uint64_t *BOut = Out.data() + B * Words;
      const uint64_t *BKill = Kill.data() + B * Words;
      for (size_t W = 0; W != Words; ++W) {
        uint64_t New = BOut[W] | (BIn[W] & ~BKill[W]);
        Changed |= New != BOut[W];
        BOut[W] = New;
      }
    }
  }

  // --- Attribute definitions to every use: the last earlier def of the
  // register in the same block, else its defs in the block's IN set.
  ReachingPerUse.resize(F.getNumOpIds());
  UsesPerDefOp.resize(F.getNumOpIds());
  UsesPerParam.resize(F.getNumParams());
  std::fill(Stamp.begin(), Stamp.end(), ~0u);

  for (unsigned B = 0; B != NumBlocks; ++B) {
    const uint64_t *BIn = In.data() + B * Words;
    for (const auto &Op : F.getBlock(B).operations()) {
      unsigned OpId = static_cast<unsigned>(Op->getId());
      auto &PerSrc = ReachingPerUse[OpId];
      PerSrc.resize(Op->getNumSrcs());
      for (unsigned S = 0, E = Op->getNumSrcs(); S != E; ++S) {
        unsigned R = static_cast<unsigned>(Op->getSrc(S));
        std::vector<unsigned> &Reaching = PerSrc[S];
        if (Stamp[R] == B) {
          Reaching.assign(1, LastDef[R]);
        } else {
          for (unsigned D : DefsOfReg[R])
            if (testBit(BIn, D))
              Reaching.push_back(D);
        }
        for (unsigned D : Reaching) {
          UseSite Use{Op->getId(), static_cast<int>(S)};
          if (Defs[D].isParam())
            UsesPerParam[static_cast<unsigned>(Defs[D].paramIndex())]
                .push_back(Use);
          else
            UsesPerDefOp[static_cast<unsigned>(Defs[D].OpId)].push_back(Use);
        }
      }
      if (Op->hasDest()) {
        unsigned R = static_cast<unsigned>(Op->getDest());
        Stamp[R] = B;
        LastDef[R] = static_cast<unsigned>(DefIdxOfOp[OpId]);
      }
    }
  }

  EmptyFallback.resize(1);
}

const std::vector<unsigned> &DefUse::defsForUse(unsigned OpId,
                                                unsigned SrcIdx) const {
  assert(OpId < ReachingPerUse.size() && "operation id out of range");
  const auto &PerSrc = ReachingPerUse[OpId];
  if (SrcIdx >= PerSrc.size())
    return EmptyFallback[0];
  return PerSrc[SrcIdx];
}

const std::vector<DefUse::UseSite> &DefUse::usesOfDef(unsigned OpId) const {
  assert(OpId < UsesPerDefOp.size() && "operation id out of range");
  return UsesPerDefOp[OpId];
}

const std::vector<DefUse::UseSite> &
DefUse::usesOfParam(unsigned ParamIdx) const {
  assert(ParamIdx < UsesPerParam.size() && "parameter index out of range");
  return UsesPerParam[ParamIdx];
}
