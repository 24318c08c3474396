//===- analysis/LoopInfo.cpp - Natural loop detection ------------------------===//

#include "analysis/LoopInfo.h"

#include "analysis/CFG.h"
#include "ir/Function.h"
#include "profile/ProfileData.h"

#include <algorithm>

using namespace gdp;

LoopInfo::LoopInfo(const Function &F, const CFG &Cfg) {
  unsigned N = F.getNumBlocks();
  InnermostOf.assign(N, -1);
  if (N == 0)
    return;

  // --- Dominator tree over the reachable blocks (Cooper, Harvey and
  // Kennedy, "A Simple, Fast Dominance Algorithm"). The CFG lists the
  // reachable blocks first in its reverse post order, entry first.
  // Unreachable blocks get no idom and join no loop.
  constexpr unsigned None = ~0u;
  const std::vector<int> &RPO = Cfg.reversePostOrder();
  std::vector<unsigned> RPONum(N, None);
  unsigned NumReachable = 0;
  for (int B : RPO)
    if (Cfg.isReachable(static_cast<unsigned>(B)))
      RPONum[static_cast<unsigned>(B)] = NumReachable++;
  std::vector<unsigned> IDom(N, None);
  IDom[0] = 0;
  auto Intersect = [&](unsigned A, unsigned B) {
    while (A != B) {
      while (RPONum[A] > RPONum[B])
        A = IDom[A];
      while (RPONum[B] > RPONum[A])
        B = IDom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned I = 1; I < NumReachable; ++I) {
      unsigned B = static_cast<unsigned>(RPO[I]);
      unsigned NewIDom = None;
      for (int PredSigned : Cfg.predecessors(B)) {
        unsigned Pred = static_cast<unsigned>(PredSigned);
        if (IDom[Pred] == None)
          continue; // Unreachable, or not reached yet in this sweep.
        NewIDom = NewIDom == None ? Pred : Intersect(Pred, NewIDom);
      }
      if (NewIDom != IDom[B]) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }

  // Pre/post-order numbers of the dominator tree: H dominates B iff B's
  // interval nests in H's.
  std::vector<std::vector<unsigned>> Children(N);
  for (unsigned B = 1; B != N; ++B)
    if (IDom[B] != None)
      Children[IDom[B]].push_back(B);
  std::vector<unsigned> Pre(N, 0), Post(N, 0);
  {
    unsigned PreClock = 0, PostClock = 0;
    std::vector<std::pair<unsigned, size_t>> Stack; // (block, next child)
    Pre[0] = PreClock++;
    Stack.push_back({0, 0});
    while (!Stack.empty()) {
      auto &[Block, Next] = Stack.back();
      if (Next != Children[Block].size()) {
        unsigned C = Children[Block][Next++];
        Pre[C] = PreClock++;
        Stack.push_back({C, 0});
      } else {
        Post[Block] = PostClock++;
        Stack.pop_back();
      }
    }
  }
  auto Dominates = [&](unsigned H, unsigned B) {
    return Pre[H] <= Pre[B] && Post[B] <= Post[H];
  };

  // --- Back edges and natural loops; loops sharing a header merge.
  std::vector<std::vector<int>> BodyOfHeader(N); // header -> member blocks
  std::vector<unsigned> Mark(N, 0);              // == Epoch: in this loop
  unsigned Epoch = 0;
  std::vector<unsigned> Work;
  for (unsigned B = 0; B != N; ++B) {
    if (!Cfg.isReachable(B))
      continue;
    for (int Succ : Cfg.successors(B)) {
      unsigned H = static_cast<unsigned>(Succ);
      if (!Dominates(H, B))
        continue; // Not a back edge.
      // Natural loop of (B -> H): H plus everything reaching B without
      // passing through H.
      auto &Body = BodyOfHeader[H];
      ++Epoch;
      Mark[H] = Epoch;
      Body.push_back(static_cast<int>(H));
      if (Mark[B] != Epoch) {
        Mark[B] = Epoch;
        Body.push_back(static_cast<int>(B));
        Work.push_back(B);
      }
      while (!Work.empty()) {
        unsigned X = Work.back();
        Work.pop_back();
        for (int Pred : Cfg.predecessors(X)) {
          unsigned PB = static_cast<unsigned>(Pred);
          if (Mark[PB] != Epoch && Cfg.isReachable(PB)) {
            Mark[PB] = Epoch;
            Body.push_back(Pred);
            Work.push_back(PB);
          }
        }
      }
    }
  }

  std::vector<int> LoopOfHeader(N, -1);
  for (unsigned H = 0; H != N; ++H) {
    auto &Blocks = BodyOfHeader[H];
    if (Blocks.empty())
      continue;
    std::sort(Blocks.begin(), Blocks.end());
    Blocks.erase(std::unique(Blocks.begin(), Blocks.end()), Blocks.end());
    Loop L;
    L.Header = static_cast<int>(H);
    L.Blocks = std::move(Blocks);
    for (int Pred : Cfg.predecessors(H))
      if (!std::binary_search(L.Blocks.begin(), L.Blocks.end(), Pred))
        L.EntryPreds.push_back(Pred);
    LoopOfHeader[H] = static_cast<int>(Loops.size());
    Loops.push_back(std::move(L));
  }

  // --- Depth (one plus the number of larger loops holding the header) and
  // innermost-loop mapping (innermost = smallest containing).
  for (unsigned J = 0; J != Loops.size(); ++J) {
    for (int B : Loops[J].Blocks) {
      int I = LoopOfHeader[static_cast<unsigned>(B)];
      if (I >= 0 && Loops[J].Blocks.size() >
                        Loops[static_cast<unsigned>(I)].Blocks.size())
        ++Loops[static_cast<unsigned>(I)].Depth;
      int Cur = InnermostOf[static_cast<unsigned>(B)];
      if (Cur < 0 || Loops[static_cast<unsigned>(Cur)].Blocks.size() >
                         Loops[J].Blocks.size())
        InnermostOf[static_cast<unsigned>(B)] = static_cast<int>(J);
    }
  }
}

bool LoopInfo::contains(unsigned LoopId, unsigned Block) const {
  const auto &Blocks = Loops[LoopId].Blocks;
  return std::binary_search(Blocks.begin(), Blocks.end(),
                            static_cast<int>(Block));
}

bool LoopInfo::isHoistableLiveIn(int DefBlock, unsigned UseBlock) const {
  int L = InnermostOf[UseBlock];
  if (L < 0)
    return false; // Not in a loop: nothing to hoist out of.
  if (DefBlock < 0)
    return true; // Parameters are defined outside every loop.
  return !contains(static_cast<unsigned>(L),
                   static_cast<unsigned>(DefBlock));
}

uint64_t LoopInfo::entryCountOf(unsigned Block, unsigned FunctionId,
                                const ProfileData &Prof) const {
  int L = InnermostOf[Block];
  if (L < 0)
    return Prof.getBlockFreq(FunctionId, Block);
  uint64_t Count = 0;
  for (int Pred : Loops[static_cast<unsigned>(L)].EntryPreds)
    Count += Prof.getBlockFreq(FunctionId, static_cast<unsigned>(Pred));
  return std::max<uint64_t>(Count, 1);
}
