//===- tests/AnalysisOracleTests.cpp - Analyses vs dense reference oracles ===//
//
// src/analysis computes reaching definitions a 64-bit word at a time and
// natural loops from a Cooper-Harvey-Kennedy dominator tree, and BlockDFG
// answers localIndexOf from the OpIndex. This file keeps the
// straightforward dense formulations as test-only oracles: bit-by-bit
// reaching definitions with a per-block register table, dense
// dominator-set natural loops, and a per-block op-id table. Every result
// the partitioners and the scheduler read must match the oracle exactly,
// including list order, on the bundled workloads, the property-seed
// corpus (`GDP_GEN_SEEDS` wide), one 20k-op scale program and hand-built
// CFG shapes.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/DefUse.h"
#include "analysis/LoopInfo.h"
#include "analysis/OpIndex.h"
#include "gen/Generator.h"
#include "ir/IRBuilder.h"
#include "sched/BlockDFG.h"
#include "tests/GenTestUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace gdp;

namespace {

// --- Oracles ---------------------------------------------------------------

/// Dense reaching definitions: GEN/KILL applied one def at a time, a
/// bit-by-bit transfer function, and a per-block table of the current
/// reaching defs of every register.
struct DenseReachingDefs {
  std::vector<DefUse::DefSite> Defs;
  std::vector<std::vector<std::vector<unsigned>>> ReachingPerUse;
  std::vector<std::vector<DefUse::UseSite>> UsesPerDefOp;
  std::vector<std::vector<DefUse::UseSite>> UsesPerParam;

  explicit DenseReachingDefs(const Function &F) {
    std::vector<int> DefIdxOfOp(F.getNumOpIds(), -1);
    std::vector<unsigned> DefIdxOfParam(F.getNumParams());
    for (unsigned P = 0; P != F.getNumParams(); ++P) {
      DefIdxOfParam[P] = static_cast<unsigned>(Defs.size());
      Defs.push_back({-(static_cast<int>(P) + 1), static_cast<int>(P)});
    }
    for (const auto &BB : F.blocks())
      for (const auto &Op : BB->operations())
        if (Op->hasDest()) {
          DefIdxOfOp[static_cast<unsigned>(Op->getId())] =
              static_cast<int>(Defs.size());
          Defs.push_back({Op->getId(), Op->getDest()});
        }
    unsigned NumDefs = static_cast<unsigned>(Defs.size());
    unsigned NumBlocks = F.getNumBlocks();

    std::vector<std::vector<unsigned>> DefsOfReg(F.getNumVRegs());
    for (unsigned D = 0; D != NumDefs; ++D)
      DefsOfReg[static_cast<unsigned>(Defs[D].Reg)].push_back(D);

    using Bits = std::vector<bool>;
    std::vector<Bits> Gen(NumBlocks, Bits(NumDefs));
    std::vector<Bits> Kill(NumBlocks, Bits(NumDefs));
    for (unsigned B = 0; B != NumBlocks; ++B)
      for (const auto &Op : F.getBlock(B).operations()) {
        if (!Op->hasDest())
          continue;
        unsigned D = static_cast<unsigned>(
            DefIdxOfOp[static_cast<unsigned>(Op->getId())]);
        for (unsigned Other :
             DefsOfReg[static_cast<unsigned>(Op->getDest())]) {
          Kill[B][Other] = true;
          Gen[B][Other] = false;
        }
        Kill[B][D] = false;
        Gen[B][D] = true;
      }

    CFG Cfg(F);
    std::vector<Bits> In(NumBlocks, Bits(NumDefs));
    std::vector<Bits> Out(NumBlocks, Bits(NumDefs));
    for (unsigned P = 0; P != F.getNumParams(); ++P)
      In[0][DefIdxOfParam[P]] = true;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (int BS : Cfg.reversePostOrder()) {
        unsigned B = static_cast<unsigned>(BS);
        for (int Pred : Cfg.predecessors(B))
          for (unsigned D = 0; D != NumDefs; ++D)
            if (Out[static_cast<unsigned>(Pred)][D])
              In[B][D] = true;
        for (unsigned D = 0; D != NumDefs; ++D) {
          bool New = Gen[B][D] || (In[B][D] && !Kill[B][D]);
          if (New && !Out[B][D]) {
            Out[B][D] = true;
            Changed = true;
          }
        }
      }
    }

    ReachingPerUse.resize(F.getNumOpIds());
    UsesPerDefOp.resize(F.getNumOpIds());
    UsesPerParam.resize(F.getNumParams());
    for (unsigned B = 0; B != NumBlocks; ++B) {
      std::vector<std::vector<unsigned>> Current(F.getNumVRegs());
      for (unsigned D = 0; D != NumDefs; ++D)
        if (In[B][D])
          Current[static_cast<unsigned>(Defs[D].Reg)].push_back(D);
      for (const auto &Op : F.getBlock(B).operations()) {
        unsigned OpId = static_cast<unsigned>(Op->getId());
        auto &PerSrc = ReachingPerUse[OpId];
        PerSrc.resize(Op->getNumSrcs());
        for (unsigned S = 0, E = Op->getNumSrcs(); S != E; ++S) {
          PerSrc[S] = Current[static_cast<unsigned>(Op->getSrc(S))];
          for (unsigned D : PerSrc[S]) {
            DefUse::UseSite Use{Op->getId(), static_cast<int>(S)};
            if (Defs[D].isParam())
              UsesPerParam[static_cast<unsigned>(Defs[D].paramIndex())]
                  .push_back(Use);
            else
              UsesPerDefOp[static_cast<unsigned>(Defs[D].OpId)].push_back(
                  Use);
          }
        }
        if (Op->hasDest())
          Current[static_cast<unsigned>(Op->getDest())].assign(
              1, static_cast<unsigned>(DefIdxOfOp[OpId]));
      }
    }
  }
};

/// Dense natural loops: iterative dominator sets (one N-bit set per
/// block), back edges from set membership, one body walk per back edge,
/// and depth by pairwise containment.
struct DenseLoops {
  std::vector<LoopInfo::Loop> Loops;
  std::vector<int> InnermostOf;

  DenseLoops(const Function &F, const CFG &Cfg) {
    unsigned N = F.getNumBlocks();
    InnermostOf.assign(N, -1);
    if (N == 0)
      return;
    std::vector<std::vector<bool>> Dom(N, std::vector<bool>(N, true));
    Dom[0].assign(N, false);
    Dom[0][0] = true;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (int BS : Cfg.reversePostOrder()) {
        unsigned B = static_cast<unsigned>(BS);
        if (B == 0 || !Cfg.isReachable(B))
          continue;
        std::vector<bool> NewDom(N, true);
        bool Any = false;
        for (int Pred : Cfg.predecessors(B)) {
          if (!Cfg.isReachable(static_cast<unsigned>(Pred)))
            continue;
          Any = true;
          for (unsigned I = 0; I != N; ++I)
            NewDom[I] = NewDom[I] && Dom[static_cast<unsigned>(Pred)][I];
        }
        if (!Any)
          NewDom.assign(N, false);
        NewDom[B] = true;
        if (NewDom != Dom[B]) {
          Dom[B] = std::move(NewDom);
          Changed = true;
        }
      }
    }

    std::map<int, std::vector<int>> BodyOfHeader;
    for (unsigned B = 0; B != N; ++B) {
      if (!Cfg.isReachable(B))
        continue;
      for (int Succ : Cfg.successors(B)) {
        unsigned H = static_cast<unsigned>(Succ);
        if (!Dom[B][H])
          continue;
        std::vector<bool> InLoop(N, false);
        InLoop[H] = true;
        std::vector<unsigned> Work;
        if (!InLoop[B]) {
          InLoop[B] = true;
          Work.push_back(B);
        }
        while (!Work.empty()) {
          unsigned X = Work.back();
          Work.pop_back();
          for (int Pred : Cfg.predecessors(X)) {
            unsigned PB = static_cast<unsigned>(Pred);
            if (!InLoop[PB] && Cfg.isReachable(PB)) {
              InLoop[PB] = true;
              Work.push_back(PB);
            }
          }
        }
        auto &Body = BodyOfHeader[static_cast<int>(H)];
        for (unsigned X = 0; X != N; ++X)
          if (InLoop[X])
            Body.push_back(static_cast<int>(X));
        std::sort(Body.begin(), Body.end());
        Body.erase(std::unique(Body.begin(), Body.end()), Body.end());
      }
    }

    for (auto &[Header, Blocks] : BodyOfHeader) {
      LoopInfo::Loop L;
      L.Header = Header;
      L.Blocks = Blocks;
      for (int Pred : Cfg.predecessors(static_cast<unsigned>(Header)))
        if (!std::binary_search(Blocks.begin(), Blocks.end(), Pred))
          L.EntryPreds.push_back(Pred);
      Loops.push_back(std::move(L));
    }

    for (unsigned I = 0; I != Loops.size(); ++I) {
      for (unsigned J = 0; J != Loops.size(); ++J)
        if (I != J && Loops[J].Blocks.size() > Loops[I].Blocks.size() &&
            std::binary_search(Loops[J].Blocks.begin(),
                               Loops[J].Blocks.end(), Loops[I].Header))
          ++Loops[I].Depth;
      for (int B : Loops[I].Blocks) {
        int Cur = InnermostOf[static_cast<unsigned>(B)];
        if (Cur < 0 || Loops[static_cast<unsigned>(Cur)].Blocks.size() >
                           Loops[I].Blocks.size())
          InnermostOf[static_cast<unsigned>(B)] = static_cast<int>(I);
      }
    }
  }
};

// --- Comparison ------------------------------------------------------------

bool sameUses(const std::vector<DefUse::UseSite> &A,
              const std::vector<DefUse::UseSite> &B) {
  return A.size() == B.size() &&
         std::equal(A.begin(), A.end(), B.begin(),
                    [](const DefUse::UseSite &X, const DefUse::UseSite &Y) {
                      return X.OpId == Y.OpId && X.SrcIdx == Y.SrcIdx;
                    });
}

/// Compares every analysis result of \p F against the oracles; \p What
/// names the function in failure messages.
void expectMatchesOracles(const Function &F, const std::string &What) {
  SCOPED_TRACE(What + "/" + F.getName());

  DefUse DU(F);
  DenseReachingDefs Ref(F);
  ASSERT_EQ(DU.getNumDefs(), Ref.Defs.size());
  for (unsigned D = 0; D != DU.getNumDefs(); ++D) {
    ASSERT_EQ(DU.getDef(D).OpId, Ref.Defs[D].OpId) << "def " << D;
    ASSERT_EQ(DU.getDef(D).Reg, Ref.Defs[D].Reg) << "def " << D;
  }
  for (const auto &BB : F.blocks())
    for (const auto &Op : BB->operations()) {
      unsigned Id = static_cast<unsigned>(Op->getId());
      for (unsigned S = 0; S != Op->getNumSrcs(); ++S)
        ASSERT_EQ(DU.defsForUse(Id, S), Ref.ReachingPerUse[Id][S])
            << "op " << Id << " src " << S;
      ASSERT_TRUE(sameUses(DU.usesOfDef(Id), Ref.UsesPerDefOp[Id]))
          << "uses of op " << Id;
    }
  for (unsigned P = 0; P != F.getNumParams(); ++P)
    ASSERT_TRUE(sameUses(DU.usesOfParam(P), Ref.UsesPerParam[P]))
        << "uses of param " << P;

  CFG Cfg(F);
  LoopInfo LI(F, Cfg);
  DenseLoops RefLoops(F, Cfg);
  ASSERT_EQ(LI.getNumLoops(), RefLoops.Loops.size());
  for (unsigned L = 0; L != LI.getNumLoops(); ++L) {
    const LoopInfo::Loop &Got = LI.getLoop(L);
    const LoopInfo::Loop &Want = RefLoops.Loops[L];
    ASSERT_EQ(Got.Header, Want.Header) << "loop " << L;
    ASSERT_EQ(Got.Blocks, Want.Blocks) << "loop " << L;
    ASSERT_EQ(Got.EntryPreds, Want.EntryPreds) << "loop " << L;
    ASSERT_EQ(Got.Depth, Want.Depth) << "loop " << L;
  }
  for (unsigned B = 0; B != F.getNumBlocks(); ++B)
    ASSERT_EQ(LI.innermostLoopOf(B), RefLoops.InnermostOf[B]) << "block " << B;

  OpIndex OI(F);
  for (const auto &BB : F.blocks()) {
    BlockDFG DFG(*BB, DU, OI, &LI);
    std::vector<int> LocalOf(F.getNumOpIds(), -1);
    for (unsigned I = 0; I != BB->size(); ++I)
      LocalOf[static_cast<unsigned>(BB->getOp(I).getId())] =
          static_cast<int>(I);
    for (unsigned Id = 0; Id != F.getNumOpIds(); ++Id)
      ASSERT_EQ(DFG.localIndexOf(Id), LocalOf[Id])
          << "block " << BB->getId() << " op " << Id;
    ASSERT_EQ(DFG.localIndexOf(F.getNumOpIds()), -1);
  }
}

void expectProgramMatchesOracles(const Program &P, const std::string &What) {
  for (const auto &F : P.functions()) {
    expectMatchesOracles(*F, What);
    if (::testing::Test::HasFatalFailure())
      return;
  }
}

void expectGenMatchesOracles(const gen::GenOptions &Opt) {
  std::unique_ptr<Program> P = gen::generateProgram(Opt);
  ASSERT_NE(P, nullptr) << gen::reproCommand(Opt);
  expectProgramMatchesOracles(*P, gen::reproCommand(Opt));
  if (::testing::Test::HasFailure())
    gentest::dumpFailingSeed(Opt, P.get(), "analysis oracle mismatch");
}

} // namespace

// --- Inputs ----------------------------------------------------------------

TEST(AnalysisOracle, BundledWorkloads) {
  for (const WorkloadInfo &W : allWorkloads()) {
    std::unique_ptr<Program> P = W.Build();
    ASSERT_NE(P, nullptr) << W.Name;
    expectProgramMatchesOracles(*P, W.Name);
    if (HasFatalFailure())
      return;
  }
}

TEST(AnalysisOracle, PropertySeeds) {
  unsigned N = gentest::seedCount(25);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    expectGenMatchesOracles(gen::GenOptions::property(Seed));
    if (HasFatalFailure())
      return;
  }
}

TEST(AnalysisOracle, Scale20kProgram) {
  expectGenMatchesOracles(gen::GenOptions::scale(103, 20000));
}

TEST(AnalysisOracle, SelfLoop) {
  // entry -> spin -> {spin, exit}: a one-block loop whose latch is its
  // header, with a value redefined on every trip.
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 1);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Spin = F->makeBlock("spin");
  BasicBlock *Exit = F->makeBlock("exit");
  B.setInsertPoint(Entry);
  int X = B.movi(1);
  B.br(Spin);
  B.setInsertPoint(Spin);
  B.emitBinaryTo(X, Opcode::Add, X, 0);
  B.brCond(X, Spin, Exit);
  B.setInsertPoint(Exit);
  B.ret(X);
  expectMatchesOracles(*F, "self-loop");
}

TEST(AnalysisOracle, IrreducibleCycle) {
  // entry branches into both A and B, which branch to each other: a
  // cycle with two entries, so neither block dominates the other and no
  // natural loop exists. A third block loops on itself inside it.
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 1);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *A = F->makeBlock("a");
  BasicBlock *Bb = F->makeBlock("b");
  BasicBlock *Inner = F->makeBlock("inner");
  BasicBlock *Exit = F->makeBlock("exit");
  B.setInsertPoint(Entry);
  int X = B.movi(0);
  B.brCond(0, A, Bb);
  B.setInsertPoint(A);
  B.moviTo(X, 1);
  B.brCond(X, Bb, Exit);
  B.setInsertPoint(Bb);
  B.emitBinaryTo(X, Opcode::Add, X, 0);
  B.brCond(X, Inner, Exit);
  B.setInsertPoint(Inner);
  B.emitBinaryTo(X, Opcode::Add, X, X);
  B.brCond(X, Inner, A);
  B.setInsertPoint(Exit);
  B.ret(X);
  expectMatchesOracles(*F, "irreducible");
  CFG Cfg(*F);
  LoopInfo LI(*F, Cfg);
  ASSERT_EQ(LI.getNumLoops(), 1u);
  EXPECT_EQ(LI.getLoop(0).Header, Inner->getId());
}

TEST(AnalysisOracle, UnreachablePredecessors) {
  // A dead two-block cycle that defines values and branches into a
  // reachable loop's header and body: its defs reach the reachable uses,
  // it is an entry predecessor of the header, and neither the dead cycle
  // nor the walk from the reachable latch takes it into a loop.
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 0);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Head = F->makeBlock("head");
  BasicBlock *Body = F->makeBlock("body");
  BasicBlock *Join = F->makeBlock("join");
  BasicBlock *Dead = F->makeBlock("dead");
  BasicBlock *DeadLoop = F->makeBlock("deadloop");
  B.setInsertPoint(Entry);
  int X = B.movi(1);
  int Y = B.movi(2);
  B.br(Head);
  B.setInsertPoint(Head);
  B.brCond(X, Body, Join);
  B.setInsertPoint(Body);
  B.emitBinaryTo(X, Opcode::Add, X, Y);
  B.br(Head);
  B.setInsertPoint(Join);
  B.ret(B.add(X, Y));
  B.setInsertPoint(Dead);
  B.moviTo(Y, 7);
  B.brCond(Y, Body, DeadLoop);
  B.setInsertPoint(DeadLoop);
  B.moviTo(X, 3);
  B.brCond(X, Head, Dead);
  expectMatchesOracles(*F, "unreachable-preds");
  CFG Cfg(*F);
  LoopInfo LI(*F, Cfg);
  ASSERT_EQ(LI.getNumLoops(), 1u);
  EXPECT_EQ(LI.getLoop(0).Blocks,
            (std::vector<int>{Head->getId(), Body->getId()}));
  EXPECT_EQ(LI.innermostLoopOf(static_cast<unsigned>(Dead->getId())), -1);
  EXPECT_EQ(LI.innermostLoopOf(static_cast<unsigned>(DeadLoop->getId())), -1);
}

TEST(AnalysisOracle, SharedHeaderAndEntryLoops) {
  // The entry block is itself a loop header, and an inner header has two
  // latches whose natural loops merge.
  auto P = std::make_unique<Program>("t");
  Function *F = P->makeFunction("main", 2);
  IRBuilder B(F);
  BasicBlock *Entry = F->makeBlock("entry");
  BasicBlock *Head = F->makeBlock("head");
  BasicBlock *L1 = F->makeBlock("latch1");
  BasicBlock *L2 = F->makeBlock("latch2");
  BasicBlock *Out = F->makeBlock("out");
  B.setInsertPoint(Entry);
  B.emitBinaryTo(0, Opcode::Add, 0, 1);
  B.br(Head);
  B.setInsertPoint(Head);
  B.brCond(0, L1, L2);
  B.setInsertPoint(L1);
  B.emitBinaryTo(1, Opcode::Add, 1, 0);
  B.brCond(1, Head, Out);
  B.setInsertPoint(L2);
  B.emitBinaryTo(0, Opcode::Add, 0, 0);
  B.brCond(0, Head, Out);
  B.setInsertPoint(Out);
  B.brCond(1, Entry, Out);
  expectMatchesOracles(*F, "shared-header");
}
