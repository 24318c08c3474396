//===- tests/RhopDeltaTests.cpp - Delta trial scores vs full evaluation ====//
//
// RHOP refinement scores each candidate group move with
// ScheduleEstimator::State::trial(), which reads only the moved ops' own
// edges, and falls back to the full ScheduleEstimator::evaluate() when the
// delta is inexact and its lower bound cannot rule the move out. This file
// replays RHOP-style trial sequences — random singleton and multi-op
// groups, commits of the best move, occasional forced commits and undos —
// and checks every trial against the full evaluation:
//
//  * the move count is always exact;
//  * an exact length equals the full evaluation, an inexact one never
//    exceeds it;
//  * a trial the bound prunes never beats the incumbent under the full
//    score (length, moves, op balance);
//  * load() after every commit or undo equals the full evaluation.
//
// Inputs: the bundled workloads, the property-seed corpus
// (`GDP_GEN_SEEDS` wide), one 20k-op scale program, each at {2, 4}
// clusters × move latency {1, 5, 10}.
//
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/DefUse.h"
#include "analysis/LoopInfo.h"
#include "analysis/OpIndex.h"
#include "gen/Generator.h"
#include "machine/MachineModel.h"
#include "sched/BlockDFG.h"
#include "sched/Estimator.h"
#include "support/Random.h"
#include "tests/GenTestUtil.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

using namespace gdp;

namespace {

/// What the replays exercised, so a test can insist every trial kind and
/// the same-block live-in producer case were reached.
struct Census {
  uint64_t Exact = 0;
  uint64_t Pruned = 0;
  uint64_t Swept = 0;
  uint64_t LiveInDefTrials = 0;
};

using Score = std::tuple<unsigned, unsigned, unsigned>;

/// Replays one region's trial sequence on \p Assign (function-wide, every
/// op assigned). Ops outside the region keep their clusters.
void replayRegion(const BlockDFG &DFG, const MachineModel &MM,
                  std::vector<int> &Assign, Random &RNG, Census &Cn,
                  const std::string &What) {
  unsigned N = DFG.size();
  if (N == 0)
    return;
  unsigned NumClusters = MM.getNumClusters();
  ScheduleEstimator Est(DFG, MM);
  ScheduleEstimator::State St;
  St.bind(Est);

  std::vector<unsigned> OpId(N);
  std::vector<bool> ProducesLiveIn(N, false);
  for (unsigned I = 0; I != N; ++I)
    OpId[I] = static_cast<unsigned>(DFG.getOp(I).getId());
  for (const BlockDFG::LiveIn &LI : DFG.liveIns())
    if (LI.DefOpId >= 0 && !LI.Hoistable) {
      int Local = DFG.localIndexOf(static_cast<unsigned>(LI.DefOpId));
      if (Local >= 0)
        ProducesLiveIn[static_cast<unsigned>(Local)] = true;
    }

  auto Balance = [&] {
    std::vector<unsigned> Count(NumClusters, 0);
    for (unsigned Id : OpId)
      ++Count[static_cast<unsigned>(Assign[Id])];
    return *std::max_element(Count.begin(), Count.end());
  };
  auto Move = [&](const std::vector<unsigned> &G, int To) {
    for (unsigned X : G)
      Assign[OpId[X]] = To;
  };
  auto ExpectLoaded = [&](const char *When) {
    Estimate Loaded = St.load(Assign);
    Estimate Full = Est.evaluate(Assign);
    EXPECT_EQ(Loaded.Length, Full.Length) << What << " load " << When;
    EXPECT_EQ(Loaded.Moves, Full.Moves) << What << " load " << When;
    return Score(Full.Length, Full.Moves, Balance());
  };

  Score Cur = ExpectLoaded("initial");
  // Undo log: (group, cluster it left).
  std::vector<std::pair<std::vector<unsigned>, int>> History;
  unsigned Steps = std::min(48u, 4 * N);
  std::vector<unsigned> G;
  for (unsigned Step = 0; Step != Steps; ++Step) {
    if (!History.empty() && RNG.nextBelow(8) == 0) {
      Move(History.back().first, History.back().second);
      History.pop_back();
      Cur = ExpectLoaded("after undo");
      continue;
    }

    // A singleton half the time, else ops of one cluster drawn from a
    // window (coarsened groups are mostly nearby chains).
    G.clear();
    unsigned Seed = static_cast<unsigned>(RNG.nextBelow(N));
    int From = Assign[OpId[Seed]];
    G.push_back(Seed);
    if (RNG.nextBool()) {
      unsigned Want = 1 + static_cast<unsigned>(RNG.nextBelow(8));
      unsigned Span = std::min(N, 4 * Want);
      for (unsigned Tries = 0; Tries != Span && G.size() < Want; ++Tries) {
        unsigned X = static_cast<unsigned>(
            (Seed + 1 + RNG.nextBelow(Span)) % N);
        if (Assign[OpId[X]] == From &&
            std::find(G.begin(), G.end(), X) == G.end())
          G.push_back(X);
      }
    }
    bool MovesLiveInDef = std::any_of(
        G.begin(), G.end(), [&](unsigned X) { return ProducesLiveIn[X]; });

    Score Best = Cur;
    int BestTo = From;
    for (unsigned To = 0; To != NumClusters; ++To) {
      if (static_cast<int>(To) == From)
        continue;
      TrialEstimate T = St.trial(G.data(), G.data() + G.size(), To);
      Move(G, static_cast<int>(To));
      Estimate Full = Est.evaluate(Assign);
      unsigned Bal = Balance();
      Move(G, From);
      std::string Where = What + " group of " + std::to_string(G.size()) +
                          " led by op " + std::to_string(Seed) + " to c" +
                          std::to_string(To);
      if (MovesLiveInDef) {
        ++Cn.LiveInDefTrials;
        EXPECT_FALSE(T.Exact) << Where << ": moves a live-in's producer";
      }
      EXPECT_EQ(T.Moves, Full.Moves) << Where;
      Score S(Full.Length, Full.Moves, Bal);
      if (T.Exact) {
        ++Cn.Exact;
        EXPECT_EQ(T.Length, Full.Length) << Where;
      } else {
        EXPECT_LE(T.Length, Full.Length) << Where << ": not a lower bound";
        if (!(Score(T.Length, T.Moves, Bal) < Best)) {
          ++Cn.Pruned;
          EXPECT_FALSE(S < Best) << Where << ": pruned an improving move";
        } else {
          ++Cn.Swept;
        }
      }
      if (S < Best) {
        Best = S;
        BestTo = static_cast<int>(To);
      }
    }
    if (::testing::Test::HasFailure())
      return;

    // Commit the best move, or now and then a random one so the replay
    // also visits states refinement would not.
    int To = BestTo;
    if (To == From && RNG.nextBelow(4) == 0)
      To = static_cast<int>((static_cast<unsigned>(From) + 1 +
                             RNG.nextBelow(NumClusters - 1)) %
                            NumClusters);
    if (To == From)
      continue;
    Move(G, To);
    History.push_back({G, From});
    Score Loaded = ExpectLoaded("after commit");
    if (To == BestTo) {
      EXPECT_EQ(Loaded, Best) << What << ": committed score drifted";
    }
    Cur = Loaded;
  }
}

void replayProgram(const Program &P, const std::string &What, Census &Cn) {
  for (unsigned Clusters : {2u, 4u})
    for (unsigned Lat : {1u, 5u, 10u}) {
      MachineModel MM = MachineModel::makeDefault(Clusters, Lat);
      Random RNG(Clusters * 100 + Lat);
      for (const auto &F : P.functions()) {
        OpIndex OI(*F);
        DefUse DU(*F);
        CFG Cfg(*F);
        LoopInfo LI(*F, Cfg);
        std::vector<int> Assign(F->getNumOpIds());
        for (int &A : Assign)
          A = static_cast<int>(RNG.nextBelow(Clusters));
        for (unsigned B = 0; B != F->getNumBlocks(); ++B) {
          BlockDFG DFG(F->getBlock(B), DU, OI, &LI);
          replayRegion(DFG, MM, Assign, RNG, Cn,
                       What + " " + F->getName() + " bb" + std::to_string(B) +
                           " clusters " + std::to_string(Clusters) + " lat " +
                           std::to_string(Lat));
          if (::testing::Test::HasFailure())
            return;
        }
      }
    }
}

void replayGen(const gen::GenOptions &Opt, Census &Cn) {
  std::unique_ptr<Program> P = gen::generateProgram(Opt);
  ASSERT_NE(P, nullptr) << gen::reproCommand(Opt);
  replayProgram(*P, gen::reproCommand(Opt), Cn);
  if (::testing::Test::HasFailure())
    gentest::dumpFailingSeed(Opt, P.get(), "delta trial mismatch");
}

} // namespace

TEST(RhopDelta, BundledWorkloads) {
  Census Cn;
  for (const WorkloadInfo &W : allWorkloads()) {
    std::unique_ptr<Program> P = W.Build();
    ASSERT_NE(P, nullptr) << W.Name;
    replayProgram(*P, W.Name, Cn);
    if (HasFailure())
      return;
  }
  // Every branch of the trial was reached, including a group that moves
  // the producer of a value carried around its own block.
  EXPECT_GT(Cn.Exact, 0u);
  EXPECT_GT(Cn.Pruned, 0u);
  EXPECT_GT(Cn.Swept, 0u);
  EXPECT_GT(Cn.LiveInDefTrials, 0u);
}

TEST(RhopDelta, PropertySeeds) {
  Census Cn;
  unsigned N = gentest::seedCount(25);
  for (uint64_t Seed = 1; Seed <= N; ++Seed) {
    replayGen(gen::GenOptions::property(Seed), Cn);
    if (HasFailure())
      return;
  }
  EXPECT_GT(Cn.Exact, 0u);
}

TEST(RhopDelta, Scale20kProgram) {
  Census Cn;
  replayGen(gen::GenOptions::scale(103, 20000), Cn);
  EXPECT_GT(Cn.Exact, 0u);
}
