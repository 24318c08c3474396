//===- tests/ArenaTests.cpp - Arena allocator and affinity unit tests ---------===//
//
// The support/Arena subsystem: bump-allocation alignment (over-aligned
// types included), block growth and warm reuse, mark/release stack
// discipline, the ArenaAllocator heap fallback, per-thread scratch
// isolation under a worker pool — plus the SoA-vs-map equivalence of the
// flat structures that replaced map-keyed state (PartitionGraph adjacency,
// ProfileData access lists, the CSR coarse-graph constructor) and the
// thread-affinity toggle parsing the tools share.
//
//===----------------------------------------------------------------------===//

#include "graph/CSRGraph.h"
#include "graph/PartitionGraph.h"
#include "ir/Program.h"
#include "profile/ProfileData.h"
#include "support/Arena.h"
#include "support/Random.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <vector>

using namespace gdp;
using namespace gdp::support;

// --- Arena core -------------------------------------------------------------

TEST(ArenaTest, AlignmentHonored) {
  Arena A;
  for (size_t Align : {1u, 2u, 4u, 8u, 16u, 32u, 64u}) {
    void *P = A.allocate(3, Align);
    ASSERT_NE(P, nullptr);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % Align, 0u)
        << "align " << Align;
  }
}

TEST(ArenaTest, OverAlignedBeyondBlockAlignment) {
  // Blocks themselves are 64-aligned; requests above that must still be
  // honored wherever the bump pointer happens to sit.
  Arena A(128); // Tiny first block forces mid-block and fresh-block cases.
  for (int I = 0; I != 50; ++I) {
    A.allocate(1, 1); // Skew the cursor.
    void *P = A.allocate(17, 256);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % 256, 0u) << "iteration " << I;
  }
}

TEST(ArenaTest, TypedAllocateIsUsableStorage) {
  Arena A;
  struct alignas(128) Wide {
    double V[4];
  };
  Wide *W = A.allocate<Wide>(3);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(W) % alignof(Wide), 0u);
  for (int I = 0; I != 3; ++I)
    W[I].V[0] = I; // Must not fault or overlap.
  EXPECT_EQ(W[2].V[0], 2.0);
}

TEST(ArenaTest, ZeroByteAllocationsAreDistinct) {
  Arena A;
  void *P = A.allocate(0, 1);
  void *Q = A.allocate(0, 1);
  EXPECT_NE(P, nullptr);
  EXPECT_NE(P, Q);
}

TEST(ArenaTest, BlocksGrowGeometrically) {
  Arena A(64);
  EXPECT_EQ(A.numBlocks(), 0u);
  A.allocate(1, 1);
  EXPECT_EQ(A.numBlocks(), 1u);
  // Outgrow the first block: a bigger one appears, and a request larger
  // than any doubling is satisfied by a block at least that big.
  A.allocate(200, 8);
  EXPECT_EQ(A.numBlocks(), 2u);
  A.allocate(1 << 20, 8);
  EXPECT_GE(A.numBlocks(), 3u);
  EXPECT_EQ(A.stats().BlocksCreated, A.numBlocks());
}

TEST(ArenaTest, ResetKeepsBlocksWarm) {
  Arena A(64);
  for (int I = 0; I != 100; ++I)
    A.allocate(64, 8);
  uint64_t BlocksAfterFirstPass = A.stats().BlocksCreated;
  A.reset();
  EXPECT_EQ(A.liveBytes(), 0u);
  // The same allocation sequence replays entirely from warm blocks.
  for (int I = 0; I != 100; ++I)
    A.allocate(64, 8);
  EXPECT_EQ(A.stats().BlocksCreated, BlocksAfterFirstPass);
  EXPECT_EQ(A.stats().Resets, 1u);
}

TEST(ArenaTest, StatsCountRequestedBytes) {
  Arena A;
  A.allocate(100, 8);
  A.allocate(28, 4);
  EXPECT_EQ(A.stats().BytesAllocated, 128u);
  EXPECT_EQ(A.liveBytes(), 128u);
  EXPECT_EQ(A.stats().HighWaterBytes, 128u);
  A.reset();
  A.allocate(16, 8);
  // High-water is a lifetime max; live bytes rewound.
  EXPECT_EQ(A.stats().HighWaterBytes, 128u);
  EXPECT_EQ(A.liveBytes(), 16u);
}

TEST(ArenaTest, MarkReleaseNestsLikeAStack) {
  Arena A(64);
  A.allocate(40, 8);
  uint64_t OuterLive = A.liveBytes();
  Arena::Mark M = A.mark();
  // Inner scope spills into fresh blocks, then releases.
  for (int I = 0; I != 50; ++I)
    A.allocate(64, 8);
  EXPECT_GT(A.liveBytes(), OuterLive);
  A.release(M);
  EXPECT_EQ(A.liveBytes(), OuterLive);
  // Post-release allocation reuses the inner scope's warm blocks.
  uint64_t Created = A.stats().BlocksCreated;
  for (int I = 0; I != 50; ++I)
    A.allocate(64, 8);
  EXPECT_EQ(A.stats().BlocksCreated, Created);
}

// --- ArenaAllocator / ArenaVector -------------------------------------------

TEST(ArenaAllocatorTest, NullArenaFallsBackToHeap) {
  // Default-constructed (no arena): a plain heap vector; must grow, hold
  // values, and free cleanly.
  ArenaVector<int> V;
  for (int I = 0; I != 1000; ++I)
    V.push_back(I);
  EXPECT_EQ(V.size(), 1000u);
  EXPECT_EQ(V[999], 999);
  EXPECT_EQ(V.get_allocator().arena(), nullptr);
}

TEST(ArenaAllocatorTest, ArenaBackedVectorGrowsInArena) {
  Arena A;
  ArenaVector<uint64_t> V(&A);
  for (uint64_t I = 0; I != 1000; ++I)
    V.push_back(I * 3);
  EXPECT_EQ(V[999], 2997u);
  // Everything the vector ever allocated came from the arena.
  EXPECT_GE(A.stats().BytesAllocated, 1000 * sizeof(uint64_t));
}

TEST(ArenaAllocatorTest, AllocatorsCompareByArena) {
  Arena A, B;
  EXPECT_EQ(ArenaAllocator<int>(&A), ArenaAllocator<int>(&A));
  EXPECT_NE(ArenaAllocator<int>(&A), ArenaAllocator<int>(&B));
  EXPECT_NE(ArenaAllocator<int>(&A), ArenaAllocator<int>());
}

// --- Thread-scratch isolation ------------------------------------------------

TEST(ScratchArenaTest, ScopesNestOnOneThread) {
  Arena &A = threadScratchArena();
  uint64_t Before = A.liveBytes();
  {
    ScratchArena Outer;
    Outer.arena().allocate(100, 8);
    {
      ScratchArena Inner;
      Inner.arena().allocate(1000, 8);
    }
    EXPECT_EQ(A.liveBytes(), Before + 100);
  }
  EXPECT_EQ(A.liveBytes(), Before);
}

TEST(ScratchArenaTest, PublishedHighWaterIsScopeRelative) {
  // A scope must report its OWN peak, not the bigger number a warm arena
  // remembers from an earlier task — otherwise the metric depends on
  // which thread ran which task and session stats lose determinism.
  {
    ScratchArena Big;
    Big.arena().allocate(1 << 16, 8); // Warm the thread arena.
  }
  telemetry::TelemetrySession S;
  telemetry::ScopedSession Scope(S);
  {
    ScratchArena Small;
    Small.arena().allocate(100, 8);
    Small.arena().allocate(28, 4);
  }
  telemetry::LogHistogram High = S.stats().getValue("arena.high_water_bytes");
  EXPECT_EQ(High.count(), 1u);
  EXPECT_EQ(High.max(), 128.0);
  EXPECT_EQ(S.stats().getCounter("arena.bytes_allocated"), 128u);
  EXPECT_EQ(S.stats().getCounter("arena.resets"), 1u);
}

TEST(ScratchArenaTest, ProcessBlockGaugeTracksLiveArenas) {
  int64_t Before = processArenaBlocks();
  {
    Arena A(64);
    A.allocate(1, 1);
    A.allocate(200, 8); // Second block.
    EXPECT_EQ(processArenaBlocks(), Before + 2);
  }
  EXPECT_EQ(processArenaBlocks(), Before);
}

TEST(ScratchArenaTest, PerThreadIsolationUnderParallelMap) {
  // Every task fills an arena-backed buffer with a task-unique pattern and
  // re-checks it after more allocation: corruption would mean two threads
  // shared blocks. 8 workers × many tasks with nested scopes.
  ThreadPool Pool(8);
  std::vector<int> Items(64);
  std::iota(Items.begin(), Items.end(), 0);
  std::vector<int> Bad = Pool.parallelMap(Items, [](const int &Item) {
    ScratchArena Scope;
    ArenaVector<uint32_t> Buf(&Scope.arena());
    Buf.assign(4096, static_cast<uint32_t>(Item) * 0x9e3779b9u);
    {
      ScratchArena Nested;
      Nested.arena().allocate(1 << 14, 64); // Churn inside the nested scope.
    }
    for (uint32_t V : Buf)
      if (V != static_cast<uint32_t>(Item) * 0x9e3779b9u)
        return 1;
    return 0;
  });
  EXPECT_EQ(std::accumulate(Bad.begin(), Bad.end(), 0), 0);
}

// --- SoA-vs-map equivalence ---------------------------------------------------

TEST(SoAEquivalence, PartitionGraphAdjacencyMatchesMapSemantics) {
  // The flat sorted EdgeList must accumulate and iterate exactly like the
  // std::map<unsigned, uint64_t> it replaced, under random insertions.
  Random RNG(1234);
  PartitionGraph G(1);
  for (int I = 0; I != 64; ++I)
    G.addNode({1});
  std::vector<std::map<unsigned, uint64_t>> Ref(64);
  for (int I = 0; I != 2000; ++I) {
    unsigned A = static_cast<unsigned>(RNG.nextBelow(64));
    unsigned B = static_cast<unsigned>(RNG.nextBelow(64));
    uint64_t W = RNG.nextBelow(3); // Include zero-weight (ignored) edges.
    G.addEdge(A, B, W);
    if (A != B && W != 0) {
      Ref[A][B] += W;
      Ref[B][A] += W;
    }
  }
  uint64_t RefTotal = 0;
  for (unsigned N = 0; N != 64; ++N) {
    const PartitionGraph::EdgeList &Flat = G.neighbors(N);
    ASSERT_EQ(Flat.size(), Ref[N].size()) << "node " << N;
    size_t I = 0;
    for (const auto &[Nbr, W] : Ref[N]) { // Map order == ascending ids.
      EXPECT_EQ(Flat[I].first, Nbr) << "node " << N << " slot " << I;
      EXPECT_EQ(Flat[I].second, W) << "node " << N << " slot " << I;
      EXPECT_EQ(G.edgeWeight(N, Nbr), W);
      RefTotal += W;
      ++I;
    }
  }
  EXPECT_EQ(G.totalEdgeWeight(), RefTotal / 2);
}

TEST(SoAEquivalence, ProfileAccessListsMatchMapSemantics) {
  std::unique_ptr<Program> P = buildWorkload("fir");
  ProfileData Prof(*P);
  std::vector<std::map<int, uint64_t>> Ref(4);
  Random RNG(77);
  for (int I = 0; I != 500; ++I) {
    unsigned Op = static_cast<unsigned>(RNG.nextBelow(4));
    int Obj = static_cast<int>(RNG.nextBelow(6));
    uint64_t N = 1 + RNG.nextBelow(9);
    Prof.addAccess(0, Op, Obj, N);
    Ref[Op][Obj] += N;
  }
  for (unsigned Op = 0; Op != 4; ++Op) {
    const ProfileData::AccessList &Flat = Prof.getAccessMap(0, Op);
    ASSERT_EQ(Flat.size(), Ref[Op].size()) << "op " << Op;
    size_t I = 0;
    for (const auto &[Obj, N] : Ref[Op]) {
      EXPECT_EQ(Flat[I].first, Obj);
      EXPECT_EQ(Flat[I].second, N);
      EXPECT_EQ(Prof.getAccessCount(0, Op, Obj), N);
      ++I;
    }
  }
}

TEST(SoAEquivalence, CSRCoarseningMatchesRebuiltPartitionGraph) {
  // The direct CSR coarse constructor must produce exactly the graph the
  // old path built by re-accumulating crossing edges into a fresh
  // PartitionGraph and snapshotting it.
  Random RNG(99);
  PartitionGraph Fine(2);
  const unsigned N = 40, Coarse = 13;
  for (unsigned I = 0; I != N; ++I)
    Fine.addNode({1 + RNG.nextBelow(9), RNG.nextBelow(4)});
  for (unsigned I = 0; I != 3 * N; ++I)
    Fine.addEdge(static_cast<unsigned>(RNG.nextBelow(N)),
                 static_cast<unsigned>(RNG.nextBelow(N)),
                 RNG.nextBelow(20));
  std::vector<unsigned> FineToCoarse(N);
  for (unsigned I = 0; I != N; ++I)
    FineToCoarse[I] = static_cast<unsigned>(RNG.nextBelow(Coarse));

  CSRGraph FineCSR(Fine);
  CSRGraph Got(FineCSR, FineToCoarse, Coarse);

  PartitionGraph Rebuilt(2);
  std::vector<std::vector<uint64_t>> CW(Coarse,
                                        std::vector<uint64_t>(2, 0));
  for (unsigned I = 0; I != N; ++I)
    for (unsigned C = 0; C != 2; ++C)
      CW[FineToCoarse[I]][C] += Fine.getNodeWeights(I)[C];
  for (unsigned G = 0; G != Coarse; ++G)
    Rebuilt.addNode(CW[G]);
  for (unsigned I = 0; I != N; ++I)
    for (const auto &[Nbr, W] : Fine.neighbors(I))
      if (I < Nbr && FineToCoarse[I] != FineToCoarse[Nbr])
        Rebuilt.addEdge(FineToCoarse[I], FineToCoarse[Nbr], W);
  CSRGraph Want(Rebuilt);

  ASSERT_EQ(Got.getNumNodes(), Want.getNumNodes());
  EXPECT_EQ(Got.totalEdgeWeight(), Want.totalEdgeWeight());
  EXPECT_EQ(Got.totalWeights(), Want.totalWeights());
  for (unsigned Node = 0; Node != Coarse; ++Node) {
    ASSERT_EQ(Got.degree(Node), Want.degree(Node)) << "node " << Node;
    for (unsigned C = 0; C != 2; ++C)
      EXPECT_EQ(Got.nodeWeight(Node, C), Want.nodeWeight(Node, C));
    for (uint32_t S = Got.edgeBegin(Node), T = Want.edgeBegin(Node);
         S != Got.edgeEnd(Node); ++S, ++T) {
      EXPECT_EQ(Got.edgeTarget(S), Want.edgeTarget(T));
      EXPECT_EQ(Got.edgeWeight(S), Want.edgeWeight(T));
    }
  }
}

// --- Thread affinity ----------------------------------------------------------

TEST(AffinityTest, ParseAcceptsBooleanSpellings) {
  bool On = false;
  for (const char *S : {"1", "on", "true", "yes", "ON", "True"}) {
    EXPECT_TRUE(parseAffinitySetting(S, On)) << S;
    EXPECT_TRUE(On) << S;
  }
  for (const char *S : {"0", "off", "false", "no", "OFF", "False"}) {
    EXPECT_TRUE(parseAffinitySetting(S, On)) << S;
    EXPECT_FALSE(On) << S;
  }
  for (const char *S : {"", "2", "maybe", "tru", "yes "}) {
    On = true;
    EXPECT_FALSE(parseAffinitySetting(S, On)) << "'" << S << "'";
  }
}

TEST(AffinityTest, ResolvePrefersFlagOverEnvironment) {
  setenv("GDP_AFFINITY", "1", 1);
  std::string Err;
  EXPECT_TRUE(resolveThreadAffinity("off", &Err));
  EXPECT_FALSE(threadAffinityEnabled());
  EXPECT_TRUE(resolveThreadAffinity("on", &Err));
  EXPECT_TRUE(threadAffinityEnabled());
  // No flag: the environment decides.
  EXPECT_TRUE(resolveThreadAffinity("", &Err));
  EXPECT_TRUE(threadAffinityEnabled());
  unsetenv("GDP_AFFINITY");
  EXPECT_TRUE(resolveThreadAffinity("", &Err));
  EXPECT_FALSE(threadAffinityEnabled());
}

TEST(AffinityTest, ResolveRejectsGarbage) {
  std::string Err;
  EXPECT_FALSE(resolveThreadAffinity("sideways", &Err));
  EXPECT_NE(Err.find("sideways"), std::string::npos);
  setenv("GDP_AFFINITY", "garbage", 1);
  EXPECT_EQ(threadAffinityFromEnv(), -1);
  Err.clear();
  EXPECT_FALSE(resolveThreadAffinity("", &Err));
  EXPECT_NE(Err.find("GDP_AFFINITY"), std::string::npos);
  unsetenv("GDP_AFFINITY");
}

TEST(AffinityTest, PinnedPoolStillComputesCorrectly) {
  // Pinning is a placement hint: a pinned pool must produce exactly the
  // results of an unpinned one (here: a trivial parallel map).
  setThreadAffinity(true);
  {
    ThreadPool Pool(4);
#if defined(__linux__)
    EXPECT_TRUE(Pool.workersPinned());
#endif
    std::vector<int> Items(100);
    std::iota(Items.begin(), Items.end(), 0);
    std::vector<int> Out = Pool.parallelMap(
        Items, [](const int &I) { return I * 2; });
    for (int I = 0; I != 100; ++I)
      EXPECT_EQ(Out[I], I * 2);
  }
  setThreadAffinity(false);
  ThreadPool Unpinned(2);
  EXPECT_FALSE(Unpinned.workersPinned());
}
