//===- tests/SupportTests.cpp - Support library unit tests -------------------===//

#include "support/Histogram.h"
#include "support/Random.h"
#include "support/StrUtil.h"
#include "support/UnionFind.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

using namespace gdp;

// --- Random ---------------------------------------------------------------

TEST(RandomTest, DeterministicForSeed) {
  Random A(42), B(42);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(RandomTest, DifferentSeedsDiverge) {
  Random A(1), B(2);
  unsigned Same = 0;
  for (int I = 0; I != 64; ++I)
    Same += A.next() == B.next();
  EXPECT_LT(Same, 4u);
}

TEST(RandomTest, NextBelowInRange) {
  Random R(7);
  for (uint64_t Bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int I = 0; I != 200; ++I)
      EXPECT_LT(R.nextBelow(Bound), Bound);
  }
}

TEST(RandomTest, NextBelowOneAlwaysZero) {
  Random R(9);
  for (int I = 0; I != 16; ++I)
    EXPECT_EQ(R.nextBelow(1), 0u);
}

TEST(RandomTest, NextInRangeInclusive) {
  Random R(11);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    EXPECT_GE(V, -3);
    EXPECT_LE(V, 3);
    SawLo |= V == -3;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

TEST(RandomTest, NextDoubleInUnitInterval) {
  Random R(13);
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(RandomTest, NextBoolProbabilityExtremes) {
  Random R(17);
  for (int I = 0; I != 50; ++I) {
    EXPECT_FALSE(R.nextBool(0.0));
    EXPECT_TRUE(R.nextBool(1.0));
  }
}

TEST(RandomTest, NextBoolRoughlyFair) {
  Random R(19);
  int Heads = 0;
  for (int I = 0; I != 10000; ++I)
    Heads += R.nextBool(0.5);
  EXPECT_GT(Heads, 4500);
  EXPECT_LT(Heads, 5500);
}

TEST(RandomTest, ReseedRestartsStream) {
  Random R(5);
  uint64_t First = R.next();
  R.next();
  R.reseed(5);
  EXPECT_EQ(R.next(), First);
}

TEST(RandomTest, UniformityAcrossBuckets) {
  Random R(23);
  std::map<uint64_t, unsigned> Counts;
  constexpr unsigned N = 8000;
  for (unsigned I = 0; I != N; ++I)
    ++Counts[R.nextBelow(8)];
  for (const auto &[Bucket, Count] : Counts) {
    EXPECT_GT(Count, N / 8 - N / 32) << "bucket " << Bucket;
    EXPECT_LT(Count, N / 8 + N / 32) << "bucket " << Bucket;
  }
}

// --- UnionFind --------------------------------------------------------------

TEST(UnionFindTest, SingletonsInitially) {
  UnionFind UF(5);
  EXPECT_EQ(UF.numSets(), 5u);
  for (unsigned I = 0; I != 5; ++I)
    EXPECT_EQ(UF.find(I), I);
}

TEST(UnionFindTest, MergeConnects) {
  UnionFind UF(4);
  UF.merge(0, 1);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_FALSE(UF.connected(0, 2));
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, MergeIsTransitive) {
  UnionFind UF(6);
  UF.merge(0, 1);
  UF.merge(2, 3);
  UF.merge(1, 2);
  EXPECT_TRUE(UF.connected(0, 3));
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, SelfMergeIsNoop) {
  UnionFind UF(3);
  UF.merge(1, 1);
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, GrowPreservesExistingSets) {
  UnionFind UF(2);
  UF.merge(0, 1);
  UF.grow(4);
  EXPECT_TRUE(UF.connected(0, 1));
  EXPECT_FALSE(UF.connected(0, 3));
  EXPECT_EQ(UF.numSets(), 3u);
}

TEST(UnionFindTest, GroupsCoverAllIds) {
  UnionFind UF(7);
  UF.merge(0, 3);
  UF.merge(3, 6);
  UF.merge(1, 2);
  auto Groups = UF.groups();
  unsigned Total = 0;
  for (const auto &G : Groups)
    Total += static_cast<unsigned>(G.size());
  EXPECT_EQ(Total, 7u);
  // Members are sorted within groups.
  for (const auto &G : Groups)
    EXPECT_TRUE(std::is_sorted(G.begin(), G.end()));
}

TEST(UnionFindTest, LargeChain) {
  constexpr unsigned N = 1000;
  UnionFind UF(N);
  for (unsigned I = 0; I + 1 != N; ++I)
    UF.merge(I, I + 1);
  EXPECT_EQ(UF.numSets(), 1u);
  EXPECT_TRUE(UF.connected(0, N - 1));
}

// --- StrUtil ----------------------------------------------------------------

TEST(StrUtilTest, FormatStrBasics) {
  EXPECT_EQ(formatStr("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(formatStr("empty"), "empty");
}

TEST(StrUtilTest, Padding) {
  EXPECT_EQ(padLeft("ab", 4), "  ab");
  EXPECT_EQ(padRight("ab", 4), "ab  ");
  EXPECT_EQ(padLeft("abcde", 4), "abcde");
}

TEST(StrUtilTest, FormatDoubleAndPercent) {
  EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
  EXPECT_EQ(formatPercent(0.956, 1), "95.6%");
}

TEST(StrUtilTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(StrUtilTest, TextTableAlignsColumns) {
  TextTable T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "23"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("longer"), std::string::npos);
  // Numbers are right-aligned: "23" ends its line where " 1" does.
  EXPECT_NE(Out.find("23"), std::string::npos);
}

// --- Stats -------------------------------------------------------------------

TEST(StatsTest, MeanMinMax) {
  Stats S;
  S.add(2);
  S.add(4);
  S.add(6);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 4.0);
  EXPECT_DOUBLE_EQ(S.min(), 2.0);
  EXPECT_DOUBLE_EQ(S.max(), 6.0);
}

TEST(StatsTest, Geomean) {
  Stats S;
  S.add(1);
  S.add(100);
  EXPECT_NEAR(S.geomean(), 10.0, 1e-9);
}
