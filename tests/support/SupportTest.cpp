//===- tests/support/SupportTest.cpp - Support library tests ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Format.h"
#include "support/MathUtil.h"
#include "support/RadixSort.h"
#include "support/Rational.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace dae;

namespace {

TEST(RationalTest, NormalizesOnConstruction) {
  Rational R(6, 4);
  EXPECT_EQ(R.num(), 3);
  EXPECT_EQ(R.den(), 2);
  Rational Neg(3, -6);
  EXPECT_EQ(Neg.num(), -1);
  EXPECT_EQ(Neg.den(), 2);
}

TEST(RationalTest, Arithmetic) {
  Rational A(1, 3), B(1, 6);
  EXPECT_EQ(A + B, Rational(1, 2));
  EXPECT_EQ(A - B, Rational(1, 6));
  EXPECT_EQ(A * B, Rational(1, 18));
  EXPECT_EQ(A / B, Rational(2));
  EXPECT_EQ(-A, Rational(-1, 3));
}

TEST(RationalTest, OverflowThrowsInEveryBuildType) {
  // 2^62 * 3 overflows the reduced 64-bit magnitude; before the checked
  // narrow() this silently wrapped in Release builds and could flip the
  // hull guard's lattice-point comparison.
  Rational Big(std::int64_t(1) << 62);
  EXPECT_THROW(Big * Rational(3), RationalOverflow);
  EXPECT_THROW(Big + Big, RationalOverflow);
  // Results that reduce back into range must not throw.
  EXPECT_EQ(Big * Rational(1, 1 << 30), Rational(std::int64_t(1) << 32));
}

TEST(RationalTest, Comparisons) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_LE(Rational(2, 4), Rational(1, 2));
  EXPECT_GT(Rational(-1, 4), Rational(-1, 2));
  EXPECT_NE(Rational(1, 3), Rational(1, 4));
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(4).floor(), 4);
  EXPECT_EQ(Rational(4).ceil(), 4);
}

TEST(RationalTest, LargeIntermediatesCancel) {
  // (k/(k+1)) - (k-1)/k has huge cross products but a tiny result.
  std::int64_t K = 1000000007;
  Rational A(K, K + 1), B(K - 1, K);
  Rational D = A - B;
  EXPECT_EQ(D.num(), 1);
  EXPECT_EQ(D.den(), K * (K + 1));
}

TEST(RationalTest, StringForm) {
  EXPECT_EQ(Rational(3).str(), "3");
  EXPECT_EQ(Rational(-3, 7).str(), "-3/7");
}

TEST(Gcd64Test, Basics) {
  EXPECT_EQ(gcd64(12, 18), 6);
  EXPECT_EQ(gcd64(-12, 18), 6);
  EXPECT_EQ(gcd64(0, 5), 5);
  EXPECT_EQ(gcd64(0, 0), 0);
}

TEST(GeometricMeanTest, KnownValues) {
  EXPECT_DOUBLE_EQ(geometricMean({4.0, 9.0}), 6.0);
  EXPECT_DOUBLE_EQ(geometricMean({2.0, 2.0, 2.0}), 2.0);
  EXPECT_NEAR(geometricMean({1.0, 10.0}), 3.16227766, 1e-6);
}

TEST(SplitMixRngTest, DeterministicAndSpread) {
  SplitMixRng A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
  // nextBelow stays in range.
  SplitMixRng R(7);
  for (int I = 0; I != 1000; ++I)
    EXPECT_LT(R.nextBelow(17), 17u);
  // nextDouble stays in [0, 1).
  for (int I = 0; I != 1000; ++I) {
    double D = R.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(FormatTest, Strfmt) {
  EXPECT_EQ(strfmt("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strfmt("%.2f", 1.5), "1.50");
  EXPECT_EQ(strfmt("plain"), "plain");
}

/// radixSort then unique equals std::sort then unique, for sizes 0, 1, 2,
/// 63 to 65 and 10^5, and for spans that need 0, 1, 2, 3 and 7 passes. Keys
/// sit above a base offset, since the sort works on key - min.
TEST(RadixSortTest, MatchesStdSort) {
  const std::uint64_t Spans[] = {0,   1,         255,
                                 256, 1ull << 20, (1ull << 56) - 1};
  std::vector<std::uint64_t> Scratch;
  for (std::size_t Size : {0, 1, 2, 63, 64, 65, 100000})
    for (std::uint64_t Span : Spans) {
      SplitMixRng Rng(Size * 131 + Span % 1000003);
      const std::uint64_t Base = 1000 + Rng.nextBelow(1000);
      std::vector<std::uint64_t> Keys;
      for (std::size_t I = 0; I != Size; ++I)
        Keys.push_back(Base + Rng.nextBelow(Span + 1));
      // The span is exact: both of its ends are keys, in reverse order.
      if (Size >= 2) {
        Keys.front() = Base + Span;
        Keys.back() = Base;
      }
      std::vector<std::uint64_t> Expected = Keys;
      std::sort(Expected.begin(), Expected.end());
      radixSort(Keys, Scratch);
      EXPECT_EQ(Keys, Expected) << "size " << Size << ", span " << Span;
      Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
      Expected.erase(std::unique(Expected.begin(), Expected.end()),
                     Expected.end());
      EXPECT_EQ(Keys, Expected) << "size " << Size << ", span " << Span;
    }
}

} // namespace
