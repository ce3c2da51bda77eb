//===- tests/poly/ConvexHullTest.cpp - Hull-of-union unit tests -----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "poly/ConvexHull.h"

#include <gtest/gtest.h>

using namespace dae::poly;

namespace {

Polyhedron box2D(std::int64_t XLo, std::int64_t XHi, std::int64_t YLo,
                 std::int64_t YHi) {
  Polyhedron P(2);
  P.addLowerBound(0, XLo);
  P.addUpperBound(0, XHi);
  P.addLowerBound(1, YLo);
  P.addUpperBound(1, YHi);
  return P;
}

TEST(ConvexHullTest, SingleMemberIsIdentity) {
  Polyhedron P = box2D(0, 4, 0, 4);
  Polyhedron H = convexHullOfUnion({P});
  EXPECT_EQ(H.countIntegerPoints().value(), 25);
}

TEST(ConvexHullTest, DisjointBoxesOnALine) {
  // [0,2] and [10,12] on x, same y: hull covers [0,12] x [0,1].
  Polyhedron A = box2D(0, 2, 0, 1);
  Polyhedron B = box2D(10, 12, 0, 1);
  Polyhedron H = convexHullOfUnion({A, B});
  EXPECT_EQ(H.countIntegerPoints().value(), 13 * 2);
  EXPECT_TRUE(H.contains({5, 0}));
  EXPECT_FALSE(H.contains({5, 2}));
}

TEST(ConvexHullTest, NestedBoxesGiveOuter) {
  Polyhedron Inner = box2D(1, 2, 1, 2);
  Polyhedron Outer = box2D(0, 4, 0, 4);
  Polyhedron H = convexHullOfUnion({Inner, Outer});
  EXPECT_EQ(H.countIntegerPoints().value(), 25);
}

TEST(ConvexHullTest, TriangleUnionDiagonal) {
  // Lower and upper triangles of a 5x5 square hull to the full square.
  Polyhedron Lower(2), Upper(2);
  for (Polyhedron *P : {&Lower, &Upper}) {
    P->addLowerBound(0, 0);
    P->addUpperBound(0, 4);
    P->addLowerBound(1, 0);
    P->addUpperBound(1, 4);
  }
  Lower.addInequality({1, -1}, 0);  // j <= i.
  Upper.addInequality({-1, 1}, 0);  // j >= i.
  Polyhedron H = convexHullOfUnion({Lower, Upper});
  EXPECT_EQ(H.countIntegerPoints().value(), 25);
}

TEST(ConvexHullTest, HullIsConvexSuperset) {
  // Two offset boxes produce a hexagonal hull; every member point is inside.
  Polyhedron A = box2D(0, 3, 0, 3);
  Polyhedron B = box2D(2, 6, 2, 6);
  Polyhedron H = convexHullOfUnion({A, B});
  for (const auto &Pt : A.enumerateIntegerPoints())
    EXPECT_TRUE(H.contains(Pt));
  for (const auto &Pt : B.enumerateIntegerPoints())
    EXPECT_TRUE(H.contains(Pt));
  // Hull of these two boxes excludes the far corners of the bounding box.
  EXPECT_FALSE(H.contains({0, 6}));
  EXPECT_FALSE(H.contains({6, 0}));
  // ... but contains points on the bridge between them.
  EXPECT_TRUE(H.contains({4, 4}));
}

TEST(ConvexHullTest, EmptyMembersAreIgnored) {
  Polyhedron Empty(2);
  Empty.addLowerBound(0, 5);
  Empty.addUpperBound(0, 0);
  Polyhedron A = box2D(0, 2, 0, 2);
  Polyhedron H = convexHullOfUnion({Empty, A});
  EXPECT_EQ(H.countIntegerPoints().value(), 9);
}

TEST(ConvexHullTest, SymbolicParameterDimension) {
  // Members over (i, N): 0 <= i < N and the singleton {i == N}. The hull in
  // the combined space must allow 0 <= i <= N. Slicing at N = 7 gives 8
  // points.
  Polyhedron A(2);
  A.addLowerBound(0, 0);
  A.addInequality({-1, 1}, -1); // i <= N - 1.
  Polyhedron B(2);
  B.addEquality({1, -1}, 0); // i == N.
  // Bound the parameter in both members so the test polytopes are bounded in
  // the lifted space slice we examine.
  for (Polyhedron *P : {&A, &B}) {
    P->addInequality({0, 1}, 0);    // N >= 0.
    P->addInequality({0, -1}, 100); // N <= 100.
  }
  Polyhedron H = convexHullOfUnion({A, B});
  Polyhedron At7 = H.instantiate(1, 7);
  EXPECT_EQ(At7.countIntegerPoints().value(), 8);
}

} // namespace
