//===- poly/ConvexHull.h - Hull of a union of polyhedra ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The "convex union" of section 5.1.2: the closed convex hull of a union of
/// H-polyhedra, computed symbolically with Balas's lift-and-project
/// construction and Fourier-Motzkin projection:
///
///   conv(P1 u ... u Pk) = proj_x { (x, x1..xk, l1..lk) :
///       x = sum xi, sum li = 1, li >= 0, Ai xi + bi li >= 0 }
///
/// Parameters (e.g. Block, N, Ax/Ay of Listing 3) are ordinary dimensions of
/// the space that the caller simply never scans; keeping them as dimensions
/// is what makes the generated prefetch loop bounds symbolic in the task
/// parameters.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_POLY_CONVEXHULL_H
#define DAECC_POLY_CONVEXHULL_H

#include "poly/Polyhedron.h"

#include <vector>

namespace dae {
namespace poly {

/// Closed convex hull of the union of \p Ps (all over the same space).
/// Empty members are ignored; asserts at least one non-empty member.
Polyhedron convexHullOfUnion(const std::vector<Polyhedron> &Ps);

} // namespace poly
} // namespace dae

#endif // DAECC_POLY_CONVEXHULL_H
