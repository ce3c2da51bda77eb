//===- poly/ConvexHull.cpp - Hull of a union of polyhedra ------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "poly/ConvexHull.h"

#include <cassert>

using namespace dae;
using namespace dae::poly;

namespace {

/// Runs exact redundancy elimination whenever the constraint system grows
/// past a threshold, to keep Fourier-Motzkin blowup in check.
Polyhedron compress(Polyhedron P, unsigned Threshold) {
  P.simplify();
  if (P.getNumConstraints() > Threshold)
    return P.removeRedundant();
  return P;
}

} // namespace

namespace {

/// Balas hull of exactly two non-empty members (see header). The public
/// entry point folds the union pairwise — conv(A u B u C) =
/// conv(conv(A u B) u C) — which keeps the lifted space small and
/// Fourier-Motzkin tame.
Polyhedron pairwiseHull(const std::vector<const Polyhedron *> &Members);

} // namespace

Polyhedron poly::convexHullOfUnion(const std::vector<Polyhedron> &Ps) {
  std::vector<const Polyhedron *> Members;
  for (const auto &P : Ps)
    if (!P.isEmpty())
      Members.push_back(&P);
  assert(!Members.empty() && "hull of an empty union");
  const unsigned N = Members.front()->getNumVars();
  for ([[maybe_unused]] const Polyhedron *P : Members)
    assert(P->getNumVars() == N && "hull members in different spaces");

  if (Members.size() == 1)
    return Members.front()->removeRedundant();

  Polyhedron Acc = Members.front()->removeRedundant();
  for (size_t I = 1; I != Members.size(); ++I)
    Acc = pairwiseHull({&Acc, Members[I]});
  return Acc;
}

namespace {

Polyhedron pairwiseHull(const std::vector<const Polyhedron *> &Members) {
  const unsigned N = Members.front()->getNumVars();
  assert(Members.size() == 2 && "pairwise hull takes exactly two members");
  // Compact Balas encoding with the equalities already substituted:
  //   x = x1 + x2, l1 + l2 = 1  with  w := x2, u := l2
  //   member 0:  A0 (x - w) + b0 (1 - u) >= 0
  //   member 1:  A1 w + b1 u >= 0
  //   0 <= u <= 1
  // Variable layout: [0, N) -> x (kept), [N, 2N) -> w, [2N] -> u.
  const unsigned Total = 2 * N + 1;
  Polyhedron Lifted(Total);

  for (const PolyConstraint &C : Members[0]->constraints()) {
    std::vector<std::int64_t> E(Total, 0);
    for (unsigned D = 0; D != N; ++D) {
      E[D] = C.Coeffs[D];
      E[N + D] = -C.Coeffs[D];
    }
    E[2 * N] = -C.Const;
    Lifted.addInequality(std::move(E), C.Const);
  }
  for (const PolyConstraint &C : Members[1]->constraints()) {
    std::vector<std::int64_t> E(Total, 0);
    for (unsigned D = 0; D != N; ++D)
      E[N + D] = C.Coeffs[D];
    E[2 * N] = C.Const;
    Lifted.addInequality(std::move(E), 0);
  }
  Lifted.addLowerBound(2 * N, 0);
  Lifted.addUpperBound(2 * N, 1);

  // Project out the lifted variables one at a time, greedily choosing the
  // variable with the smallest pos*neg fan-out and compacting after every
  // step — unconstrained growth between eliminations blows up doubly
  // exponentially otherwise.
  {
    std::vector<unsigned> Aux;
    for (unsigned V = N; V != Total; ++V)
      Aux.push_back(V);
    while (!Aux.empty()) {
      unsigned BestIdx = 0;
      long long BestScore = -1;
      for (unsigned I = 0; I != Aux.size(); ++I) {
        long long Pos = 0, Neg = 0;
        for (const PolyConstraint &C : Lifted.constraints()) {
          if (C.Coeffs[Aux[I]] > 0)
            ++Pos;
          else if (C.Coeffs[Aux[I]] < 0)
            ++Neg;
        }
        long long Score = Pos * Neg - (Pos + Neg);
        if (BestScore < 0 || Score < BestScore) {
          BestScore = Score;
          BestIdx = I;
        }
      }
      Lifted = Lifted.eliminate(Aux[BestIdx]);
      Aux.erase(Aux.begin() + BestIdx);
      Lifted = compress(std::move(Lifted), 48);
    }
  }

  // Restrict to the x coordinates.
  Polyhedron Hull(N);
  for (const PolyConstraint &C : Lifted.constraints()) {
    bool OnlyX = true;
    for (unsigned V = N; V != Total; ++V)
      if (C.Coeffs[V] != 0) {
        OnlyX = false;
        break;
      }
    if (!OnlyX)
      continue;
    std::vector<std::int64_t> E(C.Coeffs.begin(), C.Coeffs.begin() + N);
    Hull.addInequality(std::move(E), C.Const);
  }
  return Hull.removeRedundant();
}

} // namespace
