//===- bench/micro_poly.cpp - Polyhedral library microbenchmarks ------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the polyhedral substrate: FM
/// elimination, emptiness (simplex), hull-of-union, lattice-point counting
/// and redundancy removal — the operations the affine access generator runs
/// at compile time when it projects, merges and counts a task's access
/// domains (NOrig/NconvUn are lattice counts at representative parameter
/// values).
///
//===----------------------------------------------------------------------===//

#include "poly/ConvexHull.h"
#include "poly/Polyhedron.h"

#include <benchmark/benchmark.h>

using namespace dae::poly;

namespace {

/// Triangular iteration domain 0 <= j <= i < n over (i, j, n-param).
Polyhedron triangle() {
  Polyhedron P(3);
  P.addLowerBound(0, 0);
  P.addInequality({-1, 0, 1}, -1); // i <= n - 1.
  P.addLowerBound(1, 0);
  P.addInequality({1, -1, 0}, 0); // j <= i.
  return P;
}

Polyhedron box(std::int64_t Lo, std::int64_t Hi) {
  Polyhedron P(3);
  P.addLowerBound(0, Lo);
  P.addUpperBound(0, Hi);
  P.addLowerBound(1, Lo);
  P.addUpperBound(1, Hi);
  return P;
}

void BM_FourierMotzkinEliminate(benchmark::State &State) {
  Polyhedron P = triangle();
  for (auto _ : State)
    benchmark::DoNotOptimize(P.eliminate(1));
}
BENCHMARK(BM_FourierMotzkinEliminate);

void BM_EmptinessSimplex(benchmark::State &State) {
  Polyhedron P = triangle();
  P.addInequality({0, 0, 1}, -4); // n >= 4 so the set is non-empty.
  for (auto _ : State)
    benchmark::DoNotOptimize(P.isEmpty());
}
BENCHMARK(BM_EmptinessSimplex);

void BM_ConvexHullOfUnion(benchmark::State &State) {
  Polyhedron A = box(0, 15);
  Polyhedron B = box(20, 35);
  for (auto _ : State)
    benchmark::DoNotOptimize(convexHullOfUnion({A, B}));
}
BENCHMARK(BM_ConvexHullOfUnion);

void BM_CountIntegerPoints(benchmark::State &State) {
  Polyhedron P = triangle().instantiate(2, State.range(0));
  for (auto _ : State)
    benchmark::DoNotOptimize(P.countIntegerPoints());
}
BENCHMARK(BM_CountIntegerPoints)->Arg(8)->Arg(32)->Arg(128);

void BM_RemoveRedundant(benchmark::State &State) {
  Polyhedron P = triangle();
  // Pile on redundant rows.
  for (int I = 0; I != 12; ++I)
    P.addInequality({1, 0, 1}, 100 + I);
  for (auto _ : State)
    benchmark::DoNotOptimize(P.removeRedundant());
}
BENCHMARK(BM_RemoveRedundant);

} // namespace

BENCHMARK_MAIN();
