//===- tests/runtime/CaptureObservationTest.cpp - Capture observations ----===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// observeCaptures tests membership in bitmaps over the span of the
// baseline's miss lines and counts overshoot by merging two sorted lists.
// A seeded property test holds it to a reference that sorts the scheme
// footprint and binary-searches every miss and access line: every field of
// every TaskObservation must be equal.
//
//===----------------------------------------------------------------------===//

#include "runtime/CaptureObservation.h"
#include "support/MathUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

using namespace dae;
using namespace dae::runtime;

namespace {

bool containsLine(const std::vector<std::uint64_t> &SortedLines,
                  std::uint64_t Line) {
  return std::binary_search(SortedLines.begin(), SortedLines.end(), Line);
}

/// The reference: observeCaptures as a sort of the scheme footprint plus a
/// binary search per miss and per access line.
std::vector<TaskObservation>
referenceObserveCaptures(const RunCapture &With, const RunCapture &Without) {
  // The scheme's access-phase footprint: every line any decoupled task's
  // access phase touched (sorted unique, so per-miss membership is a binary
  // search).
  std::vector<std::uint64_t> Footprint;
  for (const TaskCapture &W : With.Tasks)
    if (W.HasAccess)
      Footprint.insert(Footprint.end(), W.Access.Lines.begin(),
                       W.Access.Lines.end());
  std::sort(Footprint.begin(), Footprint.end());
  Footprint.erase(std::unique(Footprint.begin(), Footprint.end()),
                  Footprint.end());

  std::vector<TaskObservation> Obs(With.Tasks.size());
  for (std::size_t I = 0; I != With.Tasks.size(); ++I) {
    TaskObservation &O = Obs[I];
    O.LineBytes = With.LineBytes;
    const TaskCapture &W = With.Tasks[I];
    if (!W.HasAccess)
      continue;
    O.HasAccess = true;

    for (std::uint64_t Miss : Without.Tasks[I].Execute.MissLines) {
      ++O.BaselineMisses;
      if (containsLine(Footprint, Miss))
        ++O.FootprintCoveredMisses;
      if (containsLine(W.Access.Lines, Miss))
        ++O.StrictCoveredMisses;
    }

    O.PrefetchedLines = W.Access.Lines.size();
    for (std::uint64_t Line : W.Access.Lines)
      if (!containsLine(W.Execute.Lines, Line))
        ++O.UnusedPrefetchedLines;
    O.ExecuteLines = W.Execute.Lines.size();
  }
  return Obs;
}

/// The highest line a 62-bit address can fall in at 64-byte lines.
constexpr std::uint64_t TopLine = (1ull << 56) - 1;

void sortUnique(std::vector<std::uint64_t> &Lines) {
  std::sort(Lines.begin(), Lines.end());
  Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
}

/// Which of the shapes the generator aims for one drawn case has.
struct CaseShape {
  bool CoupledTask = false;
  bool DecoupledWithoutMisses = false;
  bool RepeatedMiss = false;
  bool OneLineSpan = false;
  bool FarAccessLine = false;
  bool AllAccessOutsideSpan = false;
};

/// One drawn pair of captures: misses in a window of 1 to 5000 lines at a
/// random base, execute lines around it, and access lines around it, all
/// outside it, or at the ends of the line space.
struct DrawnCase {
  RunCapture With, Without;

  explicit DrawnCase(SplitMixRng &Rng) {
    const std::uint64_t Window =
        Rng.nextBelow(4) == 0 ? 1
                              : 1 + Rng.nextBelow(Rng.nextBelow(2) ? 64 : 5000);
    const std::uint64_t Base = 1024 + Rng.nextBelow(1ull << 40);
    const std::size_t NumTasks = Rng.nextBelow(10);
    With.LineBytes = 64 << Rng.nextBelow(2);
    With.Tasks.resize(NumTasks);
    Without.Tasks.resize(NumTasks);
    // A line near the window: inside it, or up to 16 lines beyond either
    // end.
    auto Near = [&] { return Base - 16 + Rng.nextBelow(Window + 32); };
    // A line outside the window, below or above it.
    auto Outside = [&] {
      return Rng.nextBelow(2) ? Base - 1 - Rng.nextBelow(Base)
                              : Base + Window + Rng.nextBelow(64);
    };
    for (std::size_t I = 0; I != NumTasks; ++I) {
      TaskCapture &W = With.Tasks[I];
      W.HasAccess = Rng.nextBelow(4) != 0;
      // The baseline's misses, none or some with repeats: drawn from a pool
      // of a few lines of the window.
      std::vector<std::uint64_t> &Misses = Without.Tasks[I].Execute.MissLines;
      const std::size_t NumMisses =
          Rng.nextBelow(3) == 0 ? 0 : Rng.nextBelow(40);
      const std::uint64_t Pool =
          1 + Rng.nextBelow(std::min<std::uint64_t>(Window, 24));
      const std::uint64_t PoolBase = Base + Rng.nextBelow(Window - Pool + 1);
      for (std::size_t M = 0; M != NumMisses; ++M)
        Misses.push_back(PoolBase + Rng.nextBelow(Pool));
      for (std::size_t L = Rng.nextBelow(30); L != 0; --L)
        W.Execute.Lines.push_back(Near());
      sortUnique(W.Execute.Lines);
      if (!W.HasAccess)
        continue;
      if (Rng.nextBelow(5) == 0) {
        for (std::size_t L = 1 + Rng.nextBelow(8); L != 0; --L)
          W.Access.Lines.push_back(Outside());
      } else {
        for (std::size_t L = Rng.nextBelow(40); L != 0; --L)
          W.Access.Lines.push_back(Near());
        // Some of the execute phase's lines were prefetched.
        for (std::uint64_t Line : W.Execute.Lines)
          if (Rng.nextBelow(2))
            W.Access.Lines.push_back(Line);
      }
      if (Rng.nextBelow(4) == 0)
        W.Access.Lines.push_back(0);
      if (Rng.nextBelow(4) == 0)
        W.Access.Lines.push_back(TopLine);
      sortUnique(W.Access.Lines);
    }
  }

  CaseShape shape() const {
    CaseShape S;
    std::uint64_t Lo = ~0ull, Hi = 0;
    for (std::size_t I = 0; I != With.Tasks.size(); ++I) {
      const std::vector<std::uint64_t> &Misses =
          Without.Tasks[I].Execute.MissLines;
      if (!With.Tasks[I].HasAccess) {
        S.CoupledTask = true;
        continue;
      }
      S.DecoupledWithoutMisses |= Misses.empty();
      std::vector<std::uint64_t> Sorted = Misses;
      std::sort(Sorted.begin(), Sorted.end());
      S.RepeatedMiss |=
          std::adjacent_find(Sorted.begin(), Sorted.end()) != Sorted.end();
      for (std::uint64_t Miss : Misses) {
        Lo = std::min(Lo, Miss);
        Hi = std::max(Hi, Miss);
      }
      for (std::uint64_t Line : With.Tasks[I].Access.Lines)
        S.FarAccessLine |= Line == 0 || Line == TopLine;
    }
    S.OneLineSpan = Lo == Hi;
    for (const TaskCapture &W : With.Tasks)
      S.AllAccessOutsideSpan |=
          W.HasAccess && !W.Access.Lines.empty() && Lo <= Hi &&
          std::none_of(W.Access.Lines.begin(), W.Access.Lines.end(),
                       [&](std::uint64_t L) { return L >= Lo && L <= Hi; });
    return S;
  }
};

void expectObservationsEqual(const std::vector<TaskObservation> &A,
                             const std::vector<TaskObservation> &B,
                             unsigned Seed) {
  ASSERT_EQ(A.size(), B.size()) << "seed " << Seed;
  for (std::size_t I = 0; I != A.size(); ++I) {
    EXPECT_EQ(A[I].HasAccess, B[I].HasAccess)
        << "seed " << Seed << " task " << I;
    EXPECT_EQ(A[I].BaselineMisses, B[I].BaselineMisses)
        << "seed " << Seed << " task " << I;
    EXPECT_EQ(A[I].FootprintCoveredMisses, B[I].FootprintCoveredMisses)
        << "seed " << Seed << " task " << I;
    EXPECT_EQ(A[I].StrictCoveredMisses, B[I].StrictCoveredMisses)
        << "seed " << Seed << " task " << I;
    EXPECT_EQ(A[I].PrefetchedLines, B[I].PrefetchedLines)
        << "seed " << Seed << " task " << I;
    EXPECT_EQ(A[I].UnusedPrefetchedLines, B[I].UnusedPrefetchedLines)
        << "seed " << Seed << " task " << I;
    EXPECT_EQ(A[I].ExecuteLines, B[I].ExecuteLines)
        << "seed " << Seed << " task " << I;
    EXPECT_EQ(A[I].LineBytes, B[I].LineBytes)
        << "seed " << Seed << " task " << I;
  }
}

TEST(CaptureObservationTest, MatchesBinarySearchReference) {
  unsigned Shapes[6] = {};
  std::uint64_t Covered = 0, StrictCovered = 0, Unused = 0;
  for (unsigned Seed = 1; Seed <= 400; ++Seed) {
    SplitMixRng Rng(Seed);
    DrawnCase C(Rng);
    std::vector<TaskObservation> Obs = observeCaptures(C.With, C.Without);
    expectObservationsEqual(Obs, referenceObserveCaptures(C.With, C.Without),
                            Seed);
    for (const TaskObservation &O : Obs) {
      Covered += O.FootprintCoveredMisses;
      StrictCovered += O.StrictCoveredMisses;
      Unused += O.UnusedPrefetchedLines;
    }
    CaseShape S = C.shape();
    Shapes[0] += S.CoupledTask;
    Shapes[1] += S.DecoupledWithoutMisses;
    Shapes[2] += S.RepeatedMiss;
    Shapes[3] += S.OneLineSpan;
    Shapes[4] += S.FarAccessLine;
    Shapes[5] += S.AllAccessOutsideSpan;
  }
  // The draws reach every shape, and the counts are not all trivial.
  for (unsigned N : Shapes)
    EXPECT_GT(N, 10u);
  EXPECT_GT(Covered, StrictCovered);
  EXPECT_GT(StrictCovered, 0u);
  EXPECT_GT(Unused, 0u);
}

TEST(CaptureObservationTest, EmptyCaptures) {
  RunCapture With, Without;
  EXPECT_TRUE(observeCaptures(With, Without).empty());
  // A decoupled task with access lines, and no baseline miss in any task:
  // the span is empty, and overshoot still counts.
  With.Tasks.resize(2);
  Without.Tasks.resize(2);
  With.Tasks[0].HasAccess = true;
  With.Tasks[0].Access.Lines = {0, 5, TopLine};
  With.Tasks[0].Execute.Lines = {5};
  std::vector<TaskObservation> Obs = observeCaptures(With, Without);
  expectObservationsEqual(Obs, referenceObserveCaptures(With, Without), 0);
  EXPECT_EQ(Obs[0].PrefetchedLines, 3u);
  EXPECT_EQ(Obs[0].UnusedPrefetchedLines, 2u);
  EXPECT_FALSE(Obs[1].HasAccess);
}

} // namespace
