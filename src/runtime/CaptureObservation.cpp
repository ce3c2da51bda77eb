//===- runtime/CaptureObservation.cpp - Capture -> profile bridge ----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/CaptureObservation.h"

#include <algorithm>
#include <cassert>

using namespace dae;
using namespace dae::runtime;

namespace {

/// How many lines of \p Sub (sorted, unique) are missing from \p Of (sorted,
/// unique): one merge walk of the two lists.
std::uint64_t countMissing(const std::vector<std::uint64_t> &Sub,
                           const std::vector<std::uint64_t> &Of) {
  std::uint64_t Missing = 0;
  auto It = Of.begin();
  for (std::uint64_t Line : Sub) {
    while (It != Of.end() && *It < Line)
      ++It;
    Missing += It == Of.end() || *It != Line;
  }
  return Missing;
}

} // namespace

std::vector<TaskObservation>
runtime::observeCaptures(const RunCapture &With, const RunCapture &Without) {
  assert(With.Tasks.size() == Without.Tasks.size() &&
         "captures recorded from different task lists");

  // Coverage only ever asks whether a baseline miss line is a member, so
  // both line sets are bitmaps over the span of those miss lines. Demand
  // loads are bounds-checked against the Loader's footprint, so the span
  // stays within it; an access line outside the span can match no miss and
  // is skipped.
  std::uint64_t Lo = ~0ull, Hi = 0;
  for (std::size_t I = 0; I != With.Tasks.size(); ++I)
    if (With.Tasks[I].HasAccess)
      for (std::uint64_t Miss : Without.Tasks[I].Execute.MissLines) {
        Lo = std::min(Lo, Miss);
        Hi = std::max(Hi, Miss);
      }
  const std::uint64_t Span = Lo <= Hi ? Hi - Lo + 1 : 0;
  // Line - Lo wraps for a line below Lo, so one compare checks both ends.
  auto InSpan = [Lo, Span](std::uint64_t Line) { return Line - Lo < Span; };
  // The scheme's access-phase footprint: every line any decoupled task's
  // access phase touched. The task's own access lines are set before its
  // misses are tested and cleared after.
  std::vector<bool> Footprint(Span), Own(Span);
  for (const TaskCapture &W : With.Tasks)
    if (W.HasAccess)
      for (std::uint64_t Line : W.Access.Lines)
        if (InSpan(Line))
          Footprint[Line - Lo] = true;

  std::vector<TaskObservation> Obs(With.Tasks.size());
  for (std::size_t I = 0; I != With.Tasks.size(); ++I) {
    TaskObservation &O = Obs[I];
    O.LineBytes = With.LineBytes;
    const TaskCapture &W = With.Tasks[I];
    if (!W.HasAccess)
      continue;
    O.HasAccess = true;

    const std::vector<std::uint64_t> &Misses =
        Without.Tasks[I].Execute.MissLines;
    O.BaselineMisses = Misses.size();
    if (!Misses.empty()) {
      for (std::uint64_t Line : W.Access.Lines)
        if (InSpan(Line))
          Own[Line - Lo] = true;
      for (std::uint64_t Miss : Misses) {
        O.FootprintCoveredMisses += Footprint[Miss - Lo];
        O.StrictCoveredMisses += Own[Miss - Lo];
      }
      for (std::uint64_t Line : W.Access.Lines)
        if (InSpan(Line))
          Own[Line - Lo] = false;
    }

    O.PrefetchedLines = W.Access.Lines.size();
    O.UnusedPrefetchedLines = countMissing(W.Access.Lines, W.Execute.Lines);
    O.ExecuteLines = W.Execute.Lines.size();
  }
  return Obs;
}
