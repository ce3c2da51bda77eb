//===- runtime/CaptureObservation.h - Capture -> profile bridge -*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reduces a pair of RunCaptures (one run with access phases, one with them
/// suppressed) to per-task coverage/overshoot observations — the feedback
/// signal of profiling-assisted DAE. The oracle's compare step
/// (verify/Differential.h) sums these into its whole-scheme verdict, and
/// the profile-guided refinement loop (dae/AccessProfile.h) persists them
/// per task fingerprint to decide which access phases to regenerate.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_RUNTIME_CAPTUREOBSERVATION_H
#define DAECC_RUNTIME_CAPTUREOBSERVATION_H

#include "runtime/Runtime.h"

#include <cstdint>
#include <vector>

namespace dae {
namespace runtime {

/// One task instance's observed access-phase quality, index-aligned with the
/// task list the captures were recorded from. All line counts use
/// RunCapture::LineBytes granularity.
struct TaskObservation {
  /// The task ran decoupled (it had an access phase in the With run). All
  /// other fields are zero when false — non-decoupled tasks belong to
  /// neither coverage population.
  bool HasAccess = false;

  /// Execute-phase demand-load DRAM-miss events in the baseline (access
  /// suppressed) run; the coverage denominator. Event multiplicity counts.
  std::uint64_t BaselineMisses = 0;
  /// Of those, events whose line *any* access phase of the scheme touched.
  std::uint64_t FootprintCoveredMisses = 0;
  /// Of those, events whose line this task's *own* access phase touched.
  std::uint64_t StrictCoveredMisses = 0;

  /// Unique lines this task's access phase touched.
  std::uint64_t PrefetchedLines = 0;
  /// Of those, lines the task's execute phase never used.
  std::uint64_t UnusedPrefetchedLines = 0;

  /// Unique lines the execute phase touched (With run) — the phase's data
  /// footprint, the reuse-span signal the refinement loop compares against
  /// cache capacities.
  std::uint64_t ExecuteLines = 0;

  /// Line granularity of every count above.
  std::uint64_t LineBytes = 64;
};

/// Computes one TaskObservation per task from the two captures. \p With must
/// come from a run with access phases enabled, \p Without from the same task
/// list with them suppressed; the two must have the same task count (they
/// were recorded from the same list). The scheme-wide access footprint
/// (union over every decoupled task) is built internally for the
/// footprint-coverage numerator. Time is linear in the captured lines and
/// misses: membership is a bit test in bitmaps over the span of the
/// baseline's miss lines, and UnusedPrefetchedLines one merge walk of the
/// two sorted line lists (DESIGN.md §9).
std::vector<TaskObservation> observeCaptures(const RunCapture &With,
                                             const RunCapture &Without);

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_CAPTUREOBSERVATION_H
