//===- verify/Differential.h - Dynamic DAE oracle verdict -------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dynamic half of the DAE correctness oracle. It compares two captured
/// runs of one task list from identically initialized memory — one with the
/// access phases, one with them suppressed — and checks:
///
///   * purity: the two runs leave bit-identical program-visible memory
///     (sim::Memory::imageHash over nonzero pages, so pages an access phase
///     merely touches do not count) and bit-identical output arrays;
///   * coverage: the fraction of the *baseline* run's execute-phase demand-
///     load DRAM misses whose cache lines appear in the scheme's access-phase
///     footprint — the union of lines touched by any decoupled task's access
///     phase. A generator bug that loses an access class (a hull that drops
///     an array) removes those lines from *every* phase and tanks this
///     number; intended per-task gaps do not. The stricter per-task match
///     (miss line in the *same task's* access lines) is reported alongside
///     as strictCoverage — it additionally charges the generator for reads
///     §5.2.2 deliberately discards (conditional arms, e.g. FFT's bit-
///     reverse swap), so it is diagnostic, not a gate. Store (RFO) misses
///     are excluded from both: a prefetch-only phase cannot cover a write
///     allocation (the paper's LBM discussion, §6.1);
///   * overshoot: the fraction of access-phase-touched lines the owning
///     task's execute phase never uses — prefetch wasted on memory the task
///     does not read.
///
/// A run with its access phases suppressed executes exactly what the CAE
/// scheme runs (the scheme task lists differ only in Task::Access), so the
/// harness takes both runs from its scheme simulations: each DAE scheme's run
/// is compared against the CAE run. verify/DifferentialChecker.h simulates
/// the pair itself for callers that have no scheme runs.
///
/// Tasks without an access phase (non-decoupled) contribute to neither
/// coverage population. A task list with no decoupled tasks reports
/// coverage 1.0 and overshoot 0.0.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_VERIFY_DIFFERENTIAL_H
#define DAECC_VERIFY_DIFFERENTIAL_H

#include "runtime/CaptureObservation.h"
#include "runtime/Runtime.h"

#include <cstdint>
#include <string>
#include <vector>

namespace dae {
namespace verify {

/// One simulated run as the oracle compares it. Capture and ImageHash are
/// only meaningful when the run was captured.
struct CapturedRun {
  runtime::RunProfile Profile;
  runtime::RunCapture Capture;
  /// sim::Memory::imageHash() of the final memory image.
  std::uint64_t ImageHash = 0;
  /// The workload's output arrays, little-endian 8-byte words concatenated
  /// in output-global order.
  std::vector<std::uint8_t> Outputs;
};

/// The output arrays \p Names (with byte sizes \p Sizes, multiples of 8) of
/// \p Mem, in the layout of CapturedRun::Outputs.
std::vector<std::uint8_t>
snapshotOutputs(const std::vector<std::string> &Names,
                const std::vector<std::uint64_t> &Sizes, sim::Memory &Mem,
                const sim::Loader &L);

/// Verdict and counters of one differential check.
struct DifferentialResult {
  bool MemoryMatch = false;  ///< imageHash identical with/without access.
  bool OutputsMatch = false; ///< Output arrays byte-identical.

  /// Execute-phase demand-load DRAM-miss events in the baseline (access
  /// suppressed) run, decoupled tasks only; the coverage denominator.
  std::uint64_t BaselineExecMisses = 0;
  /// Of those, events whose line any access phase of the scheme touched
  /// (footprint coverage numerator).
  std::uint64_t CoveredMisses = 0;
  /// Of those, events whose line the *same task's* access phase touched
  /// (strict per-task numerator; <= CoveredMisses).
  std::uint64_t StrictCoveredMisses = 0;
  /// Unique lines touched by access phases (summed per task).
  std::uint64_t PrefetchedLines = 0;
  /// Of those, lines the owning task's execute phase never touched.
  std::uint64_t UnusedPrefetchedLines = 0;

  std::size_t DecoupledTasks = 0;
  std::size_t TotalTasks = 0;

  /// True when the access phases had no observable effect.
  bool pure() const { return MemoryMatch && OutputsMatch; }
  /// Fraction of baseline execute misses inside the scheme's access-phase
  /// footprint; 1.0 when there were no baseline misses to cover.
  double coverage() const {
    return BaselineExecMisses == 0
               ? 1.0
               : static_cast<double>(CoveredMisses) / BaselineExecMisses;
  }
  /// Fraction of baseline execute misses covered by the same task's own
  /// access phase (diagnostic; penalizes §5.2.2's intended discards).
  double strictCoverage() const {
    return BaselineExecMisses == 0
               ? 1.0
               : static_cast<double>(StrictCoveredMisses) / BaselineExecMisses;
  }
  /// Fraction of prefetched lines never used by their execute phase.
  double overshoot() const {
    return PrefetchedLines == 0 ? 0.0
                                : static_cast<double>(UnusedPrefetchedLines) /
                                      PrefetchedLines;
  }
};

/// The verdict of \p With (a captured run with access phases) against
/// \p Without (a captured run of the same task list with them suppressed, or
/// equivalently of its CAE list). When \p Observations is non-null it
/// receives the per-task coverage/overshoot breakdown (index-aligned with
/// the task list) that the whole-scheme counters are summed from — the
/// feedback signal the profile-guided refinement loop persists per task
/// fingerprint.
DifferentialResult
compare(const CapturedRun &With, const CapturedRun &Without,
        std::vector<runtime::TaskObservation> *Observations = nullptr);

} // namespace verify
} // namespace dae

#endif // DAECC_VERIFY_DIFFERENTIAL_H
