//===- dae/AccessProfile.h - Profile store + refinement planning -*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The feedback half of profiling-assisted DAE. Static access-phase
/// generation deliberately discards work it cannot prove useful — §5.2.2
/// prunes data-dependent conditional arms (FFT's bit-reverse swap), the
/// skeleton prefetches loads that rarely miss, merged affine nests stream a
/// footprint larger than the cache levels they target. The differential
/// checker's captures measure each gap per task; this header persists those
/// measurements keyed by a task content fingerprint (so a profile recorded
/// against one module applies to structurally identical tasks in any
/// module) and turns them into refinement decisions:
///
///   * keep-control-flow: strict coverage below target while CFG
///     simplification rewrote conditionals -> regenerate with
///     SimplifyCfg=false, restoring the pruned arms' prefetches;
///   * prune-cold-prefetches: overshoot above budget -> regenerate with the
///     profiled cold-load set (DaeOptions::ColdLoads), dropping prefetches
///     that never cover a demand miss;
///   * split-phases: a merged affine nest whose observed execute footprint
///     spans multiple cache levels -> regenerate with MergeLoopNests=false,
///     so each class's phase prefetches a reuse window that fits.
///
/// The planner only proposes knob changes the GenerationTrace proves can
/// act (e.g. SimplifyCfg=false is pointless when no conditional was
/// rewritten), so refinement never churns phases it cannot improve.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_DAE_ACCESSPROFILE_H
#define DAECC_DAE_ACCESSPROFILE_H

#include "dae/AccessGenerator.h"
#include "runtime/CaptureObservation.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>

namespace dae {

/// Content fingerprint of an *optimized* task: the pipeline's cached print
/// of the body plus the name/size of every referenced global. Structurally
/// identical tasks from different workload instances fingerprint equal, so
/// an AccessProfile record observed on one module's task applies to its
/// twin in another. \p Task must already be optimized
/// (passes::optimizeFunction); the print is taken from \p FAM's cache.
std::string taskContentFingerprint(ir::Function &Task,
                                   pm::FunctionAnalysisManager &FAM);

/// Accumulated observations for one task fingerprint. Counters sum over
/// task instances (and repeated runs); the footprint keeps the maximum, the
/// reuse-span signal of the largest phase instance.
struct TaskProfileData {
  std::uint64_t BaselineMisses = 0;
  std::uint64_t FootprintCoveredMisses = 0;
  std::uint64_t StrictCoveredMisses = 0;
  std::uint64_t PrefetchedLines = 0;
  std::uint64_t UnusedPrefetchedLines = 0;
  /// Largest observed execute-phase footprint, in bytes.
  std::uint64_t ExecuteFootprintBytes = 0;
  /// Task instances merged into this record.
  std::uint64_t Observations = 0;

  void merge(const runtime::TaskObservation &O) {
    BaselineMisses += O.BaselineMisses;
    FootprintCoveredMisses += O.FootprintCoveredMisses;
    StrictCoveredMisses += O.StrictCoveredMisses;
    PrefetchedLines += O.PrefetchedLines;
    UnusedPrefetchedLines += O.UnusedPrefetchedLines;
    std::uint64_t Bytes = O.ExecuteLines * O.LineBytes;
    if (Bytes > ExecuteFootprintBytes)
      ExecuteFootprintBytes = Bytes;
    ++Observations;
  }

  /// Same-task coverage of baseline misses; 1.0 with no misses to cover.
  double strictCoverage() const {
    return BaselineMisses == 0
               ? 1.0
               : static_cast<double>(StrictCoveredMisses) / BaselineMisses;
  }
  /// Fraction of prefetched lines the execute phase never used.
  double overshoot() const {
    return PrefetchedLines == 0 ? 0.0
                                : static_cast<double>(UnusedPrefetchedLines) /
                                      PrefetchedLines;
  }
};

/// Thread-safe store of TaskProfileData keyed by taskContentFingerprint.
/// Drivers record the differential
/// checker's observations here, then hand the store to the refinement pass.
class AccessProfile {
public:
  /// Merges \p O into the record for \p TaskFp. No-op for observations of
  /// non-decoupled tasks (there is no access phase to refine).
  void record(const std::string &TaskFp, const runtime::TaskObservation &O) {
    if (!O.HasAccess)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    Data[TaskFp].merge(O);
  }

  /// Copies the record for \p TaskFp into \p Out; false when none exists.
  bool lookup(const std::string &TaskFp, TaskProfileData &Out) const {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Data.find(TaskFp);
    if (It == Data.end())
      return false;
    Out = It->second;
    return true;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Data.size();
  }

private:
  mutable std::mutex Mutex;
  std::map<std::string, TaskProfileData> Data;
};

/// Refinement thresholds and resources.
struct RefinementConfig {
  /// Regenerate for coverage when strict coverage falls below this (the CI
  /// gate's floor).
  double StrictCoverageTarget = 0.95;
  /// Regenerate for overshoot when the unused-prefetch fraction exceeds
  /// this.
  double OvershootBudget = 0.05;
  /// Split merged affine nests when the observed execute footprint exceeds
  /// this many bytes (callers set it to the private-cache capacity; a
  /// footprint beyond it means the merged phase's reuse distance spans
  /// cache levels).
  std::uint64_t PhaseSplitFootprintBytes = 64 * 1024;
  /// Profiled cold-load set for prune-cold-prefetches (see
  /// harness::profileColdLoads); null disables that rule.
  const std::set<const ir::Instruction *> *ColdLoads = nullptr;
};

/// The planner's verdict for one task: which regeneration knobs to flip.
struct RefinementAction {
  bool KeepControlFlow = false;     ///< SimplifyCfg=false.
  bool PruneColdPrefetches = false; ///< ColdLoads=Config.ColdLoads.
  bool SplitPhases = false;         ///< MergeLoopNests=false.

  bool any() const {
    return KeepControlFlow || PruneColdPrefetches || SplitPhases;
  }
  /// Stable comma-joined action list ("keep-control-flow,split-phases").
  std::string str() const;
};

/// Decides what (if anything) to regenerate for a task whose baseline
/// generation reported \p Trace and whose observations accumulated to \p P.
RefinementAction planRefinement(const TaskProfileData &P,
                                const GenerationTrace &Trace,
                                const RefinementConfig &C);

/// Applies \p A to \p Base: the DaeOptions the regeneration runs with.
DaeOptions refinedOptions(const DaeOptions &Base, const RefinementAction &A,
                          const RefinementConfig &C);

} // namespace dae

#endif // DAECC_DAE_ACCESSPROFILE_H
