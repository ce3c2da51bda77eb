//===- verify/Differential.cpp - Dynamic DAE oracle verdict ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/Differential.h"

using namespace dae;
using namespace dae::verify;
using namespace dae::runtime;

DifferentialResult
verify::compare(const CapturedRun &With, const CapturedRun &Without,
                std::vector<TaskObservation> *Observations) {
  DifferentialResult R;
  R.TotalTasks = With.Capture.Tasks.size();
  R.MemoryMatch = With.ImageHash == Without.ImageHash;
  R.OutputsMatch = With.Outputs == Without.Outputs;

  // Per-task coverage & overshoot via the capture->profile bridge; the
  // scheme verdict is the sum over decoupled tasks.
  std::vector<TaskObservation> Obs =
      observeCaptures(With.Capture, Without.Capture);
  for (const TaskObservation &O : Obs) {
    if (!O.HasAccess)
      continue;
    ++R.DecoupledTasks;
    R.BaselineExecMisses += O.BaselineMisses;
    R.CoveredMisses += O.FootprintCoveredMisses;
    R.StrictCoveredMisses += O.StrictCoveredMisses;
    R.PrefetchedLines += O.PrefetchedLines;
    R.UnusedPrefetchedLines += O.UnusedPrefetchedLines;
  }
  if (Observations)
    *Observations = std::move(Obs);
  return R;
}
