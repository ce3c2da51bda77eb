//===- verify/DifferentialChecker.cpp - Dynamic DAE oracle ----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/DifferentialChecker.h"

using namespace dae;
using namespace dae::verify;
using namespace dae::runtime;

CapturedRun DifferentialChecker::run(const std::vector<Task> &Tasks,
                                     bool RunAccess) const {
  sim::Memory Mem;
  Spec.Init(Mem, L);
  TaskRuntime RT(Cfg, Mem, L);
  CapturedRun Run;
  Run.Profile = RT.execute(Tasks, RunAccess, &Run.Capture);
  Run.ImageHash = Mem.imageHash();
  Run.Outputs = snapshotOutputs(Spec.OutputGlobals, Spec.OutputSizes, Mem, L);
  return Run;
}

DifferentialResult
DifferentialChecker::check(const std::vector<Task> &Tasks,
                           std::vector<TaskObservation> *Observations,
                           RunProfile *WithProfile) const {
  CapturedRun With = run(Tasks, /*RunAccess=*/true);
  // The miss baseline and the reference memory image a pure prefetcher must
  // reproduce bit for bit.
  CapturedRun Without = run(Tasks, /*RunAccess=*/false);
  DifferentialResult R = compare(With, Without, Observations);
  if (WithProfile)
    *WithProfile = std::move(With.Profile);
  return R;
}
