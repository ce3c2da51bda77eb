//===- verify/DifferentialChecker.cpp - Dynamic DAE oracle ----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/DifferentialChecker.h"

using namespace dae;
using namespace dae::verify;
using namespace dae::runtime;

namespace {

/// Byte snapshot of the named output arrays (same layout as the harness'
/// output comparison: little-endian 8-byte words).
std::vector<std::uint8_t> snapshotOutputs(const DifferentialSpec &Spec,
                                          sim::Memory &Mem,
                                          const sim::Loader &L) {
  std::vector<std::uint8_t> Bytes;
  for (size_t G = 0; G != Spec.OutputGlobals.size(); ++G) {
    std::uint64_t Base = L.baseOf(Spec.OutputGlobals[G]);
    for (std::uint64_t Off = 0; Off != Spec.OutputSizes[G]; Off += 8) {
      std::int64_t V = Mem.loadI64(Base + Off);
      for (int B = 0; B != 8; ++B)
        Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * B)));
    }
  }
  return Bytes;
}

} // namespace

CapturedRun DifferentialChecker::run(const std::vector<Task> &Tasks,
                                     bool RunAccess) const {
  sim::Memory Mem;
  Spec.Init(Mem, L);
  TaskRuntime RT(Cfg, Mem, L);
  CapturedRun Run;
  Run.Profile = RT.execute(Tasks, RunAccess, &Run.Capture);
  Run.ImageHash = Mem.imageHash();
  Run.Outputs = snapshotOutputs(Spec, Mem, L);
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
