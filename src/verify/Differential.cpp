//===- verify/Differential.cpp - Dynamic DAE oracle verdict ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/Differential.h"

using namespace dae;
using namespace dae::verify;
using namespace dae::runtime;

std::vector<std::uint8_t>
verify::snapshotOutputs(const std::vector<std::string> &Names,
                        const std::vector<std::uint64_t> &Sizes,
                        sim::Memory &Mem, const sim::Loader &L) {
  std::vector<std::uint8_t> Bytes;
  for (size_t G = 0; G != Names.size(); ++G) {
    std::uint64_t Base = L.baseOf(Names[G]);
    for (std::uint64_t Off = 0; Off != Sizes[G]; Off += 8) {
      std::int64_t V = Mem.loadI64(Base + Off);
      for (int B = 0; B != 8; ++B)
        Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * B)));
    }
  }
  return Bytes;
}

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
