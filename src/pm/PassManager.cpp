//===- pm/PassManager.cpp - Pass sequencing and instrumentation ------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "pm/Pass.h"

#include <chrono>

using namespace dae;
using namespace dae::pm;

bool PassManager::run(ir::Function &F, FunctionAnalysisManager &FAM) {
  bool Changed = false;
  for (const std::unique_ptr<FunctionPass> &P : Passes) {
    auto T0 = std::chrono::steady_clock::now();
    bool PassChanged = P->run(F, FAM);
    double Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    // Nested pipelines already reported their contained passes.
    if (!P->isPipeline())
      PipelineStats::get().notePass(P->name(), Seconds, PassChanged);
    if (PassChanged)
      FAM.clear(F);
    if (config().VerifyEach)
      verifyNow(F, P->name());
    Changed |= PassChanged;
  }
  return Changed;
}

bool FixpointPassManager::run(ir::Function &F, FunctionAnalysisManager &FAM) {
  bool Changed = false;
  for (unsigned Sweep = 0; Sweep != MaxIterations; ++Sweep) {
    if (!PassManager::run(F, FAM))
      break;
    Changed = true;
  }
  return Changed;
}
