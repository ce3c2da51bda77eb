//===- dae/ProfileGuidedRefinement.cpp - PG regeneration pass --------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dae/ProfileGuidedRefinement.h"

#include "ir/Function.h"
#include "ir/Module.h"
#include "passes/Passes.h"

using namespace dae;

bool ProfileGuidedRefinementPass::run(ir::Function &F,
                                      pm::FunctionAnalysisManager &FAM) {
  auto BIt = Baselines.find(&F);
  if (BIt == Baselines.end() || !BIt->second.AccessFn)
    return false;
  const AccessPhaseResult &Base = BIt->second;

  // The fingerprint reads the *optimized* body; the baseline generation
  // already optimized the task, so this is a cached no-op that just
  // guarantees the print the fingerprint reads is current.
  passes::optimizeFunction(F, FAM);

  TaskProfileData P;
  if (!Profile.lookup(taskContentFingerprint(F, FAM), P))
    return false;

  RefinementAction Action = planRefinement(P, Base.Trace, Config);
  if (!Action.any())
    return false;

  // Move the unrefined phase out of the generators' naming slot so the
  // regeneration can claim "<task>.access". It
  // stays in the module — callers may still be simulating or pricing it —
  // but its cached analyses are stale once renamed.
  ir::Function *Old = Base.AccessFn;
  const std::string OldName = Old->getName();
  FAM.clear(*Old);
  Old->setName(OldName + ".unrefined");

  DaeOptions Opts = refinedOptions(BaseOpts, Action, Config);
  AccessPhaseResult R = generateAccessPhase(M, F, Opts, FAM);
  if (!R.AccessFn) {
    // Regeneration declined (e.g. the refined knobs pushed the task off the
    // affine path and the skeleton refused it): keep the baseline phase.
    Old->setName(OldName);
    return false;
  }

  R.ProfileRefined = true;
  R.RefinementNote = Action.str();
  Refined[&F] = std::move(R);

  // The task function itself is untouched (regeneration only reads it), so
  // every cached analysis of F survives.
  return false;
}
