//===- dae/AccessProfile.cpp - Profile store + refinement planning ---------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dae/AccessProfile.h"

#include "ir/Function.h"
#include "pm/Analyses.h"
#include "support/Casting.h"

using namespace dae;
using namespace dae::ir;

std::string dae::taskContentFingerprint(Function &Task,
                                        pm::FunctionAnalysisManager &FAM) {
  // The print names globals but not their sizes, and a task over larger
  // arrays generates a different phase (GEP shapes, loader layout).
  std::string Key = FAM.getResult<pm::FunctionPrintAnalysis>(Task);
  std::map<std::string, std::uint64_t> Globals;
  for (const auto &BB : Task)
    for (const auto &I : *BB)
      for (Value *Op : I->operands())
        if (auto *G = dyn_cast<GlobalVariable>(Op))
          Globals[G->getName()] = G->getSizeInBytes();
  for (const auto &[Name, Size] : Globals)
    Key += "@" + Name + ":" + std::to_string(Size) + "\n";
  return Key;
}

std::string RefinementAction::str() const {
  std::string S;
  auto Add = [&S](const char *Name) {
    if (!S.empty())
      S += ",";
    S += Name;
  };
  if (KeepControlFlow)
    Add("keep-control-flow");
  if (PruneColdPrefetches)
    Add("prune-cold-prefetches");
  if (SplitPhases)
    Add("split-phases");
  return S;
}

RefinementAction dae::planRefinement(const TaskProfileData &P,
                                     const GenerationTrace &Trace,
                                     const RefinementConfig &C) {
  RefinementAction A;
  if (P.Observations == 0)
    return A;

  // Coverage gap from pruned control flow: only the skeleton path prunes
  // conditionals, and only when it actually rewrote some does keeping them
  // change the phase. Regenerating with SimplifyCfg=false restores the
  // pruned arms' loads (FFT's bit-reverse swap arm is the canonical case).
  if (P.strictCoverage() < C.StrictCoverageTarget && Trace.SkeletonRan &&
      Trace.CondsRewritten > 0)
    A.KeepControlFlow = true;

  // Wasted prefetch: lines the execute phase never touches. The profiled
  // cold-load set tells the skeleton generator which loads to skip; without
  // one (or on the affine path, which has no per-load pruning hook) the
  // rule cannot act.
  if (P.overshoot() > C.OvershootBudget && Trace.SkeletonRan && C.ColdLoads &&
      !C.ColdLoads->empty())
    A.PruneColdPrefetches = true;

  // Reuse span across cache levels: a merged affine nest streams every
  // class's footprint in one phase. When the observed execute footprint
  // exceeds the private-cache capacity, the early classes' lines are evicted
  // before the execute phase reaches them — splitting the nests gives each
  // class its own, cache-sized reuse window. Only meaningful when merging
  // actually applied.
  if (Trace.AffineRan && Trace.MergeApplied &&
      P.ExecuteFootprintBytes > C.PhaseSplitFootprintBytes)
    A.SplitPhases = true;

  return A;
}

DaeOptions dae::refinedOptions(const DaeOptions &Base,
                               const RefinementAction &A,
                               const RefinementConfig &C) {
  DaeOptions O = Base;
  if (A.KeepControlFlow)
    O.SimplifyCfg = false;
  if (A.PruneColdPrefetches)
    O.ColdLoads = C.ColdLoads;
  if (A.SplitPhases)
    O.MergeLoopNests = false;
  return O;
}
