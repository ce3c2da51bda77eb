//===- dae/ProfileGuidedRefinement.h - PG regeneration pass -----*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The pm-registered pass that closes the profiling-assisted DAE loop
/// (--dae-profile-guided / DAECC_DAE_PG): run over a task function, it looks
/// up the task's accumulated AccessProfile record by content fingerprint,
/// asks the planner (dae/AccessProfile.h) whether the observed coverage /
/// overshoot / reuse-span gaps warrant regeneration, and if so re-runs
/// access-phase generation with the refined knobs. The unrefined phase is
/// renamed aside ("<task>.access.unrefined") — not erased, callers may still
/// be pricing it — and the regenerated "<task>.access" carries
/// AccessPhaseResult::ProfileRefined provenance. Each module's pass
/// regenerates its own tasks' phases, so structurally identical tasks in two
/// modules refine alike from one shared profile.
///
/// The pass transforms the *module* (new access function), never the task
/// function itself, so it reports no change and the task's cached analyses
/// stay; the renamed unrefined phase's cached analyses are cleared.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_DAE_PROFILEGUIDEDREFINEMENT_H
#define DAECC_DAE_PROFILEGUIDEDREFINEMENT_H

#include "dae/AccessProfile.h"
#include "pm/Pass.h"

#include <cstddef>
#include <map>

namespace dae {

class GenerationMemo;

namespace ir {
class Module;
} // namespace ir

/// See file comment. One instance refines one module's tasks; drivers run
/// it through a pm::PassManager over every task function, then collect the
/// refined results.
class ProfileGuidedRefinementPass : public pm::FunctionPass {
public:
  /// \p Profile holds the accumulated observations, \p BaseOpts the options
  /// the baseline generation ran with, \p Config the thresholds (and the
  /// cold-load set, whose storage must outlive the pass). The trailing
  /// GenerationMemo pointer has no effect; deleted in the next benchmark
  /// revision.
  ProfileGuidedRefinementPass(ir::Module &M, const AccessProfile &Profile,
                              DaeOptions BaseOpts, RefinementConfig Config,
                              GenerationMemo * = nullptr)
      : M(M), Profile(Profile), BaseOpts(std::move(BaseOpts)),
        Config(std::move(Config)) {}

  /// Registers the baseline generation result for \p Task. Tasks without a
  /// baseline (or whose baseline produced no access phase) are skipped —
  /// there is nothing to refine.
  void noteBaseline(const ir::Function *Task,
                    const AccessPhaseResult &Baseline) {
    Baselines[Task] = Baseline;
  }

  const char *name() const override { return "dae-profile-refine"; }

  bool run(ir::Function &F, pm::FunctionAnalysisManager &FAM) override;

  /// The refined result for \p Task; null when the pass left it alone (no
  /// profile, no applicable action, or regeneration declined).
  const AccessPhaseResult *refinedResult(const ir::Function *Task) const {
    auto It = Refined.find(Task);
    return It == Refined.end() ? nullptr : &It->second;
  }

  /// Task functions whose phases were regenerated.
  std::size_t numRefined() const { return Refined.size(); }

private:
  ir::Module &M;
  const AccessProfile &Profile;
  DaeOptions BaseOpts;
  RefinementConfig Config;
  std::map<const ir::Function *, AccessPhaseResult> Baselines;
  std::map<const ir::Function *, AccessPhaseResult> Refined;
};

} // namespace dae

#endif // DAECC_DAE_PROFILEGUIDEDREFINEMENT_H
