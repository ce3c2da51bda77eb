//===- dae/AccessGenerator.h - DAE access-phase generation ------*- C++ -*-===//
//
// Part of daecc, a reproduction of "Fix the code. Don't tweak the hardware"
// (CGO 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: given a task (the execute phase), emit
/// a lightweight access phase that prefetches the data the task will touch.
/// Affine tasks get a freshly synthesized minimal-depth prefetch loop nest
/// from polyhedral analysis (section 5.1); non-affine tasks get an optimized
/// skeleton clone (section 5.2); unsafe tasks are refused and run coupled.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_DAE_ACCESSGENERATOR_H
#define DAECC_DAE_ACCESSGENERATOR_H

#include "analysis/TaskAnalysis.h"
#include "dae/DaeOptions.h"
#include "pm/AnalysisManager.h"

#include <string>

namespace dae {

namespace ir {
class Function;
class Module;
} // namespace ir

/// What the generators did, as far as the profile-guided refinement planner
/// (dae/AccessProfile.h) needs to know: it only proposes a knob change that
/// can alter the phase.
struct GenerationTrace {
  /// The affine generator ran to completion (emitted a phase).
  bool AffineRan = false;
  /// At least two nests were actually merged (MergeLoopNests acted).
  bool MergeApplied = false;

  /// The skeleton generator ran.
  bool SkeletonRan = false;
  /// In-loop conditionals that section 5.2.2 step 6 rewrote. Zero means
  /// SimplifyCfg=false would regenerate the same phase.
  unsigned CondsRewritten = 0;
};

/// Outcome of access-phase generation for one task.
struct AccessPhaseResult {
  /// The generated access function (same signature as the task), registered
  /// in the module as "<task>.access". Null when generation was refused.
  ir::Function *AccessFn = nullptr;

  /// Strategy that produced the phase (Affine / Skeleton), or Rejected.
  analysis::TaskClass Strategy = analysis::TaskClass::Rejected;

  /// Human-readable diagnostics (refusal reason, decisions taken).
  std::string Notes;

  // --- Affine-path statistics (Table-/test-facing) ---

  /// Number of lattice points touched by the original accesses (NOrig) and
  /// contained in the accepted scan shapes (NconvUn), evaluated at the
  /// representative parameters. -1 when not applicable.
  long long NOrig = -1;
  long long NConvUn = -1;
  /// True when the convex-union guard accepted the hull for every class.
  bool UsedConvexUnion = false;
  /// Prefetch loop nests emitted after merging.
  unsigned NumPrefetchNests = 0;
  /// Access classes discovered (arrays x parameter signatures).
  unsigned NumClasses = 0;

  /// What the refinement planner reads about this generation.
  GenerationTrace Trace;

  // --- Profile provenance (dae/ProfileGuidedRefinement.h) ---

  /// The phase was regenerated by the profile-guided refinement loop; the
  /// knob changes it ran with are recorded in RefinementNote.
  bool ProfileRefined = false;
  /// Human-readable refinement actions ("keep-control-flow", ...); empty
  /// when ProfileRefined is false.
  std::string RefinementNote;

  bool succeeded() const { return AccessFn != nullptr; }
};

/// Generates the access phase for \p Task into \p M. Runs the classical
/// optimizer on the task first (inlining is required; see section 5.2.2
/// step 1) — the task body itself is the execute phase and is not otherwise
/// modified. \p FAM caches the task's analyses across classification and
/// generation; the harness shares one manager per app-preparation job.
AccessPhaseResult generateAccessPhase(ir::Module &M, ir::Function &Task,
                                      const DaeOptions &Opts,
                                      pm::FunctionAnalysisManager &FAM);

/// Convenience overload with a throwaway analysis cache (tests, examples).
AccessPhaseResult generateAccessPhase(ir::Module &M, ir::Function &Task,
                                      const DaeOptions &Opts);

} // namespace dae

#endif // DAECC_DAE_ACCESSGENERATOR_H
