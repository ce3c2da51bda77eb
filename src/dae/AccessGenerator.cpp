//===- dae/AccessGenerator.cpp - DAE access-phase generation ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dae/AccessGenerator.h"

#include "analysis/TaskAnalysis.h"
#include "dae/AffineGenerator.h"
#include "dae/SkeletonGenerator.h"
#include "ir/Module.h"
#include "passes/Passes.h"
#include "pm/Analyses.h"
#include "support/Rational.h"
#include "verify/AccessPhaseAudit.h"

using namespace dae;
using namespace dae::analysis;
using namespace dae::ir;

AccessPhaseResult dae::generateAccessPhase(Module &M, Function &Task,
                                           const DaeOptions &Opts,
                                           pm::FunctionAnalysisManager &FAM) {
  // One of the two advantages the paper claims for the compiler approach:
  // the access phase is derived from the *optimized* execute code (inlining
  // included), leading to leaner access phases than a programmer starting
  // from unoptimized source can write.
  if (!passes::allCallsInlinable(Task)) {
    AccessPhaseResult Result;
    Result.Strategy = TaskClass::Rejected;
    Result.Notes = "task contains a call that cannot be inlined";
    return Result;
  }
  passes::optimizeFunction(Task, FAM);

  const TaskClassification &Cls =
      FAM.getResult<pm::TaskClassificationAnalysis>(Task);
  if (Cls.Class == TaskClass::Rejected) {
    AccessPhaseResult Result;
    Result.Strategy = TaskClass::Rejected;
    Result.Notes = Cls.Reason;
    return Result;
  }

  AccessPhaseResult Result;
  if (Cls.Class == TaskClass::Affine) {
    try {
      Result = generateAffineAccess(M, Task, Opts, FAM);
      if (Result.AccessFn)
        passes::optimizeFunction(*Result.AccessFn, FAM);
    } catch (const RationalOverflow &E) {
      // Fail safe: an overflowed lattice-point count must never decide the
      // hull guard. Discard any partially emitted access function and take
      // the skeleton path instead.
      if (ir::Function *Partial = M.getFunction(Task.getName() + ".access")) {
        FAM.clear(*Partial);
        M.eraseFunction(Partial);
      }
      Result = AccessPhaseResult();
      Result.Strategy = TaskClass::Affine;
      Result.Notes = std::string("polyhedral counting overflowed: ") + E.what();
    }
  }
  if (!Result.AccessFn) {
    std::string AffineNote = Result.Notes;
    Result = generateSkeletonAccess(M, Task, Opts, FAM);
    if (!AffineNote.empty())
      Result.Notes += " (affine path declined: " + AffineNote + ")";
  }

  if (Result.AccessFn) {
    pm::verifyGenerated(*Result.AccessFn, "access-phase generation");
    verify::auditGenerated(*Result.AccessFn, "access-phase generation");
  }
  return Result;
}

AccessPhaseResult dae::generateAccessPhase(Module &M, Function &Task,
                                           const DaeOptions &Opts) {
  pm::FunctionAnalysisManager FAM;
  return generateAccessPhase(M, Task, Opts, FAM);
}
