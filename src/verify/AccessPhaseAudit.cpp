//===- verify/AccessPhaseAudit.cpp - Static prefetch-purity proof ---------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "verify/AccessPhaseAudit.h"

#include "analysis/LoopInfo.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Printer.h"
#include "pm/Analyses.h"
#include "support/Casting.h"
#include "support/Format.h"

#include <cstdio>
#include <cstdlib>

using namespace dae;
using namespace dae::verify;

std::string AuditReport::str() const {
  std::string S;
  for (const AuditViolation &V : Violations) {
    S += "  " + V.Reason;
    if (V.Inst)
      S += ": " + ir::printInstruction(*V.Inst);
    S += "\n";
  }
  return S;
}

AuditReport verify::auditAccessPhase(ir::Function &F,
                                     pm::FunctionAnalysisManager &FAM) {
  AuditReport Report;

  // Observable effects. The IR has no stack allocation, so there is no
  // "private memory" a store could legally target: any surviving store (or
  // any call, whose effects are not provable here) breaks purity.
  for (const auto &BB : F) {
    for (const auto &I : *BB) {
      if (isa<ir::StoreInst>(I.get()))
        Report.Violations.push_back(
            {I.get(), "store survives in access phase"});
      else if (isa<ir::CallInst>(I.get()))
        Report.Violations.push_back(
            {I.get(), "call with unprovable side effects in access phase"});
    }
  }

  // Termination. A canonical loop (recognized IV, `iv < bound` exit) with a
  // constant positive step terminates for every bound value, including
  // bounds loaded at run time; anything else is not provably terminating.
  const analysis::LoopInfo &LI = FAM.getResult<pm::LoopAnalysis>(F);
  for (const auto &L : LI.loops()) {
    if (!L->isCanonical()) {
      Report.Violations.push_back(
          {L->getHeader()->empty() ? nullptr : L->getHeader()->front(),
           strfmt("loop at '%s' has no recognized induction "
                  "variable/bound (termination unprovable)",
                  L->getHeader()->getName().c_str())});
      continue;
    }
    if (L->getStep() <= 0)
      Report.Violations.push_back(
          {L->getInductionVariable(),
           strfmt("loop at '%s' has non-positive step %lld "
                  "(termination unprovable)",
                  L->getHeader()->getName().c_str(),
                  static_cast<long long>(L->getStep()))});
  }

  return Report;
}

void verify::auditGenerated(ir::Function &F, const char *Context) {
  pm::FunctionAnalysisManager FAM;
  AuditReport Report = auditAccessPhase(F, FAM);
  if (Report.pure())
    return;
  std::fprintf(stderr,
               "daecc: access-phase purity audit failed after %s in '%s':\n%s",
               Context, F.getName().c_str(), Report.str().c_str());
  std::fprintf(stderr, "%s\n", ir::printFunction(F).c_str());
  std::abort();
}
