//===- verify/AccessPhaseAudit.h - Static prefetch-purity proof -*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The static half of the DAE correctness oracle: a structural proof that an
/// access phase is a pure prefetcher. The paper's premise (section 5.2.2)
/// is that the generated access phase has no observable effect — it may only
/// warm the cache — so the audit rejects any function that:
///
///   * contains a store — the IR has no private (stack) memory, so every
///     surviving store writes program-visible memory;
///   * contains a call — after mandatory inlining no call may remain, and a
///     callee's side effects are not provable here;
///   * contains a loop that is not provably terminating: every loop must be
///     canonical (recognized induction variable and `iv < bound` exit test)
///     with a constant positive step, which terminates for any bound value
///     the task's parameters produce.
///
/// `auditAccessPhase` returns the violation list for tests and tooling;
/// `auditGenerated` is the always-on hook the generators call next to
/// pm::verifyGenerated — it aborts with the offending instructions and a
/// dump of the function.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_VERIFY_ACCESSPHASEAUDIT_H
#define DAECC_VERIFY_ACCESSPHASEAUDIT_H

#include "pm/AnalysisManager.h"

#include <string>
#include <vector>

namespace dae {
namespace ir {
class Function;
class Instruction;
} // namespace ir

namespace verify {

/// One reason an access phase is not provably pure.
struct AuditViolation {
  /// The offending instruction; null for function-shape findings (e.g. a
  /// loop whose header carries no single offending instruction).
  const ir::Instruction *Inst = nullptr;
  std::string Reason;
};

/// Result of auditing one access phase.
struct AuditReport {
  std::vector<AuditViolation> Violations;

  /// True when the function is structurally provably prefetch-pure.
  bool pure() const { return Violations.empty(); }

  /// Human-readable multi-line rendering ("  <reason>: <instruction>").
  std::string str() const;
};

/// Audits \p F as an access phase. Uses (and caches into) \p FAM's loop
/// analysis; never mutates the function.
AuditReport auditAccessPhase(ir::Function &F, pm::FunctionAnalysisManager &FAM);

/// Always-on generation hook (the static-oracle sibling of
/// pm::verifyGenerated): audits \p F and aborts with the violation list and
/// a dump of the function when it is not provably pure. \p Context names the
/// generation step for the diagnostic.
void auditGenerated(ir::Function &F, const char *Context);

} // namespace verify
} // namespace dae

#endif // DAECC_VERIFY_ACCESSPHASEAUDIT_H
