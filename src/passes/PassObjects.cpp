//===- passes/PassObjects.cpp - The declared pipelines ---------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The declared pipelines over this directory's free-function passes. One
/// adapter, CleanupPass, runs any of them as a pm pass under its pass_stats
/// name. optimizeFunction — historically a hand-rolled loop in Inliner.cpp —
/// is buildO3Pipeline() run through the pass manager, so every caller shares
/// the instrumentation and the fixpoint logic lives in exactly one place
/// (pm::FixpointPassManager).
///
//===----------------------------------------------------------------------===//

#include "passes/Passes.h"

using namespace dae;
using namespace dae::passes;

namespace {

/// A free-function pass as a pm pass: \p Name is its pass_stats key and
/// \p Fn the transformation, true when it changed the function.
class CleanupPass : public pm::FunctionPass {
public:
  using TransformFn = bool (*)(ir::Function &);
  CleanupPass(const char *Name, TransformFn Fn) : Name(Name), Fn(Fn) {}

  const char *name() const override { return Name; }
  bool run(ir::Function &F, pm::FunctionAnalysisManager &) override {
    return Fn(F);
  }

private:
  const char *Name;
  TransformFn Fn;
};

} // namespace

static bool inlineAll(ir::Function &F) { return runInliner(F) > 0; }

/// {constant fold, simplify CFG, DCE} to a fixpoint — the cleanup core both
/// pipelines share.
static std::unique_ptr<pm::FixpointPassManager> buildCleanupFixpoint() {
  auto Fix = std::make_unique<pm::FixpointPassManager>("o3.fixpoint");
  Fix->add<CleanupPass>("constfold", runConstantFolding);
  Fix->add<CleanupPass>("simplifycfg", runSimplifyCFG);
  Fix->add<CleanupPass>("dce", runDCE);
  return Fix;
}

std::unique_ptr<pm::PassManager> passes::buildO3Pipeline() {
  auto PM = std::make_unique<pm::PassManager>("o3");
  PM->add<CleanupPass>("inliner", inlineAll);
  PM->addPass(buildCleanupFixpoint());
  return PM;
}

std::unique_ptr<pm::PassManager> passes::buildAccessCleanupPipeline() {
  // Generated access phases are call-free (the task was fully inlined
  // before cloning), so the inliner is omitted; dead-loop deletion exposes
  // more cleanup and vice versa, hence the outer fixpoint.
  auto Outer = std::make_unique<pm::FixpointPassManager>("access.cleanup");
  Outer->addPass(buildCleanupFixpoint());
  Outer->add<CleanupPass>("loopdeletion", runLoopDeletion);
  return Outer;
}

void passes::optimizeFunction(ir::Function &F,
                              pm::FunctionAnalysisManager &FAM) {
  buildO3Pipeline()->run(F, FAM);
}

void passes::optimizeFunction(ir::Function &F) {
  pm::FunctionAnalysisManager FAM;
  optimizeFunction(F, FAM);
}
