//===- passes/Passes.h - Classical cleanup passes ---------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The classical optimizations the paper leans on: the access generator's
/// output is "optimized using traditional compile time optimizations (-O3)"
/// (section 5.2.1), and one of the stated advantages of the compiler approach
/// is deriving the access phase *after* optimizing the execute code —
/// notably inlining FFT's callees (section 6.2.2). This module provides dead
/// code elimination, constant folding, a light CFG cleanup, an inliner and
/// dead-loop deletion as free functions, and the two pipelines that run them
/// through the pass manager (timing, change counts, --verify-each): "o3",
/// behind the composite optimizeFunction driver, and "access.cleanup".
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_PASSES_PASSES_H
#define DAECC_PASSES_PASSES_H

#include "pm/Pass.h"

#include <memory>

namespace dae {
namespace ir {
class Function;
}

namespace passes {

/// Removes instructions with no users and no side effects; iterates to a
/// fixpoint. Returns true if anything was removed.
bool runDCE(ir::Function &F);

/// Folds constant integer arithmetic and comparisons. Returns true on change.
bool runConstantFolding(ir::Function &F);

/// Folds constant conditional branches, removes unreachable blocks (fixing
/// phis), replaces single-incoming phis, and merges straight-line block
/// chains. Returns true on change.
bool runSimplifyCFG(ir::Function &F);

/// Inlines every call whose callee is not marked no-inline and not
/// (transitively) recursive. Returns the number of calls inlined.
unsigned runInliner(ir::Function &F);

/// True if every call in \p F can be inlined (no no-inline callees, no
/// recursion). The paper refuses to build an access phase otherwise.
bool allCallsInlinable(const ir::Function &F);

/// Deletes side-effect-free loops whose values never escape (the shells left
/// behind when skeletonization discards a loop's entire body). Returns true
/// on change.
bool runLoopDeletion(ir::Function &F);

/// The "-O3" composite as a declared pipeline: inline once, then iterate
/// {constant fold, simplify CFG, DCE} to a fixpoint.
std::unique_ptr<pm::PassManager> buildO3Pipeline();

/// The access-phase cleanup pipeline: the -O3 fixpoint interleaved with
/// dead-loop deletion, iterated to an outer fixpoint. Subsumes the
/// historical "optimize; delete loops; optimize again" sequence of the
/// skeleton generator.
std::unique_ptr<pm::PassManager> buildAccessCleanupPipeline();

/// The "-O3" composite: runs buildO3Pipeline over \p F with the caller's
/// analysis cache (cleared whenever a pass reports a change).
void optimizeFunction(ir::Function &F, pm::FunctionAnalysisManager &FAM);

/// Convenience overload with a throwaway analysis cache.
void optimizeFunction(ir::Function &F);

} // namespace passes
} // namespace dae

#endif // DAECC_PASSES_PASSES_H
