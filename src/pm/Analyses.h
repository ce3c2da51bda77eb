//===- pm/Analyses.h - Concrete analysis registrations ----------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analyses the pipeline caches, wrapped for FunctionAnalysisManager.
/// These are the only places in the tree that construct DominatorTree,
/// LoopInfo, ScalarEvolution, or the task classification outside passes'
/// own internals — every consumer (generators, harness, tests) pulls them
/// from the manager so each is computed once per function state.
///
/// Dependency edges matter for invalidation: a cached ScalarEvolution holds
/// a reference into the cached LoopInfo, so invalidating LoopAnalysis
/// cascades to ScalarEvolutionAnalysis (see
/// FunctionAnalysisManager::invalidate). TaskClassification and the printed
/// body are plain values and carry no edges.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_PM_ANALYSES_H
#define DAECC_PM_ANALYSES_H

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "analysis/ScalarEvolution.h"
#include "analysis/TaskAnalysis.h"
#include "pm/AnalysisManager.h"

#include <string>
#include <vector>

namespace dae {
namespace pm {

/// analysis::DominatorTree, cached.
struct DominatorsAnalysis {
  using Result = analysis::DominatorTree;
  static inline AnalysisKey Key;
  static const char *name() { return "dominators"; }
  static std::vector<const AnalysisKey *> dependencies() { return {}; }
  static Result run(ir::Function &F, FunctionAnalysisManager &FAM);
};

/// analysis::PostDominatorTree, cached.
struct PostDominatorsAnalysis {
  using Result = analysis::PostDominatorTree;
  static inline AnalysisKey Key;
  static const char *name() { return "postdominators"; }
  static std::vector<const AnalysisKey *> dependencies() { return {}; }
  static Result run(ir::Function &F, FunctionAnalysisManager &FAM);
};

/// analysis::LoopInfo, cached. Reuses the cached dominator tree for loop
/// detection but keeps no reference into it afterwards, so it carries no
/// dependency edge.
struct LoopAnalysis {
  using Result = analysis::LoopInfo;
  static inline AnalysisKey Key;
  static const char *name() { return "loopinfo"; }
  static std::vector<const AnalysisKey *> dependencies() { return {}; }
  static Result run(ir::Function &F, FunctionAnalysisManager &FAM);
};

/// analysis::ScalarEvolution, cached. Holds a reference to the cached
/// LoopInfo for the lifetime of the entry, hence the dependency edge.
struct ScalarEvolutionAnalysis {
  using Result = analysis::ScalarEvolution;
  static inline AnalysisKey Key;
  static const char *name() { return "scalarevolution"; }
  static std::vector<const AnalysisKey *> dependencies() {
    return {&LoopAnalysis::Key};
  }
  static Result run(ir::Function &F, FunctionAnalysisManager &FAM);
};

/// analysis::classifyTask, cached: the generators and the harness both need
/// the same classification of the same optimized task.
struct TaskClassificationAnalysis {
  using Result = analysis::TaskClassification;
  static inline AnalysisKey Key;
  static const char *name() { return "taskclass"; }
  static std::vector<const AnalysisKey *> dependencies() { return {}; }
  static Result run(ir::Function &F, FunctionAnalysisManager &FAM);
};

/// The printed body (ir::Printer), cached. taskContentFingerprint
/// (dae/AccessProfile.h) keys refinement profiles by the optimized task's
/// print, sharing it with anything else that needs the text.
struct FunctionPrintAnalysis {
  using Result = std::string;
  static inline AnalysisKey Key;
  static const char *name() { return "print"; }
  static std::vector<const AnalysisKey *> dependencies() { return {}; }
  static Result run(ir::Function &F, FunctionAnalysisManager &FAM);
};

} // namespace pm
} // namespace dae

#endif // DAECC_PM_ANALYSES_H
