//===- analysis/Dominators.h - Dominator tree -------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Iterative dominator computation (Cooper-Harvey-Kennedy). Task functions
/// are small, so the simple algorithm is plenty. Natural-loop detection in
/// LoopInfo is built on top of this.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_ANALYSIS_DOMINATORS_H
#define DAECC_ANALYSIS_DOMINATORS_H

#include <map>
#include <vector>

namespace dae {
namespace ir {
class BasicBlock;
class Function;
} // namespace ir

namespace analysis {

/// Reverse post-order of the reachable blocks of \p F, entry first.
std::vector<ir::BasicBlock *> reversePostOrder(const ir::Function &F);

/// Immediate-dominator tree for a function.
class DominatorTree {
public:
  explicit DominatorTree(const ir::Function &F);

  /// True if \p A dominates \p B (reflexively).
  bool dominates(const ir::BasicBlock *A, const ir::BasicBlock *B) const;

  /// True if \p BB is reachable from the entry.
  bool isReachable(const ir::BasicBlock *BB) const;

private:
  std::map<const ir::BasicBlock *, ir::BasicBlock *> IDom;
};

/// Immediate post-dominator tree. Requires the function to have exactly one
/// return block (true for all builder-generated tasks); used by the skeleton
/// generator to find the join block of a conditional it is eliminating.
class PostDominatorTree {
public:
  explicit PostDominatorTree(const ir::Function &F);

  /// Immediate post-dominator of \p BB (null for the exit block).
  ir::BasicBlock *ipdom(const ir::BasicBlock *BB) const;

  /// True if \p A post-dominates \p B (reflexively).
  bool postDominates(const ir::BasicBlock *A, const ir::BasicBlock *B) const;

private:
  std::map<const ir::BasicBlock *, ir::BasicBlock *> IPDom;
};

} // namespace analysis
} // namespace dae

#endif // DAECC_ANALYSIS_DOMINATORS_H
