//===- analysis/LoopInfo.h - Natural loop detection -------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural-loop detection and canonical induction-variable recognition. The
/// affine access generator needs, per loop: the IV phi, its start value, its
/// (constant) step, and the exclusive upper bound from the header exit test.
/// That is exactly the shape emitCountedLoop produces and the shape LLVM's
/// loop-simplify guarantees in the paper's pipeline.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_ANALYSIS_LOOPINFO_H
#define DAECC_ANALYSIS_LOOPINFO_H

#include <memory>
#include <set>
#include <vector>

namespace dae {
namespace ir {
class BasicBlock;
class Function;
class PhiInst;
class Value;
class BrInst;
} // namespace ir

namespace analysis {

class DominatorTree;
class LoopInfo;

/// One natural loop: header + body blocks, nesting links, and (when the loop
/// is canonical) its induction variable description.
class Loop {
public:
  ir::BasicBlock *getHeader() const { return Header; }
  const std::set<ir::BasicBlock *> &blocks() const { return Blocks; }
  bool contains(const ir::BasicBlock *BB) const {
    return Blocks.count(const_cast<ir::BasicBlock *>(BB)) != 0;
  }

  Loop *getParent() const { return Parent; }
  const std::vector<Loop *> &subLoops() const { return SubLoops; }
  /// 1 for outermost loops, +1 per nesting level.
  unsigned getDepth() const;

  /// Unique predecessor of the header outside the loop, or null.
  ir::BasicBlock *getPreheader() const;
  /// Unique in-loop predecessor of the header, or null.
  ir::BasicBlock *getLatch() const;
  /// The single block outside the loop that the header exit branch targets,
  /// or null if the loop has multiple or in-body exits.
  ir::BasicBlock *getExitBlock() const;

  // -- Canonical counted-loop shape (null/false when not canonical) --------

  /// Induction phi in the header, advancing by a constant step.
  ir::PhiInst *getInductionVariable() const { return IndVar; }
  /// IV value on loop entry.
  ir::Value *getStartValue() const { return Start; }
  /// Constant step added each iteration.
  std::int64_t getStep() const { return Step; }
  /// Exclusive upper bound: loop runs while IV < Bound. Null when the exit
  /// test is not of that shape.
  ir::Value *getBound() const { return Bound; }
  /// True when IV/start/step/bound were all recognized.
  bool isCanonical() const { return IndVar && Bound; }

private:
  friend class LoopInfo;
  ir::BasicBlock *Header = nullptr;
  std::set<ir::BasicBlock *> Blocks;
  Loop *Parent = nullptr;
  std::vector<Loop *> SubLoops;

  ir::PhiInst *IndVar = nullptr;
  ir::Value *Start = nullptr;
  std::int64_t Step = 0;
  ir::Value *Bound = nullptr;
};

/// Loop forest of a function.
class LoopInfo {
public:
  explicit LoopInfo(const ir::Function &F);
  /// Same, reusing an already-computed dominator tree for \p F (the cached
  /// one when constructed through pm::LoopAnalysis). No reference to \p DT
  /// is retained.
  LoopInfo(const ir::Function &F, const DominatorTree &DT);

  const std::vector<std::unique_ptr<Loop>> &loops() const { return AllLoops; }
  const std::vector<Loop *> &topLevelLoops() const { return TopLevel; }

  /// Innermost loop containing \p BB, or null.
  Loop *getLoopFor(const ir::BasicBlock *BB) const;

  /// All loops, innermost first (children before parents).
  std::vector<Loop *> loopsInnermostFirst() const;

private:
  void recognizeInductionVariable(Loop &L);

  std::vector<std::unique_ptr<Loop>> AllLoops;
  std::vector<Loop *> TopLevel;
};

} // namespace analysis
} // namespace dae

#endif // DAECC_ANALYSIS_LOOPINFO_H
