//===- analysis/LoopInfo.cpp - Natural loop detection ---------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"

#include "analysis/Dominators.h"
#include "ir/Function.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>

using namespace dae;
using namespace dae::analysis;
using namespace dae::ir;

unsigned Loop::getDepth() const {
  unsigned D = 1;
  for (const Loop *P = Parent; P; P = P->Parent)
    ++D;
  return D;
}

BasicBlock *Loop::getPreheader() const {
  BasicBlock *Pre = nullptr;
  for (BasicBlock *Pred : Header->predecessors()) {
    if (contains(Pred))
      continue;
    if (Pre)
      return nullptr; // Multiple outside predecessors.
    Pre = Pred;
  }
  return Pre;
}

BasicBlock *Loop::getLatch() const {
  BasicBlock *Latch = nullptr;
  for (BasicBlock *Pred : Header->predecessors()) {
    if (!contains(Pred))
      continue;
    if (Latch)
      return nullptr; // Multiple latches.
    Latch = Pred;
  }
  return Latch;
}

BasicBlock *Loop::getExitBlock() const {
  BasicBlock *Exit = nullptr;
  for (BasicBlock *BB : Blocks) {
    for (BasicBlock *Succ : BB->successors()) {
      if (contains(Succ))
        continue;
      if (Exit && Exit != Succ)
        return nullptr;
      Exit = Succ;
    }
  }
  return Exit;
}

LoopInfo::LoopInfo(const Function &F) : LoopInfo(F, DominatorTree(F)) {}

LoopInfo::LoopInfo(const Function &F, const DominatorTree &DT) {
  // Find back edges (Tail -> Header with Header dominating Tail); collect
  // one loop per header, merging bodies of multiple back edges.
  std::map<BasicBlock *, Loop *> HeaderToLoop;
  for (const auto &BBPtr : F) {
    BasicBlock *Tail = BBPtr.get();
    if (!DT.isReachable(Tail))
      continue;
    for (BasicBlock *Header : Tail->successors()) {
      if (!DT.dominates(Header, Tail))
        continue;
      Loop *L = nullptr;
      auto It = HeaderToLoop.find(Header);
      if (It != HeaderToLoop.end()) {
        L = It->second;
      } else {
        AllLoops.push_back(std::make_unique<Loop>());
        L = AllLoops.back().get();
        L->Header = Header;
        L->Blocks.insert(Header);
        HeaderToLoop[Header] = L;
      }
      // Walk predecessors from the back edge tail up to the header.
      std::vector<BasicBlock *> Work{Tail};
      while (!Work.empty()) {
        BasicBlock *BB = Work.back();
        Work.pop_back();
        if (!L->Blocks.insert(BB).second)
          continue;
        for (BasicBlock *Pred : BB->predecessors())
          if (DT.isReachable(Pred))
            Work.push_back(Pred);
      }
    }
  }

  // Establish nesting: parent = smallest strictly-containing loop.
  for (auto &LPtr : AllLoops) {
    Loop *L = LPtr.get();
    Loop *Best = nullptr;
    for (auto &CandPtr : AllLoops) {
      Loop *Cand = CandPtr.get();
      if (Cand == L || !Cand->contains(L->Header))
        continue;
      if (Cand->Blocks.size() <= L->Blocks.size())
        continue; // Equal or smaller cannot strictly contain.
      if (!Best || Cand->Blocks.size() < Best->Blocks.size())
        Best = Cand;
    }
    L->Parent = Best;
    if (Best)
      Best->SubLoops.push_back(L);
    else
      TopLevel.push_back(L);
  }

  for (auto &LPtr : AllLoops)
    recognizeInductionVariable(*LPtr);
}

void LoopInfo::recognizeInductionVariable(Loop &L) {
  BasicBlock *Preheader = L.getPreheader();
  BasicBlock *Latch = L.getLatch();
  if (!Preheader || !Latch)
    return;

  // The canonical shape: header phi with {init from preheader, iv+step from
  // latch}; header terminator 'br (cmp slt/sle iv, bound), body, exit'.
  for (PhiInst *Phi : L.getHeader()->phis()) {
    if (Phi->getNumIncoming() != 2)
      continue;
    int PreIdx = Phi->getBlockIndex(Preheader);
    int LatchIdx = Phi->getBlockIndex(Latch);
    if (PreIdx < 0 || LatchIdx < 0)
      continue;
    auto *Inc = dyn_cast<BinaryInst>(
        Phi->getIncomingValue(static_cast<unsigned>(LatchIdx)));
    if (!Inc || Inc->getOpcode() != BinOp::Add)
      continue;
    Value *StepVal = nullptr;
    if (Inc->getLHS() == Phi)
      StepVal = Inc->getRHS();
    else if (Inc->getRHS() == Phi)
      StepVal = Inc->getLHS();
    auto *StepConst = dyn_cast_if_present<ConstantInt>(StepVal);
    if (!StepConst || StepConst->getValue() == 0)
      continue;

    L.IndVar = Phi;
    L.Start = Phi->getIncomingValue(static_cast<unsigned>(PreIdx));
    L.Step = StepConst->getValue();
    break;
  }
  if (!L.IndVar)
    return;

  // Recognize the bound from the header's exit branch.
  auto *Br = dyn_cast_if_present<BrInst>(L.getHeader()->getTerminator());
  if (!Br || !Br->isConditional())
    return;
  auto *Cmp = dyn_cast<CmpInst>(Br->getCondition());
  if (!Cmp)
    return;
  // Loop continues on the true edge into the loop; "iv < bound" shape.
  bool TrueInLoop = L.contains(Br->getTrueDest());
  bool FalseInLoop = L.contains(Br->getFalseDest());
  if (TrueInLoop == FalseInLoop)
    return; // Not the exit branch.
  CmpPred P = Cmp->getPredicate();
  Value *LHS = Cmp->getLHS(), *RHS = Cmp->getRHS();
  // Normalize to "continue while IV < Bound" (exclusive bound).
  if (TrueInLoop && P == CmpPred::SLT && LHS == L.IndVar) {
    L.Bound = RHS;
  } else if (TrueInLoop && P == CmpPred::SGT && RHS == L.IndVar) {
    L.Bound = LHS;
  } else if (!TrueInLoop && P == CmpPred::SGE && LHS == L.IndVar) {
    L.Bound = RHS; // Exits while IV >= Bound, i.e. runs while IV < Bound.
  }
}

Loop *LoopInfo::getLoopFor(const BasicBlock *BB) const {
  Loop *Innermost = nullptr;
  for (const auto &LPtr : AllLoops) {
    Loop *L = LPtr.get();
    if (!L->contains(BB))
      continue;
    if (!Innermost || L->Blocks.size() < Innermost->Blocks.size())
      Innermost = L;
  }
  return Innermost;
}

std::vector<Loop *> LoopInfo::loopsInnermostFirst() const {
  std::vector<Loop *> Result;
  for (const auto &LPtr : AllLoops)
    Result.push_back(LPtr.get());
  std::sort(Result.begin(), Result.end(), [](Loop *A, Loop *B) {
    if (A->getDepth() != B->getDepth())
      return A->getDepth() > B->getDepth();
    return A->blocks().size() < B->blocks().size();
  });
  return Result;
}
