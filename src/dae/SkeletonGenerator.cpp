//===- dae/SkeletonGenerator.cpp - Skeleton access synthesis ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dae/SkeletonGenerator.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/Cloner.h"
#include "ir/Module.h"
#include "passes/Passes.h"
#include "pm/Analyses.h"
#include "support/Casting.h"

#include <set>
#include <vector>

using namespace dae;
using namespace dae::analysis;
using namespace dae::ir;

namespace {

/// Step 6 companion (section 5.2.2): rewrites every conditional branch that
/// is not a loop exit test into an unconditional branch to the conditional
/// region's join block (its immediate post-dominator), then sweeps the
/// now-unreachable arms. "By eliminating the conditionals, we ensure that
/// only data which is guaranteed to be accessed in all iterations is
/// prefetched."
/// Finds a value that can stand in for \p Phi on the new edge from \p BB:
/// a non-instruction incoming value, or an incoming instruction whose block
/// dominates \p BB. The access phase is a speculative prefetch, so an
/// arbitrary choice among the arms is permissible; only dominance must hold.
Value *pickSafeIncoming(PhiInst *Phi, BasicBlock *BB,
                        const DominatorTree &DT) {
  for (unsigned I = 0; I != Phi->getNumIncoming(); ++I) {
    Value *V = Phi->getIncomingValue(I);
    auto *Inst = dyn_cast<Instruction>(V);
    if (!Inst)
      return V;
    if (DT.dominates(Inst->getParent(), BB))
      return V;
  }
  return nullptr;
}

/// Returns the number of conditionals rewritten (for the refinement
/// planner's GenerationTrace).
unsigned simplifyControlFlow(Function &F, pm::FunctionAnalysisManager &FAM) {
  unsigned Rewritten = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Pulled once per sweep; the rewrites below work against this snapshot
    // and the cache is cleared at the end of a changing sweep.
    const LoopInfo &LI = FAM.getResult<pm::LoopAnalysis>(F);
    const PostDominatorTree &PDT = FAM.getResult<pm::PostDominatorsAnalysis>(F);
    const DominatorTree &DT = FAM.getResult<pm::DominatorsAnalysis>(F);
    for (const auto &BB : F) {
      auto *Br = dyn_cast_if_present<BrInst>(BB->getTerminator());
      if (!Br || !Br->isConditional())
        continue;
      Loop *L = LI.getLoopFor(BB.get());
      if (L) {
        bool TrueIn = L->contains(Br->getTrueDest());
        bool FalseIn = L->contains(Br->getFalseDest());
        if (TrueIn != FalseIn)
          continue; // Loop exit test: maintains the loop's control flow.
      } else {
        continue; // Only conditionals embedded in loop bodies (section
                  // 5.2.2); straight-line guards outside loops are kept.
      }
      BasicBlock *Join = PDT.ipdom(BB.get());
      if (!Join)
        continue; // No join (diverging region); keep the conditional.

      // When BB becomes a direct predecessor of the join, its phis need a
      // value for the new edge; bail out if no dominating choice exists.
      bool JoinWasSucc =
          Br->getTrueDest() == Join || Br->getFalseDest() == Join;
      std::vector<std::pair<PhiInst *, Value *>> NewEdges;
      if (!JoinWasSucc) {
        bool AllSafe = true;
        for (PhiInst *Phi : Join->phis()) {
          Value *V = pickSafeIncoming(Phi, BB.get(), DT);
          if (!V) {
            AllSafe = false;
            break;
          }
          NewEdges.emplace_back(Phi, V);
        }
        if (!AllSafe)
          continue;
      }

      // Unhook phi edges of the abandoned successors.
      for (unsigned S = 0; S != Br->getNumSuccessors(); ++S) {
        BasicBlock *Succ = Br->getSuccessor(S);
        if (Succ == Join)
          continue;
        for (PhiInst *Phi : Succ->phis()) {
          int Idx = Phi->getBlockIndex(BB.get());
          if (Idx >= 0)
            Phi->removeIncoming(static_cast<unsigned>(Idx));
        }
      }
      for (auto &[Phi, V] : NewEdges)
        Phi->addIncoming(V, BB.get());
      Br->makeUnconditional(Join);
      ++Rewritten;
      Changed = true;
    }
    if (Changed) {
      FAM.clear(F);
      passes::runSimplifyCFG(F);
      passes::runDCE(F);
    }
  }
  return Rewritten;
}

} // namespace

AccessPhaseResult dae::generateSkeletonAccess(Module &M, Function &Task,
                                              const DaeOptions &Opts,
                                              pm::FunctionAnalysisManager &FAM) {
  AccessPhaseResult Result;
  Result.Strategy = TaskClass::Skeleton;

  // Step 2: clone (privatizes all task locals).
  ValueMap CloneMap;
  std::unique_ptr<Function> CloneOwner =
      cloneFunction(Task, Task.getName() + ".access", &CloneMap);
  Function *Clone = CloneOwner.get();
  Clone->setTask(false);

  // Profile-guided selective prefetching: map the original cold loads onto
  // their clones so the insertion loop below can skip them.
  std::set<const Instruction *> ColdClones;
  if (Opts.ColdLoads)
    for (const Instruction *Orig : *Opts.ColdLoads) {
      auto It = CloneMap.find(Orig);
      if (It != CloneMap.end())
        ColdClones.insert(cast<Instruction>(It->second));
    }

  // Steps 3-4: roots. Insert a prefetch alongside each qualifying read
  // (section 5.2.1: "accompany, rather than replace, each load"), deduped
  // per address value; stores contribute prefetches only in the ablation
  // configuration and are always discarded themselves. This runs before CFG
  // simplification so reads guaranteed to execute keep their prefetch even
  // when the load itself becomes dead; prefetches in eliminated conditional
  // arms disappear with the arm (the paper's "reads not guaranteed to
  // execute are discarded").
  std::set<Value *> PrefetchedAddrs;
  std::vector<StoreInst *> Stores;
  for (const auto &BB : *Clone) {
    std::vector<Instruction *> Insts;
    for (const auto &I : *BB)
      Insts.push_back(I.get());
    for (Instruction *I : Insts) {
      if (auto *Ld = dyn_cast<LoadInst>(I)) {
        if (ColdClones.count(Ld))
          continue; // Profiled as rarely missing: no prefetch.
        Value *Ptr = Ld->getPointer();
        if (PrefetchedAddrs.insert(Ptr).second)
          BB->insertBefore(std::make_unique<PrefetchInst>(Ptr), Ld);
      } else if (auto *St = dyn_cast<StoreInst>(I)) {
        if (Opts.PrefetchWrites) {
          Value *Ptr = St->getPointer();
          if (PrefetchedAddrs.insert(Ptr).second)
            BB->insertBefore(std::make_unique<PrefetchInst>(Ptr), St);
        }
        Stores.push_back(St);
      }
    }
  }

  // Simplified CFG (section 5.2.2, "Simplified CFG"). Stores must be
  // discarded first so that store-only conditional arms do not anchor their
  // blocks, and so join-block phis feeding only stores disappear.
  for (StoreInst *St : Stores)
    St->getParent()->erase(St);
  Stores.clear();
  Result.Trace.SkeletonRan = true;
  if (Opts.SimplifyCfg)
    Result.Trace.CondsRewritten = simplifyControlFlow(*Clone, FAM);

  // Step 5: mark address computation and loop control flow by walking the
  // use-def chains from the prefetches and terminators.
  std::set<Instruction *> Marked;
  std::vector<Instruction *> Work;
  auto MarkOperands = [&](Instruction *I) {
    for (Value *Op : I->operands())
      if (auto *OpI = dyn_cast<Instruction>(Op))
        if (Marked.insert(OpI).second)
          Work.push_back(OpI);
  };
  for (const auto &BB : *Clone)
    for (const auto &I : *BB)
      if (I->isTerminator() || isa<PrefetchInst>(I.get())) {
        Marked.insert(I.get());
        MarkOperands(I.get());
      }
  while (!Work.empty()) {
    Instruction *I = Work.back();
    Work.pop_back();
    MarkOperands(I);
  }

  // Step 6: discard every unmarked instruction; DCE-style unwinding handles
  // use ordering (marked instructions never use unmarked ones, by closure).
  bool Removed = true;
  while (Removed) {
    Removed = false;
    for (const auto &BB : *Clone) {
      std::vector<Instruction *> Dead;
      for (const auto &I : *BB)
        if (!Marked.count(I.get()) && !I->hasUsers() && !I->hasSideEffects())
          Dead.push_back(I.get());
      for (auto It = Dead.rbegin(); It != Dead.rend(); ++It) {
        if ((*It)->hasUsers())
          continue;
        BB->erase(*It);
        Removed = true;
      }
    }
  }

  // Finally: "-O3" cleanup interleaved with dead-loop removal for loops
  // whose entire body was discarded, iterated to a declared fixpoint (one
  // pipeline instead of the historical optimize/delete-loops/optimize
  // sequence). The marking above mutated the clone behind the cache.
  FAM.clear(*Clone);
  passes::buildAccessCleanupPipeline()->run(*Clone, FAM);

  Result.AccessFn = M.addFunction(std::move(CloneOwner));
  Result.Notes = "skeleton access phase";
  return Result;
}
