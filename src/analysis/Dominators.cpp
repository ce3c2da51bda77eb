//===- analysis/Dominators.cpp - Dominator tree ---------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Dominators.h"

#include "ir/Function.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace dae;
using namespace dae::analysis;
using dae::ir::BasicBlock;
using dae::ir::Function;

std::vector<BasicBlock *> analysis::reversePostOrder(const Function &F) {
  std::vector<BasicBlock *> PostOrder;
  std::set<const BasicBlock *> Visited;
  // Iterative DFS with explicit successor cursor.
  struct Frame {
    BasicBlock *BB;
    std::vector<BasicBlock *> Succs;
    size_t Next = 0;
  };
  if (F.empty())
    return PostOrder;
  std::vector<Frame> Stack;
  BasicBlock *Entry = F.getEntry();
  Visited.insert(Entry);
  Stack.push_back({Entry, Entry->successors()});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < Top.Succs.size()) {
      BasicBlock *S = Top.Succs[Top.Next++];
      if (Visited.insert(S).second)
        Stack.push_back({S, S->successors()});
      continue;
    }
    PostOrder.push_back(Top.BB);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  return PostOrder;
}

DominatorTree::DominatorTree(const Function &F) {
  std::vector<BasicBlock *> RPO = reversePostOrder(F);
  if (RPO.empty())
    return;

  std::map<const BasicBlock *, int> RpoIndex;
  for (int I = 0; I != static_cast<int>(RPO.size()); ++I)
    RpoIndex[RPO[I]] = I;

  BasicBlock *Entry = RPO.front();
  IDom[Entry] = Entry; // Sentinel: entry dominates itself.

  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (RpoIndex[A] > RpoIndex[B])
        A = IDom[A];
      while (RpoIndex[B] > RpoIndex[A])
        B = IDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < RPO.size(); ++I) {
      BasicBlock *BB = RPO[I];
      BasicBlock *NewIDom = nullptr;
      for (BasicBlock *Pred : BB->predecessors()) {
        if (!RpoIndex.count(Pred) || !IDom.count(Pred))
          continue; // Unreachable or not yet processed.
        NewIDom = NewIDom ? Intersect(NewIDom, Pred) : Pred;
      }
      assert(NewIDom && "reachable block with no processed predecessor");
      auto It = IDom.find(BB);
      if (It == IDom.end() || It->second != NewIDom) {
        IDom[BB] = NewIDom;
        Changed = true;
      }
    }
  }
}

bool DominatorTree::isReachable(const ir::BasicBlock *BB) const {
  return IDom.count(BB) != 0;
}

PostDominatorTree::PostDominatorTree(const Function &F) {
  // Find the unique exit (return) block.
  BasicBlock *Exit = nullptr;
  for (const auto &BB : F) {
    if (BB->getTerminator() && isa<ir::RetInst>(BB->getTerminator())) {
      assert(!Exit && "post-dominators require a single return block");
      Exit = BB.get();
    }
  }
  if (!Exit)
    return;

  // Reverse post-order of the reverse CFG, exit first.
  std::vector<BasicBlock *> PostOrder;
  std::set<const BasicBlock *> Visited;
  struct Frame {
    BasicBlock *BB;
    std::vector<BasicBlock *> Preds;
    size_t Next = 0;
  };
  std::vector<Frame> Stack;
  Visited.insert(Exit);
  Stack.push_back({Exit, Exit->predecessors()});
  while (!Stack.empty()) {
    Frame &Top = Stack.back();
    if (Top.Next < Top.Preds.size()) {
      BasicBlock *P = Top.Preds[Top.Next++];
      if (Visited.insert(P).second)
        Stack.push_back({P, P->predecessors()});
      continue;
    }
    PostOrder.push_back(Top.BB);
    Stack.pop_back();
  }
  std::reverse(PostOrder.begin(), PostOrder.end());

  std::map<const BasicBlock *, int> Order;
  for (int I = 0; I != static_cast<int>(PostOrder.size()); ++I)
    Order[PostOrder[I]] = I;

  IPDom[Exit] = Exit;
  auto Intersect = [&](BasicBlock *A, BasicBlock *B) {
    while (A != B) {
      while (Order[A] > Order[B])
        A = IPDom[A];
      while (Order[B] > Order[A])
        B = IPDom[B];
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 1; I < PostOrder.size(); ++I) {
      BasicBlock *BB = PostOrder[I];
      BasicBlock *NewIPDom = nullptr;
      for (BasicBlock *Succ : BB->successors()) {
        if (!Order.count(Succ) || !IPDom.count(Succ))
          continue;
        NewIPDom = NewIPDom ? Intersect(NewIPDom, Succ) : Succ;
      }
      if (!NewIPDom)
        continue; // Block cannot reach the exit.
      auto It = IPDom.find(BB);
      if (It == IPDom.end() || It->second != NewIPDom) {
        IPDom[BB] = NewIPDom;
        Changed = true;
      }
    }
  }
}

BasicBlock *PostDominatorTree::ipdom(const BasicBlock *BB) const {
  auto It = IPDom.find(BB);
  if (It == IPDom.end())
    return nullptr;
  return It->second == BB ? nullptr : It->second;
}

bool PostDominatorTree::postDominates(const BasicBlock *A,
                                      const BasicBlock *B) const {
  if (!IPDom.count(A) || !IPDom.count(B))
    return false;
  const BasicBlock *Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    const BasicBlock *Up = IPDom.at(Cur);
    if (Up == Cur)
      return false;
    Cur = Up;
  }
}

bool DominatorTree::dominates(const BasicBlock *A, const BasicBlock *B) const {
  if (!isReachable(A) || !isReachable(B))
    return false;
  const BasicBlock *Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    const BasicBlock *Up = IDom.at(Cur);
    if (Up == Cur)
      return false; // Reached the entry sentinel.
    Cur = Up;
  }
}
