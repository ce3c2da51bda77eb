//===- tests/passes/PassesTest.cpp - Classical pass unit tests --------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "pm/Analyses.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "passes/Passes.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace dae;
using namespace dae::ir;
using namespace dae::passes;

namespace {

size_t countInsts(const Function &F) { return F.instructionCount(); }

TEST(DCETest, RemovesDeadChains) {
  Module M;
  Function *F = M.createFunction("f", Type::Void, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  Value *A = B.createAdd(F->getArg(0), M.getInt(1));
  Value *Bv = B.createMul(A, M.getInt(2));
  B.createXor(Bv, M.getInt(3)); // Dead chain of three.
  B.createRet();
  EXPECT_EQ(countInsts(*F), 4u);
  EXPECT_TRUE(runDCE(*F));
  EXPECT_EQ(countInsts(*F), 1u); // Only ret.
}

TEST(DCETest, KeepsSideEffects) {
  Module M;
  auto *G = M.createGlobal("g", 64);
  Function *F = M.createFunction("f", Type::Void, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  Value *P = B.createGep1D(G, F->getArg(0), 8);
  B.createStore(M.getInt(1), P);
  B.createPrefetch(P);
  B.createLoad(Type::Int64, P); // Dead load: removable.
  B.createRet();
  runDCE(*F);
  unsigned Stores = 0, Prefetches = 0, Loads = 0;
  for (const auto &BB : *F)
    for (const auto &I : *BB) {
      Stores += isa<StoreInst>(I.get());
      Prefetches += isa<PrefetchInst>(I.get());
      Loads += isa<LoadInst>(I.get());
    }
  EXPECT_EQ(Stores, 1u);
  EXPECT_EQ(Prefetches, 1u);
  EXPECT_EQ(Loads, 0u);
}

TEST(ConstantFoldingTest, FoldsArithmeticAndIdentities) {
  Module M;
  auto *G = M.createGlobal("g", 64);
  Function *F = M.createFunction("f", Type::Void, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  Value *C = B.createAdd(M.getInt(2), M.getInt(3)); // -> 5.
  Value *Id = B.createMul(F->getArg(0), M.getInt(1)); // -> arg0.
  Value *Sum = B.createAdd(C, Id);
  B.createStore(Sum, B.createGep1D(G, M.getInt(0), 8));
  B.createRet();

  EXPECT_TRUE(runConstantFolding(*F));
  // Sum must now read (5 + arg0) with the folded constant.
  auto *SumI = cast<Instruction>(Sum);
  bool HasConst5 = false;
  for (Value *Op : SumI->operands())
    if (auto *CI = dyn_cast<ConstantInt>(Op))
      HasConst5 = CI->getValue() == 5;
  EXPECT_TRUE(HasConst5) << printFunction(*F);
}

/// Folding computes what the backends compute: INT64_MAX + 1 and
/// INT64_MIN sdiv -1 wrap to INT64_MIN instead of overflowing or trapping,
/// INT64_MIN srem -1 is 0, and a division by 0 is left to run.
TEST(ConstantFoldingTest, FoldsOverflowByWrapping) {
  Module M;
  auto *G = M.createGlobal("g", 64);
  Function *F = M.createFunction("f", Type::Void, {});
  IRBuilder B(M, F->createBlock("entry"));
  const std::int64_t Min = INT64_MIN, Max = INT64_MAX;
  Value *Vals[] = {B.createAdd(M.getInt(Max), M.getInt(1)),
                   B.createSDiv(M.getInt(Min), M.getInt(-1)),
                   B.createSRem(M.getInt(Min), M.getInt(-1)),
                   B.createSDiv(M.getInt(7), M.getInt(0))};
  for (std::int64_t K = 0; K != 4; ++K)
    B.createStore(Vals[K], B.createGep1D(G, M.getInt(K), 8));
  B.createRet();

  EXPECT_TRUE(runConstantFolding(*F));
  std::vector<Value *> Stored;
  for (const auto &BB : *F)
    for (const auto &I : *BB)
      if (auto *S = dyn_cast<StoreInst>(I.get()))
        Stored.push_back(S->getValue());
  ASSERT_EQ(Stored.size(), 4u) << printFunction(*F);
  for (std::int64_t K = 0; K != 3; ++K) {
    auto *C = dyn_cast<ConstantInt>(Stored[K]);
    ASSERT_NE(C, nullptr) << K << "\n" << printFunction(*F);
    EXPECT_EQ(C->getValue(), K == 2 ? 0 : Min) << K;
  }
  EXPECT_TRUE(isa<BinaryInst>(Stored[3])) << printFunction(*F);
}

TEST(SimplifyCFGTest, FoldsConstantBranchAndPrunes) {
  Module M;
  auto *G = M.createGlobal("g", 64);
  Function *F = M.createFunction("f", Type::Void, {});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Dead = F->createBlock("dead");
  BasicBlock *Live = F->createBlock("live");
  IRBuilder B(M, Entry);
  B.createCondBr(M.getInt(0), Dead, Live); // Always false.
  B.setInsertBlock(Dead);
  B.createStore(M.getInt(1), B.createGep1D(G, M.getInt(0), 8));
  B.createBr(Live);
  B.setInsertBlock(Live);
  B.createRet();

  EXPECT_TRUE(runSimplifyCFG(*F));
  // Dead block removed, blocks merged.
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  for (const auto &BB : *F)
    EXPECT_NE(BB->getName(), "dead");
}

TEST(InlinerTest, InlinesAndRemovesCall) {
  Module M;
  Function *Callee = M.createFunction("sq", Type::Int64, {Type::Int64});
  {
    IRBuilder B(M, Callee->createBlock("entry"));
    B.createRet(B.createMul(Callee->getArg(0), Callee->getArg(0)));
  }
  auto *G = M.createGlobal("g", 64);
  Function *F = M.createFunction("caller", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, F->createBlock("entry"));
    Value *R = B.createCall(Callee, {F->getArg(0)});
    B.createStore(R, B.createGep1D(G, M.getInt(0), 8));
    B.createRet();
  }
  EXPECT_EQ(runInliner(*F), 1u);
  for (const auto &BB : *F)
    for (const auto &I : *BB)
      EXPECT_FALSE(isa<CallInst>(I.get()));
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
}

TEST(InlinerTest, RespectsNoInlineAndRecursion) {
  Module M;
  Function *Ext = M.createFunction("ext", Type::Int64, {Type::Int64});
  Ext->setNoInline(true);
  {
    IRBuilder B(M, Ext->createBlock("entry"));
    B.createRet(Ext->getArg(0));
  }
  Function *Rec = M.createFunction("rec", Type::Int64, {Type::Int64});
  {
    IRBuilder B(M, Rec->createBlock("entry"));
    B.createRet(B.createCall(Rec, {Rec->getArg(0)}));
  }
  auto *G = M.createGlobal("g", 64);
  Function *F = M.createFunction("caller", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, F->createBlock("entry"));
    Value *A = B.createCall(Ext, {F->getArg(0)});
    Value *Bv = B.createCall(Rec, {A});
    B.createStore(Bv, B.createGep1D(G, M.getInt(0), 8));
    B.createRet();
  }
  EXPECT_EQ(runInliner(*F), 0u);
  EXPECT_FALSE(allCallsInlinable(*F));
}

TEST(InlinerTest, InlinesLoopsInCallee) {
  Module M;
  auto *G = M.createGlobal("g", 8192);
  Function *Callee = M.createFunction("fill", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, Callee->createBlock("entry"));
    emitCountedLoop(B, B.getInt(0), Callee->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
                      B.createStore(I, B.createGep1D(G, I, 8));
                    });
    B.createRet();
  }
  Function *F = M.createFunction("caller", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, F->createBlock("entry"));
    B.createCall(Callee, {F->getArg(0)});
    B.createCall(Callee, {F->getArg(0)});
    B.createRet();
  }
  EXPECT_EQ(runInliner(*F), 2u);
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  pm::FunctionAnalysisManager FAM;
  EXPECT_EQ(FAM.getResult<pm::LoopAnalysis>(*F).loops().size(), 2u);
}

TEST(LoopDeletionTest, RemovesSideEffectFreeLoop) {
  Module M;
  auto *G = M.createGlobal("g", 8192);
  Function *F = M.createFunction("f", Type::Void, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  // Dead loop: computes values nobody uses.
  emitCountedLoop(B, B.getInt(0), F->getArg(0), B.getInt(1), "dead",
                  [&](IRBuilder &B, Value *I) { B.createMul(I, I); });
  // Live loop: stores.
  emitCountedLoop(B, B.getInt(0), F->getArg(0), B.getInt(1), "live",
                  [&](IRBuilder &B, Value *I) {
                    B.createStore(I, B.createGep1D(G, I, 8));
                  });
  B.createRet();

  runDCE(*F);
  EXPECT_TRUE(runLoopDeletion(*F));
  pm::FunctionAnalysisManager FAM;
  EXPECT_EQ(FAM.getResult<pm::LoopAnalysis>(*F).loops().size(), 1u);
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
}

TEST(OptimizeFunctionTest, ReachesFixpointAndStaysValid) {
  Module M;
  auto *G = M.createGlobal("g", 8192);
  Function *Helper = M.createFunction("h", Type::Int64, {Type::Int64});
  {
    IRBuilder B(M, Helper->createBlock("entry"));
    B.createRet(B.createAdd(Helper->getArg(0), M.getInt(0))); // x + 0.
  }
  Function *F = M.createFunction("f", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, F->createBlock("entry"));
    Value *V = B.createCall(Helper, {F->getArg(0)});
    Value *Folded = B.createMul(V, M.getInt(1));
    B.createStore(Folded, B.createGep1D(G, M.getInt(0), 8));
    B.createRet();
  }
  optimizeFunction(*F);
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  // After inlining + folding, the store writes arg0 directly.
  for (const auto &BB : *F)
    for (const auto &I : *BB)
      if (auto *St = dyn_cast<StoreInst>(I.get())) {
        EXPECT_EQ(St->getValue(), F->getArg(0)) << printFunction(*F);
      }
}

} // namespace
