//===- tests/dae/AffineGeneratorTest.cpp - Section 5.1 unit tests ---------===//
//
// Part of daecc. Distributed under the MIT license.
//
// Reproduces the paper's Listings 1-3 as Task IR and checks the generated
// access phases structurally: class separation, convex-union guard, nest
// merging, and the 5.1.1 memory-range contrast of Figure 1(b).
//
//===----------------------------------------------------------------------===//

#include "dae/AccessGenerator.h"
#include "dae/AffineGenerator.h"

#include "analysis/LoopInfo.h"
#include "pm/Analyses.h"
#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/Casting.h"

#include <gtest/gtest.h>

using namespace dae;
using namespace dae::ir;

namespace {

constexpr std::int64_t Dim = 64; ///< Static extent of the 2-D test arrays.
constexpr std::int64_t Elem = 8;

struct CountVisitor {
  unsigned Prefetches = 0;
  unsigned Loads = 0;
  unsigned Stores = 0;
  unsigned Loops = 0;

  explicit CountVisitor(Function &F) {
    for (const auto &BB : F)
      for (const auto &I : *BB) {
        if (isa<PrefetchInst>(I.get()))
          ++Prefetches;
        else if (isa<LoadInst>(I.get()))
          ++Loads;
        else if (isa<StoreInst>(I.get()))
          ++Stores;
      }
    pm::FunctionAnalysisManager FAM;
    Loops = static_cast<unsigned>(
        FAM.getResult<pm::LoopAnalysis>(F).loops().size());
  }
};

/// Listing 1(a): the LU kernel accessing the whole matrix.
///   for (i = 0; i < N; i++)
///     for (j = i+1; j < N; j++) {
///       A[j][i] /= A[i][i];
///       for (k = i+1; k < N; k++)
///         A[j][k] -= A[j][i] * A[i][k];
///     }
Function *buildLuWholeMatrix(Module &M) {
  auto *A = M.createGlobal("A", Dim * Dim * Elem);
  Function *F = M.createFunction("lu", Type::Void, {Type::Int64});
  F->setTask(true);
  Value *N = F->getArg(0);
  IRBuilder B(M, F->createBlock("entry"));

  emitCountedLoop(B, B.getInt(0), N, B.getInt(1), "i", [&](IRBuilder &B,
                                                           Value *I) {
    Value *IPlus1 = B.createAdd(I, B.getInt(1));
    emitCountedLoop(B, IPlus1, N, B.getInt(1), "j", [&](IRBuilder &B,
                                                        Value *J) {
      Value *Aji = B.createGep2D(A, J, I, Dim, Elem);
      Value *Aii = B.createGep2D(A, I, I, Dim, Elem);
      Value *Quot = B.createFDiv(B.createLoad(Type::Float64, Aji),
                                 B.createLoad(Type::Float64, Aii));
      B.createStore(Quot, Aji);
      emitCountedLoop(
          B, IPlus1, N, B.getInt(1), "k", [&](IRBuilder &B, Value *K) {
            Value *Ajk = B.createGep2D(A, J, K, Dim, Elem);
            Value *Aik = B.createGep2D(A, I, K, Dim, Elem);
            Value *Prod = B.createFMul(B.createLoad(Type::Float64, Aji),
                                       B.createLoad(Type::Float64, Aik));
            Value *Diff =
                B.createFSub(B.createLoad(Type::Float64, Ajk), Prod);
            B.createStore(Diff, Ajk);
          });
    });
  });
  B.createRet();
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  return F;
}

/// Listing 3(a): a loop nest accessing two parameterized blocks of A.
///   for (i) for (j = i+1) for (k = i+1)
///     A[Ax+j][Ay+k] -= A[Dx+j][Dy+i] * A[Ax+i][Ay+k];
Function *buildBlockKernel(Module &M) {
  auto *A = M.createGlobal("A", Dim * Dim * Elem);
  Function *F = M.createFunction(
      "lu_block", Type::Void,
      {Type::Int64, Type::Int64, Type::Int64, Type::Int64, Type::Int64});
  F->setTask(true);
  Value *Block = F->getArg(0);
  Value *Ax = F->getArg(1), *Ay = F->getArg(2);
  Value *Dx = F->getArg(3), *Dy = F->getArg(4);
  IRBuilder B(M, F->createBlock("entry"));

  emitCountedLoop(B, B.getInt(0), Block, B.getInt(1), "i", [&](IRBuilder &B,
                                                               Value *I) {
    Value *IPlus1 = B.createAdd(I, B.getInt(1));
    emitCountedLoop(B, IPlus1, Block, B.getInt(1), "j", [&](IRBuilder &B,
                                                            Value *J) {
      emitCountedLoop(B, IPlus1, Block, B.getInt(1), "k", [&](IRBuilder &B,
                                                              Value *K) {
        Value *Dst = B.createGep2D(A, B.createAdd(Ax, J), B.createAdd(Ay, K),
                                   Dim, Elem);
        Value *Mul1 = B.createGep2D(A, B.createAdd(Dx, J), B.createAdd(Dy, I),
                                    Dim, Elem);
        Value *Mul2 = B.createGep2D(A, B.createAdd(Ax, I), B.createAdd(Ay, K),
                                    Dim, Elem);
        Value *Prod = B.createFMul(B.createLoad(Type::Float64, Mul1),
                                   B.createLoad(Type::Float64, Mul2));
        Value *Diff = B.createFSub(B.createLoad(Type::Float64, Dst), Prod);
        B.createStore(Diff, Dst);
      });
    });
  });
  B.createRet();
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  return F;
}

/// A rectangular block copy: B[i][j] = A[i][j] over [0,Block)^2 — the
/// Figure 1(b) shape (a block inside a larger row-major array) and the
/// Listing 2 multi-array situation at once.
Function *buildBlockCopy(Module &M) {
  auto *A = M.createGlobal("A", Dim * Dim * Elem);
  auto *C = M.createGlobal("C", Dim * Dim * Elem);
  Function *F = M.createFunction("copy", Type::Void, {Type::Int64});
  F->setTask(true);
  Value *Block = F->getArg(0);
  IRBuilder B(M, F->createBlock("entry"));
  emitCountedLoop(
      B, B.getInt(0), Block, B.getInt(1), "i", [&](IRBuilder &B, Value *I) {
        emitCountedLoop(B, B.getInt(0), Block, B.getInt(1), "j",
                        [&](IRBuilder &B, Value *J) {
                          Value *Src = B.createGep2D(A, I, J, Dim, Elem);
                          Value *SrcD = B.createGep2D(C, I, J, Dim, Elem);
                          Value *Sum = B.createFAdd(
                              B.createLoad(Type::Float64, Src),
                              B.createLoad(Type::Float64, SrcD));
                          B.createStore(Sum, Src);
                        });
      });
  B.createRet();
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  return F;
}

/// Sparse accesses whose convex hull is much larger than the union: the
/// first column plus the main diagonal.
Function *buildSparseKernel(Module &M) {
  auto *A = M.createGlobal("A", Dim * Dim * Elem);
  Function *F = M.createFunction("sparse", Type::Void, {Type::Int64});
  F->setTask(true);
  Value *N = F->getArg(0);
  IRBuilder B(M, F->createBlock("entry"));
  emitCountedLoop(
      B, B.getInt(0), N, B.getInt(1), "i", [&](IRBuilder &B, Value *I) {
        Value *Col0 = B.createGep2D(A, I, B.getInt(0), Dim, Elem);
        Value *Diag = B.createGep2D(A, I, I, Dim, Elem);
        Value *Sum = B.createFAdd(B.createLoad(Type::Float64, Col0),
                                  B.createLoad(Type::Float64, Diag));
        B.createStore(Sum, Col0);
      });
  B.createRet();
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  return F;
}

DaeOptions optsWithArgs(std::vector<std::int64_t> Args) {
  DaeOptions Opts;
  Opts.RepresentativeArgs = std::move(Args);
  return Opts;
}

TEST(AffineGeneratorTest, LuWholeMatrixScansFullSquare) {
  Module M;
  Function *Task = buildLuWholeMatrix(M);
  AccessPhaseResult R = generateAccessPhase(M, *Task, optsWithArgs({16}));

  ASSERT_TRUE(R.succeeded()) << R.Notes;
  EXPECT_EQ(R.Strategy, analysis::TaskClass::Affine);
  EXPECT_TRUE(R.UsedConvexUnion);
  // All four instructions read the whole 16x16 matrix at N=16.
  EXPECT_EQ(R.NOrig, 16 * 16);
  EXPECT_EQ(R.NConvUn, 16 * 16);
  EXPECT_EQ(R.NumClasses, 1u);
  EXPECT_EQ(R.NumPrefetchNests, 1u);

  CountVisitor V(*R.AccessFn);
  EXPECT_GE(V.Prefetches, 1u);
  EXPECT_EQ(V.Stores, 0u);
  EXPECT_EQ(V.Loads, 0u);
  // The 3-deep original is prefetched by a 2-deep nest (the headline of
  // section 5.1).
  EXPECT_EQ(V.Loops, 2u);
  EXPECT_TRUE(verifyFunction(*R.AccessFn).empty())
      << printFunction(*R.AccessFn);
}

TEST(AffineGeneratorTest, BlockKernelSeparatesParameterClasses) {
  Module M;
  Function *Task = buildBlockKernel(M);
  // Block=8 at offsets (16,16) / (32,32).
  AccessPhaseResult R =
      generateAccessPhase(M, *Task, optsWithArgs({8, 16, 16, 32, 32}));

  ASSERT_TRUE(R.succeeded()) << R.Notes;
  EXPECT_EQ(R.Strategy, analysis::TaskClass::Affine);
  // classA (Ax, Ay) and classD (Dx, Dy), as in Figure 2.
  EXPECT_EQ(R.NumClasses, 2u);
  EXPECT_TRUE(R.UsedConvexUnion);
  // classA hull: [Ax, Ax+B-1] x [Ay+1, Ay+B-1] = 8*7; classD is the strict
  // lower triangle of an 8x8 block = 28. Exactly NOrig in both.
  EXPECT_EQ(R.NOrig, 8 * 7 + 28);
  EXPECT_EQ(R.NConvUn, R.NOrig);
  CountVisitor V(*R.AccessFn);
  EXPECT_EQ(V.Stores, 0u);
  EXPECT_GE(V.Prefetches, 2u);
  EXPECT_TRUE(verifyFunction(*R.AccessFn).empty())
      << printFunction(*R.AccessFn);
}

TEST(AffineGeneratorTest, TwoArraysMergeIntoOneNest) {
  Module M;
  Function *Task = buildBlockCopy(M);
  AccessPhaseResult R = generateAccessPhase(M, *Task, optsWithArgs({8}));

  ASSERT_TRUE(R.succeeded()) << R.Notes;
  EXPECT_EQ(R.NumClasses, 2u); // A and C.
  // Identical Block x Block boxes merge into a single nest with two
  // prefetches in the body (Listing 2(b)).
  EXPECT_EQ(R.NumPrefetchNests, 1u);
  CountVisitor V(*R.AccessFn);
  EXPECT_EQ(V.Prefetches, 2u);
  EXPECT_EQ(V.Loops, 2u);
}

TEST(AffineGeneratorTest, MergingCanBeDisabled) {
  Module M;
  Function *Task = buildBlockCopy(M);
  DaeOptions Opts = optsWithArgs({8});
  Opts.MergeLoopNests = false;
  AccessPhaseResult R = generateAccessPhase(M, *Task, Opts);
  ASSERT_TRUE(R.succeeded()) << R.Notes;
  EXPECT_EQ(R.NumPrefetchNests, 2u);
}

TEST(AffineGeneratorTest, WideHullIsRejectedByCountGuard) {
  Module M;
  Function *Task = buildSparseKernel(M);
  AccessPhaseResult R = generateAccessPhase(M, *Task, optsWithArgs({16}));

  ASSERT_TRUE(R.succeeded()) << R.Notes;
  EXPECT_EQ(R.Strategy, analysis::TaskClass::Affine);
  // Column (16) + diagonal (16) - shared corner (1) = 31 accessed points;
  // the hull (a triangle) would cover far more, so the guard rejects it and
  // the generator scans the two shapes individually.
  EXPECT_FALSE(R.UsedConvexUnion);
  EXPECT_EQ(R.NOrig, 31);
  EXPECT_EQ(R.NConvUn, 32); // Column scan + diagonal scan, counted apart.
}

TEST(AffineGeneratorTest, HullSlackThresholdAcceptsWiderHulls) {
  Module M;
  Function *Task = buildSparseKernel(M);
  DaeOptions Opts = optsWithArgs({16});
  Opts.HullSlackThreshold = 1000; // Effectively disable the guard.
  AccessPhaseResult R = generateAccessPhase(M, *Task, Opts);
  ASSERT_TRUE(R.succeeded()) << R.Notes;
  EXPECT_TRUE(R.UsedConvexUnion);
  EXPECT_GT(R.NConvUn, R.NOrig); // The triangle over-prefetches.
}

TEST(AffineGeneratorTest, MemoryRangeModeOverPrefetchesBlocks) {
  // Figure 1(b): for a block inside a row-major array, the 1-D memory range
  // covers full rows between the first and last touched element, while the
  // convex union covers exactly the block.
  Module Ma, Mb;
  Function *TaskA = buildBlockCopy(Ma);
  Function *TaskB = buildBlockCopy(Mb);

  DaeOptions Convex = optsWithArgs({8});
  DaeOptions Range = optsWithArgs({8});
  Range.UseConvexUnion = false;

  AccessPhaseResult RC = generateAccessPhase(Ma, *TaskA, Convex);
  AccessPhaseResult RR = generateAccessPhase(Mb, *TaskB, Range);
  ASSERT_TRUE(RC.succeeded()) << RC.Notes;
  ASSERT_TRUE(RR.succeeded()) << RR.Notes;

  // Convex union: exactly the two 8x8 blocks.
  EXPECT_EQ(RC.NConvUn, 2 * 64);
  // Range analysis: rows 0..7 of a 64-wide array, per array:
  // 7*64 + 8 = 456 elements each.
  EXPECT_EQ(RR.NConvUn, 2 * (7 * 64 + 8));
  EXPECT_GT(RR.NConvUn, RC.NConvUn);
}

TEST(AffineGeneratorTest, CacheLineStrideReducesPrefetchCount) {
  Module M;
  Function *Task = buildBlockCopy(M);
  DaeOptions Opts = optsWithArgs({8});
  Opts.PrefetchPerCacheLine = true; // 64-byte lines: 8 doubles per line.
  AccessPhaseResult R = generateAccessPhase(M, *Task, Opts);
  ASSERT_TRUE(R.succeeded()) << R.Notes;
  // The innermost loop must advance by 8 elements: find a loop whose step
  // constant is 8.
  pm::FunctionAnalysisManager FAM;
  const analysis::LoopInfo &LI = FAM.getResult<pm::LoopAnalysis>(*R.AccessFn);
  bool FoundStride8 = false;
  for (const auto &L : LI.loops())
    if (L->isCanonical() && L->getStep() == 8)
      FoundStride8 = true;
  EXPECT_TRUE(FoundStride8) << printFunction(*R.AccessFn);
}

TEST(AffineGeneratorTest, AccessPhaseSharesTaskSignature) {
  Module M;
  Function *Task = buildLuWholeMatrix(M);
  AccessPhaseResult R = generateAccessPhase(M, *Task, optsWithArgs({16}));
  ASSERT_TRUE(R.succeeded());
  ASSERT_EQ(R.AccessFn->getNumArgs(), Task->getNumArgs());
  for (unsigned I = 0; I != Task->getNumArgs(); ++I)
    EXPECT_EQ(R.AccessFn->getArg(I)->getType(), Task->getArg(I)->getType());
  EXPECT_EQ(R.AccessFn->getName(), "lu.access");
  EXPECT_EQ(M.getFunction("lu.access"), R.AccessFn);
}

} // namespace
