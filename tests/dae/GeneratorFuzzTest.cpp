//===- tests/dae/GeneratorFuzzTest.cpp - Randomized generator testing -------===//
//
// Part of daecc. Distributed under the MIT license.
//
// Randomized compiler testing of the access-phase generators: for seeded
// random kernels (affine 2-D loop nests and non-affine strided/indirect
// loops), check the paper's core contract on every one:
//   (1) generation succeeds and verifies,
//   (2) running access+execute produces bit-identical results to execute
//       alone (the access phase is a pure prefetch),
//   (3) for accepted affine hulls, NOrig <= NConvUn and the prefetched set
//       covers the loads (execute-phase DRAM misses drop to zero when the
//       task working set fits the private hierarchy),
//   (4) the AccessPhaseAudit proves every generated phase prefetch-pure
//       (the static half of the verify/ oracle over the whole corpus).
//
//===----------------------------------------------------------------------===//

#include "dae/AccessGenerator.h"

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "pm/AnalysisManager.h"
#include "sim/Interpreter.h"
#include "support/Casting.h"
#include "support/MathUtil.h"
#include "verify/AccessPhaseAudit.h"

#include <gtest/gtest.h>

using namespace dae;
using namespace dae::ir;

namespace {

constexpr std::int64_t Dim = 64, Elem = 8;

/// Builds a random affine kernel:
///   for i in [0, N): for j in [lo(i), hi(i)):
///     A[a1*i + b1*j + c1][a2*i + b2*j + c2] op= B[...] (all indices kept
///     inside the Dim x Dim arrays by construction).
Function *buildRandomAffine(Module &M, SplitMixRng &Rng, unsigned Id) {
  auto *A = M.getGlobal("A");
  auto *Bg = M.getGlobal("B");
  Function *F = M.createFunction("fuzz" + std::to_string(Id), Type::Void,
                                 {Type::Int64});
  F->setTask(true);
  Value *N = F->getArg(0);
  IRBuilder B(M, F->createBlock("entry"));

  // Small coefficients in {0, 1, 2} and offsets in [0, 8) keep every access
  // within a 64x64 array for N <= 16.
  auto Coef = [&]() { return static_cast<std::int64_t>(Rng.nextBelow(3)); };
  auto Off = [&]() { return static_cast<std::int64_t>(Rng.nextBelow(8)); };
  std::int64_t A1 = Coef(), B1 = Coef(), C1 = Off();
  std::int64_t A2 = Coef(), B2 = Coef(), C2 = Off();
  std::int64_t D1 = Coef(), E1 = Coef(), G1 = Off();
  bool Triangular = Rng.nextBelow(2) == 0;

  auto Lin = [&](IRBuilder &B, Value *I, Value *J, std::int64_t CI,
                 std::int64_t CJ, std::int64_t K) -> Value * {
    Value *Acc = B.getInt(K);
    if (CI)
      Acc = B.createAdd(Acc, CI == 1 ? I : B.createMul(I, B.getInt(CI)));
    if (CJ)
      Acc = B.createAdd(Acc, CJ == 1 ? J : B.createMul(J, B.getInt(CJ)));
    return Acc;
  };

  emitCountedLoop(B, B.getInt(0), N, B.getInt(1), "i", [&](IRBuilder &B,
                                                           Value *I) {
    Value *Lo = Triangular ? I : B.getInt(0);
    emitCountedLoop(B, Lo, N, B.getInt(1), "j", [&](IRBuilder &B, Value *J) {
      Value *SrcPtr = B.createGep2D(Bg, Lin(B, I, J, D1, E1, G1),
                                    Lin(B, I, J, B1, A1, C2), Dim, Elem);
      Value *DstPtr = B.createGep2D(A, Lin(B, I, J, A1, B1, C1),
                                    Lin(B, I, J, A2, B2, C2), Dim, Elem);
      Value *V = B.createFAdd(B.createLoad(Type::Float64, SrcPtr),
                              B.createLoad(Type::Float64, DstPtr));
      B.createStore(V, DstPtr);
    });
  });
  B.createRet();
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  return F;
}

/// Builds a random non-affine kernel: strided/modular access with an
/// optional data-dependent conditional.
Function *buildRandomSkeletonKernel(Module &M, SplitMixRng &Rng,
                                    unsigned Id) {
  auto *A = M.getGlobal("A");
  auto *Bg = M.getGlobal("B");
  Function *F = M.createFunction("sfuzz" + std::to_string(Id), Type::Void,
                                 {Type::Int64});
  F->setTask(true);
  Value *N = F->getArg(0);
  IRBuilder B(M, F->createBlock("entry"));
  std::int64_t Mod = 3 + static_cast<std::int64_t>(Rng.nextBelow(61));
  bool WithBranch = Rng.nextBelow(2) == 0;

  emitCountedLoop(B, B.getInt(0), N, B.getInt(1), "i", [&](IRBuilder &B,
                                                           Value *I) {
    Value *Idx = B.createSRem(B.createMul(I, B.getInt(7)), B.getInt(Mod));
    Value *SrcPtr = B.createGep1D(Bg, Idx, Elem);
    Value *V = B.createLoad(Type::Float64, SrcPtr);
    if (WithBranch) {
      Function *Fn = B.getInsertBlock()->getParent();
      Value *Cond = B.createCmp(CmpPred::FGT, V, B.getFloat(0.5));
      BasicBlock *Then = Fn->createBlock("then");
      BasicBlock *Join = Fn->createBlock("join");
      B.createCondBr(Cond, Then, Join);
      B.setInsertBlock(Then);
      B.createStore(B.createFMul(V, B.getFloat(2.0)),
                    B.createGep1D(A, Idx, Elem));
      B.createBr(Join);
      B.setInsertBlock(Join);
    } else {
      B.createStore(V, B.createGep1D(A, Idx, Elem));
    }
  });
  B.createRet();
  EXPECT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);
  return F;
}

/// Runs (optionally access then) execute in the interpreter over freshly
/// seeded memory and returns the bytes of array A.
std::vector<std::int64_t> runAndSnapshot(Module &M, Function *Access,
                                         Function *Exec, std::int64_t N) {
  sim::MachineConfig Cfg;
  sim::Loader L(M);
  sim::Memory Mem;
  SplitMixRng Data(0xDA7A);
  for (std::int64_t I = 0; I != Dim * Dim; ++I) {
    Mem.storeF64(L.baseOf("A") + static_cast<std::uint64_t>(I) * 8,
                 Data.nextDouble());
    Mem.storeF64(L.baseOf("B") + static_cast<std::uint64_t>(I) * 8,
                 Data.nextDouble());
  }
  sim::Interpreter Interp(Cfg, Mem, L);
  sim::AccessTrace Trace;
  std::vector<sim::RuntimeValue> Args{sim::RuntimeValue::ofInt(N)};
  if (Access)
    Interp.runTraced(*Access, Args, Trace);
  Interp.runTraced(*Exec, Args, Trace);
  std::vector<std::int64_t> Out;
  for (std::int64_t I = 0; I != Dim * Dim; ++I)
    Out.push_back(
        Mem.loadI64(L.baseOf("A") + static_cast<std::uint64_t>(I) * 8));
  return Out;
}

class AffineFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(AffineFuzz, GeneratedPhasePreservesSemantics) {
  SplitMixRng Rng(GetParam() * 7919 + 13);
  Module M;
  M.createGlobal("A", Dim * Dim * Elem);
  M.createGlobal("B", Dim * Dim * Elem);
  Function *Task = buildRandomAffine(M, Rng, GetParam());

  DaeOptions Opts;
  Opts.RepresentativeArgs = {12};
  AccessPhaseResult R = generateAccessPhase(M, *Task, Opts);
  ASSERT_TRUE(R.succeeded()) << R.Notes << "\n" << printFunction(*Task);
  EXPECT_TRUE(verifyFunction(*R.AccessFn).empty())
      << printFunction(*R.AccessFn);

  pm::FunctionAnalysisManager FAM;
  verify::AuditReport Audit = verify::auditAccessPhase(*R.AccessFn, FAM);
  EXPECT_TRUE(Audit.pure()) << Audit.str() << "\n"
                            << printFunction(*R.AccessFn);

  if (R.Strategy == analysis::TaskClass::Affine && R.NOrig >= 0 &&
      R.UsedConvexUnion) {
    EXPECT_LE(R.NOrig, R.NConvUn) << R.Notes;
  }

  auto Plain = runAndSnapshot(M, nullptr, Task, 12);
  auto Decoupled = runAndSnapshot(M, R.AccessFn, Task, 12);
  EXPECT_EQ(Plain, Decoupled) << "access phase changed results for\n"
                              << printFunction(*Task);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AffineFuzz, ::testing::Range(0u, 24u));

class SkeletonFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(SkeletonFuzz, GeneratedPhasePreservesSemantics) {
  SplitMixRng Rng(GetParam() * 104729 + 7);
  Module M;
  M.createGlobal("A", Dim * Dim * Elem);
  M.createGlobal("B", Dim * Dim * Elem);
  Function *Task = buildRandomSkeletonKernel(M, Rng, GetParam());

  DaeOptions Opts;
  AccessPhaseResult R = generateAccessPhase(M, *Task, Opts);
  ASSERT_TRUE(R.succeeded()) << R.Notes << "\n" << printFunction(*Task);
  EXPECT_TRUE(verifyFunction(*R.AccessFn).empty())
      << printFunction(*R.AccessFn);

  pm::FunctionAnalysisManager FAM;
  verify::AuditReport Audit = verify::auditAccessPhase(*R.AccessFn, FAM);
  EXPECT_TRUE(Audit.pure()) << Audit.str() << "\n"
                            << printFunction(*R.AccessFn);

  auto Plain = runAndSnapshot(M, nullptr, Task, 300);
  auto Decoupled = runAndSnapshot(M, R.AccessFn, Task, 300);
  EXPECT_EQ(Plain, Decoupled) << "access phase changed results for\n"
                              << printFunction(*Task);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SkeletonFuzz, ::testing::Range(0u, 24u));

} // namespace
