//===- tests/sim/MemoryBackendTest.cpp - Memory across backends -----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The memory half of the execution backends: address arithmetic, int and FP
// loads and stores, and accesses on both sides of a call into another
// function (the native backend's helper boundary).
//
// BackendMemoryFuzz runs 32 seeded kernels. Each has 2-5 globals of 8 B to
// 3 pages, one or two nested counted loops, int and FP loads and stores at
// affine offsets and at indirect offsets (a loaded value reduced into range
// with SRem), prefetches, and one call into a callee that also loads and
// stores. Every address lies inside a global by construction. The loop body
// also holds one data-dependent if/else: a loaded int compared against
// another value picks an arm, one arm divides with SDiv by an odd int and
// the other with FDiv by 1 + x*x (neither divisor can be zero), and int and
// FP phis join the arms. So every cost class (simple ops, FP ops, divides,
// the call's two units, free phis) and a counter flush at a join run in
// every kernel. Each kernel runs under the switch, threaded and native
// backends; traces, PhaseStats, return values and memory images must equal
// the switch interpreter's.
//
// BackendKernelTest runs hand-built kernels the generator cannot reach
// through the same comparison: a loop whose header phis form swap cycles
// (built as a self-loop, whose back edge is critical, and with a separate
// latch); SDiv/SRem by 0, INT64_MIN by -1 and operands of mixed sign; GEPs
// whose byte offsets wrap past 2^64; and the shapes the bytecode leaves to
// its generic forms (constant operands of compares, shifts and FP ops,
// compare-and-branch pairs, loads feeding FAdd and Add, one-index GEPs with
// a constant index or a 24-byte element). The first three also check their
// results against values computed on the host. One more prices a kernel
// with one instruction of every cost class against its hand count.
//
// MemoryArenaTest and MemoryArenaDeathTest pin the arena's edges under every
// backend: an 8-byte access that straddles a 4 KiB boundary inside a global
// is an ordinary access, a load or store outside the footprint aborts with
// the address and the footprint, and a prefetch is never checked.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "runtime/Replay.h"
#include "sim/Interpreter.h"
#include "sim/Memory.h"
#include "support/MathUtil.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

namespace {

/// What one run leaves behind; every field must match across backends.
struct Outcome {
  RuntimeValue Ret;
  PhaseStats Stats;
  std::vector<std::uint64_t> Events;
  std::uint64_t Hash = 0;
};

void expectSameOutcome(const Outcome &Ref, const Outcome &Got,
                       const std::string &What) {
  EXPECT_EQ(Ref.Ret.I, Got.Ret.I) << What;
  EXPECT_EQ(Ref.Events, Got.Events) << What;
  EXPECT_EQ(Ref.Hash, Got.Hash) << What;
  EXPECT_EQ(Ref.Stats.Instructions, Got.Stats.Instructions) << What;
  EXPECT_EQ(Ref.Stats.ComputeCycles, Got.Stats.ComputeCycles) << What;
  EXPECT_EQ(Ref.Stats.StallNs, Got.Stats.StallNs) << What;
  EXPECT_EQ(Ref.Stats.Loads, Got.Stats.Loads) << What;
  EXPECT_EQ(Ref.Stats.Stores, Got.Stats.Stores) << What;
  EXPECT_EQ(Ref.Stats.Prefetches, Got.Stats.Prefetches) << What;
  EXPECT_EQ(Ref.Stats.L1Hits, Got.Stats.L1Hits) << What;
  EXPECT_EQ(Ref.Stats.L2Hits, Got.Stats.L2Hits) << What;
  EXPECT_EQ(Ref.Stats.LLCHits, Got.Stats.LLCHits) << What;
  EXPECT_EQ(Ref.Stats.MemAccesses, Got.Stats.MemAccesses) << What;
}

/// Runs \p F once under \p Backend over memory prepared by \p Init, replays
/// the trace through a fresh one-core hierarchy, and records the outcome.
template <typename InitFn>
Outcome runUnder(SimBackend Backend, const Module &M, const Function &F,
                 const std::vector<RuntimeValue> &Args, InitFn Init) {
  MachineConfig Cfg;
  Cfg.Backend = Backend;
  Loader L(M);
  Memory Mem;
  Init(Mem, L);
  Interpreter Interp(Cfg, Mem, L);
  Interp.program().lookup(F);
  AccessTrace Trace;
  Outcome O;
  O.Stats = Interp.runTraced(F, Args, Trace, &O.Ret);
  CacheHierarchy Caches(Cfg, 1);
  runtime::replayTrace(Trace, Caches, 0, runtime::ReplayCostModel(Cfg),
                       O.Stats);
  O.Events = Trace.events();
  O.Hash = Mem.imageHash();
  return O;
}

/// Runs \p F under every backend and compares each with the switch
/// interpreter.
template <typename InitFn>
void expectBackendsAgree(const Module &M, const Function &F,
                         const std::vector<RuntimeValue> &Args, InitFn Init,
                         const std::string &What) {
  const Outcome Ref = runUnder(SimBackend::Switch, M, F, Args, Init);
  expectSameOutcome(Ref, runUnder(SimBackend::Threaded, M, F, Args, Init),
                    What + ", threaded");
  if (simBackendBuilt(SimBackend::Native))
    expectSameOutcome(Ref, runUnder(SimBackend::Native, M, F, Args, Init),
                      What + ", native");
}

//===----------------------------------------------------------------------===//
// Kernel generator
//===----------------------------------------------------------------------===//

/// One loop level in scope: its induction variable and trip count.
struct LoopLevel {
  Value *IV;
  std::int64_t Trip;
};

/// A seeded random kernel over 8-byte elements, with its arguments and its
/// deterministic memory initialization.
class FuzzKernel {
public:
  explicit FuzzKernel(unsigned Seed)
      : Seed(Seed), Rng(Seed * 6364136223u + 1) {
    const unsigned NumGlobals = 2 + static_cast<unsigned>(below(4));
    for (unsigned G = 0; G != NumGlobals; ++G) {
      // 8 B to 3 pages, biased towards the small and the page-sized.
      static const std::int64_t Shapes[] = {1, 3, 8, 64, 500, 512, 513, 1536};
      std::int64_t N = Shapes[below(8)];
      if (below(2))
        N = 1 + below(1536);
      Elems.push_back(N);
      char Name[16];
      std::snprintf(Name, sizeof(Name), "g%u", G);
      Globals.push_back(
          M.createGlobal(Name, static_cast<std::uint64_t>(N) * 8));
    }
    N1 = 1 + below(12);
    N2 = 1 + below(8);
    buildCallee();
    buildEntry();
  }

  Module M;
  Function *Entry = nullptr;
  Function *Callee = nullptr;
  std::int64_t N1 = 0, N2 = 0;

  std::vector<RuntimeValue> args() const {
    return {RuntimeValue::ofInt(N1), RuntimeValue::ofInt(N2)};
  }

  /// Fills every global with a seeded mix of ints (small and full-width)
  /// and doubles.
  void init(Memory &Mem, const Loader &L) const {
    SplitMixRng Data(Seed + 0xDA7A);
    for (std::size_t G = 0; G != Globals.size(); ++G) {
      const std::uint64_t Base = L.baseOf(Globals[G]);
      for (std::int64_t E = 0; E != Elems[G]; ++E) {
        const std::uint64_t Addr = Base + static_cast<std::uint64_t>(E) * 8;
        switch (Data.nextBelow(3)) {
        case 0:
          Mem.storeI64(Addr,
                       static_cast<std::int64_t>(Data.nextBelow(2001)) - 1000);
          break;
        case 1:
          Mem.storeI64(Addr, static_cast<std::int64_t>(Data.next()));
          break;
        default:
          Mem.storeF64(Addr, Data.nextDouble() * 100.0 - 50.0);
          break;
        }
      }
    }
  }

private:
  unsigned Seed;
  SplitMixRng Rng;
  std::vector<GlobalVariable *> Globals;
  std::vector<std::int64_t> Elems;
  std::vector<Value *> Ints, Floats;

  std::int64_t below(std::int64_t N) {
    return static_cast<std::int64_t>(
        Rng.nextBelow(static_cast<std::uint64_t>(N)));
  }
  std::size_t pickGlobal() { return Rng.nextBelow(Globals.size()); }
  Value *pickInt() { return Ints[Rng.nextBelow(Ints.size())]; }
  Value *pickFloat() { return Floats[Rng.nextBelow(Floats.size())]; }

  /// c0 + sum(c_k * iv_k) with every value in [0, Extent) over the loop
  /// levels' iteration spaces.
  Value *affine(IRBuilder &B, std::int64_t Extent,
                const std::vector<LoopLevel> &Levels) {
    std::int64_t Room = Extent - 1;
    Value *Idx = nullptr;
    for (const LoopLevel &Lv : Levels) {
      if (Lv.Trip < 2)
        continue;
      const std::int64_t C = below(Room / (Lv.Trip - 1) + 1);
      Room -= C * (Lv.Trip - 1);
      if (C == 0)
        continue;
      Value *Term = C == 1 ? Lv.IV : B.createMul(Lv.IV, B.getInt(C));
      Idx = Idx ? B.createAdd(Idx, Term) : Term;
    }
    Value *C0 = B.getInt(below(Room + 1));
    return Idx ? B.createAdd(Idx, C0) : C0;
  }

  /// ((V srem E) + E) srem E: any loaded int reduced into [0, E).
  Value *reduce(IRBuilder &B, Value *V, std::int64_t E) {
    Value *Ext = B.getInt(E);
    return B.createSRem(B.createAdd(B.createSRem(V, Ext), Ext), Ext);
  }

  /// An in-bounds address into global \p G: 1-D or 2-D affine, or indirect
  /// through a loaded index.
  Value *address(IRBuilder &B, std::size_t G,
                 const std::vector<LoopLevel> &Levels) {
    const std::int64_t E = Elems[G];
    switch (below(4)) {
    case 0: { // Row-major [E / Cols][Cols] view.
      const std::int64_t Cols = 1 + below(E < 64 ? E : 64);
      Value *Row = affine(B, E / Cols, Levels);
      Value *Col = affine(B, Cols, Levels);
      return B.createGep2D(Globals[G], Row, Col, Cols, 8);
    }
    case 1: { // Indirect: an index loaded from another global.
      const std::size_t From = pickGlobal();
      Value *Src = B.createGep1D(Globals[From],
                                 affine(B, Elems[From], Levels), 8);
      Value *Loaded = B.createLoad(Type::Int64, Src);
      return B.createGep1D(Globals[G], reduce(B, Loaded, E), 8);
    }
    default:
      return B.createGep1D(Globals[G], affine(B, E, Levels), 8);
    }
  }

  /// One random memory statement at the current insertion point.
  void statement(IRBuilder &B, const std::vector<LoopLevel> &Levels) {
    const std::size_t G = pickGlobal();
    switch (below(6)) {
    case 0:
      Ints.push_back(B.createLoad(Type::Int64, address(B, G, Levels)));
      break;
    case 1:
      Floats.push_back(B.createLoad(Type::Float64, address(B, G, Levels)));
      break;
    case 2: {
      Value *V = B.createAdd(pickInt(), B.getInt(below(100)));
      Ints.push_back(V);
      B.createStore(V, address(B, G, Levels));
      break;
    }
    case 3: {
      Value *V = below(2) ? B.createFAdd(pickFloat(), pickFloat())
                          : B.createFMul(pickFloat(), B.getFloat(0.5));
      Floats.push_back(V);
      B.createStore(V, address(B, G, Levels));
      break;
    }
    case 4: { // Load feeding FP arithmetic directly (fused load-op forms).
      Value *L = B.createLoad(Type::Float64, address(B, G, Levels));
      Floats.push_back(below(2) ? B.createFSub(L, pickFloat())
                                : B.createFMul(L, pickFloat()));
      break;
    }
    default:
      B.createPrefetch(address(B, G, Levels));
      break;
    }
  }

  /// callee(a, x): an indirect int load and store through `a` and an FP
  /// load and store, returning a mix of both ints.
  void buildCallee() {
    Callee = M.createFunction("callee", Type::Int64,
                              {Type::Int64, Type::Float64});
    IRBuilder B(M, Callee->createBlock("entry"));
    Value *A = Callee->getArg(0);
    const std::size_t G1 = pickGlobal(), G2 = pickGlobal(), G3 = pickGlobal();
    Value *V = B.createLoad(
        Type::Int64,
        B.createGep1D(Globals[G1], reduce(B, A, Elems[G1]), 8));
    Value *FSlot =
        B.createGep1D(Globals[G2], B.getInt(below(Elems[G2])), 8);
    Value *F = B.createLoad(Type::Float64, FSlot);
    B.createStore(B.createFAdd(F, Callee->getArg(1)), FSlot);
    B.createStore(B.createAdd(V, A),
                  B.createGep1D(Globals[G3], reduce(B, V, Elems[G3]), 8));
    B.createRet(B.createXor(V, A));
  }

  /// A data-dependent if/else diamond: a loaded int compared against a value
  /// or a small constant branches to one of two arms, each one statement
  /// plus a division whose divisor cannot be zero (SDiv by x | 1, FDiv by
  /// 1 + x * x), then an int phi and an FP phi join the arms. The compare
  /// takes every fused compare-and-branch shape and the generic one.
  void diamond(IRBuilder &B, const std::vector<LoopLevel> &Levels) {
    Function *F = B.getInsertBlock()->getParent();
    BasicBlock *Then = F->createBlock("then");
    BasicBlock *Else = F->createBlock("else");
    BasicBlock *Join = F->createBlock("join");
    Value *Loaded =
        B.createLoad(Type::Int64, address(B, pickGlobal(), Levels));
    static const CmpPred Preds[] = {CmpPred::SLT, CmpPred::EQ, CmpPred::NE,
                                    CmpPred::SGT};
    Value *Rhs = below(2) ? pickInt() : B.getInt(below(7) - 3);
    B.createCondBr(B.createCmp(Preds[below(4)], Loaded, Rhs), Then, Else);
    // Values defined in one arm do not dominate the other or the join.
    const std::size_t IntsBefore = Ints.size(), FloatsBefore = Floats.size();

    B.setInsertBlock(Then);
    statement(B, Levels);
    Value *Quot = B.createSDiv(
        pickInt(), B.createBinOp(BinOp::Or, pickInt(), B.getInt(1)));
    Value *ThenF = pickFloat();
    B.createBr(Join);
    Ints.resize(IntsBefore);
    Floats.resize(FloatsBefore);

    B.setInsertBlock(Else);
    statement(B, Levels);
    Value *X = pickFloat();
    Value *Ratio = B.createFDiv(
        pickFloat(), B.createFAdd(B.createFMul(X, X), B.getFloat(1.0)));
    Value *ElseI = below(2) ? pickInt() : B.getInt(below(100));
    B.createBr(Join);
    Ints.resize(IntsBefore);
    Floats.resize(FloatsBefore);

    B.setInsertBlock(Join);
    PhiInst *JoinI = B.createPhi(Type::Int64);
    JoinI->addIncoming(Quot, Then);
    JoinI->addIncoming(ElseI, Else);
    PhiInst *JoinF = B.createPhi(Type::Float64);
    JoinF->addIncoming(ThenF, Then);
    JoinF->addIncoming(Ratio, Else);
    Ints.push_back(JoinI);
    Floats.push_back(JoinF);
  }

  /// The innermost loop body: 3-7 statements with the call and the diamond
  /// among them.
  void body(IRBuilder &B, const std::vector<LoopLevel> &Levels) {
    const std::size_t IntsBefore = Ints.size(), FloatsBefore = Floats.size();
    Ints.push_back(Levels.back().IV);
    Floats.push_back(B.createCast(CastOp::SIToFP, Levels.back().IV));
    const std::int64_t N = 3 + below(5);
    const std::int64_t CallAt = below(N + 1), DiamondAt = below(N + 1);
    for (std::int64_t S = 0; S <= N; ++S) {
      if (S == CallAt)
        Ints.push_back(B.createCall(Callee, {pickInt(), pickFloat()}));
      if (S == DiamondAt)
        diamond(B, Levels);
      if (S != N)
        statement(B, Levels);
    }
    // Values defined in this body do not dominate the code after the loop.
    Ints.resize(IntsBefore);
    Floats.resize(FloatsBefore);
  }

  void buildEntry() {
    Entry = M.createFunction("kernel", Type::Int64, {Type::Int64, Type::Int64});
    IRBuilder B(M, Entry->createBlock("entry"));
    Ints = {B.getInt(7)};
    Floats = {B.getFloat(1.25)};
    const bool Nested = below(2);
    emitCountedLoop(
        B, B.getInt(0), Entry->getArg(0), B.getInt(1), "i",
        [&](IRBuilder &B, Value *I) {
          std::vector<LoopLevel> Levels{{I, N1}};
          if (!Nested) {
            body(B, Levels);
            return;
          }
          // A statement or two in the outer body, then the inner loop.
          const std::size_t IntsBefore = Ints.size(),
                            FloatsBefore = Floats.size();
          Ints.push_back(I);
          for (std::int64_t S = below(3); S > 0; --S)
            statement(B, Levels);
          emitCountedLoop(B, B.getInt(0), Entry->getArg(1), B.getInt(1),
                          "j", [&](IRBuilder &B, Value *J) {
                            Levels.push_back({J, N2});
                            body(B, Levels);
                          });
          Ints.resize(IntsBefore);
          Floats.resize(FloatsBefore);
        });
    const std::size_t G = pickGlobal();
    Value *Last = B.createLoad(
        Type::Int64, B.createGep1D(Globals[G], B.getInt(below(Elems[G])), 8));
    B.createRet(B.createXor(Last, B.getInt(0x5a5a)));
  }
};

class BackendMemoryFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(BackendMemoryFuzz, KernelMatchesSwitch) {
  FuzzKernel K(GetParam());
  ASSERT_TRUE(verifyFunction(*K.Callee).empty()) << printFunction(*K.Callee);
  ASSERT_TRUE(verifyFunction(*K.Entry).empty()) << printFunction(*K.Entry);
  // The body's diamond divides once each way in every kernel.
  unsigned SDivs = 0, FDivs = 0;
  for (const auto &BB : *K.Entry)
    for (const auto &I : *BB)
      if (const auto *Bin = dyn_cast<BinaryInst>(I.get())) {
        SDivs += Bin->getOpcode() == BinOp::SDiv;
        FDivs += Bin->getOpcode() == BinOp::FDiv;
      }
  EXPECT_EQ(SDivs, 1u);
  EXPECT_EQ(FDivs, 1u);
  expectBackendsAgree(
      K.M, *K.Entry, K.args(),
      [&K](Memory &Mem, const Loader &L) { K.init(Mem, L); },
      "kernel " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendMemoryFuzz, ::testing::Range(0u, 32u));

//===----------------------------------------------------------------------===//
// Hand-built kernels
//===----------------------------------------------------------------------===//

/// The phi kernel's state, stepped on the host: the int 3-cycle
/// (a, b, c) <- (c, a, b), the FP swap (x, y) <- (y, x), p <- a reading
/// another phi's old value, and the accumulators s <- 10 s + p, z <- z + x.
struct PhiState {
  std::int64_t A = 1, B = 2, C = 3, P = 0, S = 0;
  double X = 0.5, Y = 1.5, Z = 0.0;

  void step() { *this = {C, A, B, A, S * 10 + P, Y, X, Z + X}; }
};

/// phi(n) runs PhiState::step n >= 1 times, every state variable a header
/// phi, then stores the state to Out (a, b, c, p, s, x, y, z) and returns
/// s. With \p SelfLoop the loop is one block that branches to itself or
/// exits, so its back edge is critical and its phi copies need a
/// trampoline; otherwise the header tests and a separate latch steps.
Function *buildPhiKernel(Module &M, GlobalVariable *Out, bool SelfLoop) {
  Function *F = M.createFunction("phi", Type::Int64, {Type::Int64});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Header = F->createBlock("header");
  BasicBlock *Latch = SelfLoop ? Header : F->createBlock("latch");
  BasicBlock *Exit = F->createBlock("exit");
  IRBuilder B(M, Entry);
  B.createBr(Header);

  B.setInsertBlock(Header);
  auto Phi = [&](Type Ty, Value *Init) {
    PhiInst *P = B.createPhi(Ty);
    P->addIncoming(Init, Entry);
    return P;
  };
  const PhiState Init;
  PhiInst *I = Phi(Type::Int64, B.getInt(0));
  PhiInst *A = Phi(Type::Int64, B.getInt(Init.A));
  PhiInst *Bv = Phi(Type::Int64, B.getInt(Init.B));
  PhiInst *C = Phi(Type::Int64, B.getInt(Init.C));
  PhiInst *P = Phi(Type::Int64, B.getInt(Init.P));
  PhiInst *S = Phi(Type::Int64, B.getInt(Init.S));
  PhiInst *X = Phi(Type::Float64, B.getFloat(Init.X));
  PhiInst *Y = Phi(Type::Float64, B.getFloat(Init.Y));
  PhiInst *Z = Phi(Type::Float64, B.getFloat(Init.Z));
  if (!SelfLoop) {
    B.createCondBr(B.createCmp(CmpPred::SLT, I, F->getArg(0)), Latch, Exit);
    B.setInsertBlock(Latch);
  }
  Value *I1 = B.createAdd(I, B.getInt(1));
  Value *S1 = B.createAdd(B.createMul(S, B.getInt(10)), P);
  Value *Z1 = B.createFAdd(Z, X);
  const std::vector<std::pair<PhiInst *, Value *>> Next = {
      {I, I1}, {A, C}, {Bv, A}, {C, Bv}, {P, A},
      {S, S1}, {X, Y}, {Y, X},  {Z, Z1}};
  for (const auto &[H, V] : Next)
    H->addIncoming(V, Latch);
  if (SelfLoop)
    B.createCondBr(B.createCmp(CmpPred::SLT, I1, F->getArg(0)), Header, Exit);
  else
    B.createBr(Header);

  // The state after n steps: the header phis after the latch, the back
  // edge's values in the self-loop (its exit edge skips their copies).
  B.setInsertBlock(Exit);
  std::int64_t Slot = 0;
  for (const auto &[H, V] : Next)
    if (H != I)
      B.createStore(SelfLoop ? V : H,
                    B.createGep1D(Out, B.getInt(Slot++), 8));
  B.createRet(SelfLoop ? S1 : S);
  return F;
}

TEST(BackendKernelTest, PhiSwapCyclesMatchHost) {
  for (bool SelfLoop : {true, false})
    for (std::int64_t N : {1, 5}) {
      const std::string What =
          std::string(SelfLoop ? "self-loop" : "latch") + ", n=" +
          std::to_string(N);
      Module M;
      GlobalVariable *Out = M.createGlobal("Out", 8 * 8);
      Function *F = buildPhiKernel(M, Out, SelfLoop);
      ASSERT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);

      PhiState Want;
      for (std::int64_t K = 0; K != N; ++K)
        Want.step();
      const std::uint64_t Base = Loader(M).baseOf(Out);
      Memory Expected;
      std::uint64_t Addr = Base;
      for (std::int64_t V : {Want.A, Want.B, Want.C, Want.P, Want.S}) {
        Expected.storeI64(Addr, V);
        Addr += 8;
      }
      for (double V : {Want.X, Want.Y, Want.Z}) {
        Expected.storeF64(Addr, V);
        Addr += 8;
      }

      const std::vector<RuntimeValue> Args{RuntimeValue::ofInt(N)};
      auto NoInit = [](Memory &, const Loader &) {};
      const Outcome Ref = runUnder(SimBackend::Switch, M, *F, Args, NoInit);
      EXPECT_EQ(Ref.Ret.I, Want.S) << What;
      EXPECT_EQ(Ref.Hash, Expected.imageHash()) << What;
      expectBackendsAgree(M, *F, Args, NoInit, What);
    }
}

/// One SDiv/SRem operand pair with its quotient and remainder.
struct DivCase {
  std::int64_t L, R, Quot, Rem;
};

constexpr std::int64_t Min = INT64_MIN, Max = INT64_MAX;
constexpr DivCase DivCases[] = {
    {7, 0, 0, 0},       {-7, 0, 0, 0},        {Min, 0, 0, 0},
    {Min, -1, Min, 0},  {Max, -1, -Max, 0},   {7, -1, -7, 0},
    {7, 2, 3, 1},       {-7, 2, -3, -1},      {7, -2, -3, 1},
    {-7, -2, 3, -1},    {Min, 2, Min / 2, 0}, {Min, Min, 1, 0},
    {-1, Min, 0, -1},   {Max, Min, 0, Max}};

/// div(n): for k < n, Out[2k] = In[2k] sdiv In[2k+1] and Out[2k+1] =
/// In[2k] srem In[2k+1]. The operands are loaded, so no lowering sees a
/// constant divisor.
Function *buildDivKernel(Module &M, GlobalVariable *In, GlobalVariable *Out) {
  Function *F = M.createFunction("div", Type::Int64, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  emitCountedLoop(B, B.getInt(0), F->getArg(0), B.getInt(1), "k",
                  [&](IRBuilder &B, Value *K) {
                    Value *LIdx = B.createMul(K, B.getInt(2));
                    Value *RIdx = B.createAdd(LIdx, B.getInt(1));
                    Value *L =
                        B.createLoad(Type::Int64, B.createGep1D(In, LIdx, 8));
                    Value *R =
                        B.createLoad(Type::Int64, B.createGep1D(In, RIdx, 8));
                    B.createStore(B.createSDiv(L, R),
                                  B.createGep1D(Out, LIdx, 8));
                    B.createStore(B.createSRem(L, R),
                                  B.createGep1D(Out, RIdx, 8));
                  });
  B.createRet(B.getInt(0));
  return F;
}

TEST(BackendKernelTest, DivisionEdgeCasesMatchHost) {
  constexpr std::int64_t N = std::size(DivCases);
  Module M;
  GlobalVariable *In = M.createGlobal("In", N * 16);
  GlobalVariable *Out = M.createGlobal("Out", N * 16);
  Function *F = buildDivKernel(M, In, Out);
  ASSERT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);

  const Loader L(M);
  const std::uint64_t InBase = L.baseOf(In), OutBase = L.baseOf(Out);
  auto Init = [InBase](Memory &Mem, const Loader &) {
    for (std::int64_t K = 0; K != N; ++K) {
      Mem.storeI64(InBase + 16 * K, DivCases[K].L);
      Mem.storeI64(InBase + 16 * K + 8, DivCases[K].R);
    }
  };
  Memory Expected;
  Init(Expected, L);
  for (std::int64_t K = 0; K != N; ++K) {
    Expected.storeI64(OutBase + 16 * K, DivCases[K].Quot);
    Expected.storeI64(OutBase + 16 * K + 8, DivCases[K].Rem);
  }

  const std::vector<RuntimeValue> Args{RuntimeValue::ofInt(N)};
  const Outcome Ref = runUnder(SimBackend::Switch, M, *F, Args, Init);
  EXPECT_EQ(Ref.Hash, Expected.imageHash());
  expectBackendsAgree(M, *F, Args, Init, "division");
}

/// wrap(i, r): loads A[i] through a one-index GEP and A[r][1] through a
/// two-index GEP over 4 columns, stores the two values to A[2] and A[3] and
/// returns the first. With i = 2^61 + 1 and r = 2^60 the byte offsets are
/// 2^64 + 8 and 2^65 + 8, which wrap to 8 (A[1]) as native code computes.
TEST(BackendKernelTest, GepAddressMathWraps) {
  Module M;
  GlobalVariable *A = M.createGlobal("A", 4 * 8);
  Function *F =
      M.createFunction("wrap", Type::Int64, {Type::Int64, Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  Value *V1 = B.createLoad(Type::Int64, B.createGep1D(A, F->getArg(0), 8));
  Value *V2 = B.createLoad(
      Type::Int64, B.createGep2D(A, F->getArg(1), B.getInt(1), 4, 8));
  B.createStore(V1, B.createGep1D(A, B.getInt(2), 8));
  B.createStore(V2, B.createGep1D(A, B.getInt(3), 8));
  B.createRet(V1);
  ASSERT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);

  const std::uint64_t Base = Loader(M).baseOf(A);
  constexpr std::int64_t Elem1 = 0x5eed;
  auto Init = [Base](Memory &Mem, const Loader &) {
    Mem.storeI64(Base + 8, Elem1);
  };
  Memory Expected;
  for (std::uint64_t Off : {8, 16, 24})
    Expected.storeI64(Base + Off, Elem1);

  const std::vector<RuntimeValue> Args{
      RuntimeValue::ofInt((std::int64_t(1) << 61) + 1),
      RuntimeValue::ofInt(std::int64_t(1) << 60)};
  const Outcome Ref = runUnder(SimBackend::Switch, M, *F, Args, Init);
  EXPECT_EQ(Ref.Ret.I, Elem1);
  EXPECT_EQ(Ref.Hash, Expected.imageHash());
  expectBackendsAgree(M, *F, Args, Init, "gep wrap");
}

/// shapes(n, x, y) runs, for k < n, one instance of each shape that lowers
/// to a generic form: compare-and-branch pairs on == against a constant, on
/// != against a register, and on <=, > and >= against both; compares
/// against a constant used as values; FAdd, FSub, FDiv, Shl and AShr by a
/// constant; a float load feeding FAdd and int loads feeding Add; one-index
/// GEPs with a constant index (off a global and off a register) and with a
/// 24-byte element. In[k] cycles through [-4, 4] and x is 1, so every
/// branch goes both ways.
Function *buildShapesKernel(Module &M) {
  GlobalVariable *In = M.getGlobal("In"), *Fv = M.getGlobal("Fv"),
                 *Rec = M.getGlobal("Rec"), *Counts = M.getGlobal("Counts"),
                 *Bits = M.getGlobal("Bits"), *Out = M.getGlobal("Out"),
                 *Shifted = M.getGlobal("Shifted");
  Function *F = M.createFunction("shapes", Type::Int64,
                                 {Type::Int64, Type::Int64, Type::Float64});
  Value *X = F->getArg(1), *Y = F->getArg(2);
  IRBuilder B(M, F->createBlock("entry"));
  emitCountedLoop(
      B, B.getInt(0), F->getArg(0), B.getInt(1), "k",
      [&](IRBuilder &B, Value *K) {
        Value *A = B.createLoad(Type::Int64, B.createGep1D(In, K, 8));

        // Branch s, when taken, adds k to Counts[s].
        std::int64_t Slot = 0;
        auto Branch = [&](CmpPred P, Value *Rhs) {
          BasicBlock *Taken = F->createBlock("taken");
          BasicBlock *Join = F->createBlock("join");
          B.createCondBr(B.createCmp(P, A, Rhs), Taken, Join);
          B.setInsertBlock(Taken);
          Value *C = B.createGep1D(Counts, B.getInt(Slot++), 8);
          B.createStore(B.createAdd(B.createLoad(Type::Int64, C), K), C);
          B.createBr(Join);
          B.setInsertBlock(Join);
        };
        Branch(CmpPred::EQ, B.getInt(3));
        Branch(CmpPred::NE, X);
        for (CmpPred P : {CmpPred::SLE, CmpPred::SGT, CmpPred::SGE}) {
          Branch(P, B.getInt(0));
          Branch(P, X);
        }

        // Bits[k] packs the six integer compares of In[k] against 1.
        Value *Mask = B.getInt(0);
        for (CmpPred P : {CmpPred::EQ, CmpPred::NE, CmpPred::SLT, CmpPred::SLE,
                          CmpPred::SGT, CmpPred::SGE})
          Mask = B.createAdd(B.createMul(Mask, B.getInt(2)),
                             B.createCmp(P, A, B.getInt(1)));
        B.createStore(Mask, B.createGep1D(Bits, K, 8));

        Value *V = B.createFAdd(
            B.createLoad(Type::Float64, B.createGep1D(Fv, K, 8)), Y);
        V = B.createFDiv(B.createFSub(B.createFAdd(V, B.getFloat(0.25)),
                                      B.getFloat(1.5)),
                         B.getFloat(3.0));
        B.createStore(V, B.createGep1D(Out, K, 8));

        // A shift amount past 63 is taken mod 64.
        Value *S = B.createAShr(B.createShl(A, B.getInt(3)), B.getInt(66));
        B.createStore(S, B.createGep1D(Shifted, K, 8));

        // Rec[k] is a 24-byte record: its third field is added into its
        // first.
        Value *R = B.createGep1D(Rec, K, 24);
        Value *Third = B.createGep1D(R, B.getInt(2), 8);
        B.createStore(B.createAdd(B.createLoad(Type::Int64, Third), A), R);
      });
  B.createRet(
      B.createLoad(Type::Int64, B.createGep1D(Counts, B.getInt(0), 8)));
  return F;
}

TEST(BackendKernelTest, GenericFormsOfPrunedShapesMatchSwitch) {
  constexpr std::int64_t N = 18;
  Module M;
  GlobalVariable *In = M.createGlobal("In", N * 8);
  GlobalVariable *Fv = M.createGlobal("Fv", N * 8);
  GlobalVariable *Rec = M.createGlobal("Rec", N * 24);
  M.createGlobal("Counts", 8 * 8);
  M.createGlobal("Bits", N * 8);
  M.createGlobal("Out", N * 8);
  M.createGlobal("Shifted", N * 8);
  Function *F = buildShapesKernel(M);
  ASSERT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);

  const Loader L(M);
  const std::uint64_t InBase = L.baseOf(In), FvBase = L.baseOf(Fv),
                      RecBase = L.baseOf(Rec);
  auto Init = [=](Memory &Mem, const Loader &) {
    for (std::int64_t K = 0; K != N; ++K) {
      Mem.storeI64(InBase + 8 * K, (K * 5) % 9 - 4);
      Mem.storeF64(FvBase + 8 * K, 0.75 * static_cast<double>(K) - 2.0);
      for (std::int64_t Field = 0; Field != 3; ++Field)
        Mem.storeI64(RecBase + 24 * K + 8 * Field, 100 * K + Field);
    }
  };
  const std::vector<RuntimeValue> Args{RuntimeValue::ofInt(N),
                                       RuntimeValue::ofInt(1),
                                       RuntimeValue::ofFloat(0.5)};
  expectBackendsAgree(M, *F, Args, Init, "pruned shapes");
}

// One instruction of every cost class, and a phi: every backend prices the
// kernel's compute to what priceCounts gives for its hand-counted classes.
// The costs are powers of ten, so the price spells out the counts.
TEST(BackendKernelTest, EachCostClassIsPricedOnce) {
  Module M;
  Function *Callee = M.createFunction("id", Type::Int64, {Type::Int64});
  IRBuilder(M, Callee->createBlock("entry")).createRet(Callee->getArg(0));
  Function *F =
      M.createFunction("classes", Type::Int64, {Type::Int64, Type::Float64});
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(M, Entry);
  Value *Sum = B.createAdd(F->getArg(0), B.getInt(5));
  B.createFAdd(F->getArg(1), F->getArg(1));
  Value *Quot = B.createSDiv(Sum, B.getInt(3));
  Value *Ret = B.createCall(Callee, {Quot});
  B.createBr(Join);
  B.setInsertBlock(Join);
  PhiInst *P = B.createPhi(Type::Int64);
  P->addIncoming(Ret, Entry);
  B.createRet(P);
  ASSERT_TRUE(verifyFunction(*F).empty()) << printFunction(*F);

  // add, fadd, sdiv, call, br, phi and ret, then the callee's ret. Simple-op
  // units: add 1, call 2, br 1, the two rets 1 each. The phi is free.
  RunCounts Hand;
  Hand.Instructions = 8;
  Hand.SimpleUnits = 6;
  Hand.FpOps = 1;
  Hand.Divides = 1;
  MachineConfig Cfg;
  Cfg.SimpleOpCycles = 1.0;
  Cfg.FpOpCycles = 100.0;
  Cfg.DivCycles = 10000.0;
  const PhaseStats Priced = priceCounts(Hand, Cfg);
  ASSERT_EQ(Priced.ComputeCycles, 10106.0);

  for (SimBackend Backend :
       {SimBackend::Switch, SimBackend::Threaded, SimBackend::Native}) {
    if (!simBackendBuilt(Backend))
      continue;
    Cfg.Backend = Backend;
    const Loader L(M);
    Memory Mem;
    Interpreter Interp(Cfg, Mem, L);
    AccessTrace Trace;
    RuntimeValue Out;
    const PhaseStats S = Interp.runTraced(
        *F, {RuntimeValue::ofInt(7), RuntimeValue::ofFloat(1.5)}, Trace,
        &Out);
    EXPECT_EQ(S.Instructions, Hand.Instructions) << simBackendName(Backend);
    EXPECT_EQ(S.ComputeCycles, Priced.ComputeCycles)
        << simBackendName(Backend);
    EXPECT_EQ(Out.I, 4) << simBackendName(Backend);
  }
}

//===----------------------------------------------------------------------===//
// Arena edges
//===----------------------------------------------------------------------===//

/// GepInst takes any positive element size, so an 8-byte access at G + 4092
/// is legal inside an 8 KiB global. The Loader puts G at a page boundary, so
/// the access spans two pages: it must read and write all 8 bytes.
TEST(MemoryArenaTest, StraddlingAccessAgreesAcrossBackends) {
  Module M;
  GlobalVariable *G = M.createGlobal("G", 8192);
  Function *F = M.createFunction("straddle", Type::Int64, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  Value *P = B.createGep1D(G, F->getArg(0), 4);
  Value *V = B.createLoad(Type::Int64, P);
  B.createStore(B.createAdd(V, B.getInt(0x0101010101010101)), P);
  B.createRet(V);

  const std::uint64_t Base = Loader(M).baseOf(G);
  ASSERT_EQ(Base % Memory::PageSize, 0u);
  auto Init = [Base](Memory &Mem, const Loader &) {
    Mem.storeI64(Base + 4088, 0x1111111100000000); // bytes 4092..4095
    Mem.storeI64(Base + 4096, 0x22222222);         // bytes 4096..4099
  };
  const std::vector<RuntimeValue> Args{RuntimeValue::ofInt(1023)};
  const Outcome Ref = runUnder(SimBackend::Switch, M, *F, Args, Init);
  EXPECT_EQ(static_cast<std::uint64_t>(Ref.Ret.I), 0x2222222211111111ull);
  Memory Expected;
  Expected.storeI64(Base + 4088, 0x1212121200000000);
  Expected.storeI64(Base + 4096, 0x23232323);
  EXPECT_EQ(Ref.Hash, Expected.imageHash());
  EXPECT_EQ(Ref.Events.size(), 2u);
  expectBackendsAgree(M, *F, Args, Init, "straddle");
}

enum class Access { Load, Store, Prefetch };

/// fn(): one access of kind \p K at \p Addr.
Function *buildAccess(Module &M, const std::string &Name,
                      const std::function<Value *(IRBuilder &)> &Addr,
                      Access K) {
  Function *F = M.createFunction(Name, Type::Int64, {});
  IRBuilder B(M, F->createBlock("entry"));
  Value *P = Addr(B);
  switch (K) {
  case Access::Load:
    B.createRet(B.createLoad(Type::Int64, P));
    break;
  case Access::Store:
    B.createStore(B.getInt(1), P);
    B.createRet(B.getInt(0));
    break;
  case Access::Prefetch:
    B.createPrefetch(P);
    B.createRet(B.getInt(0));
    break;
  }
  return F;
}

/// A two-global module: footprint [A, B + 128), B being 100 bytes padded to
/// two lines.
struct TwoGlobals {
  Module M;
  GlobalVariable *A = M.createGlobal("A", 64);
  GlobalVariable *B = M.createGlobal("B", 100);

  /// The addresses just outside the footprint: 8 bytes below A, the
  /// footprint end, and an 8-byte access straddling the end.
  std::vector<std::pair<const char *, std::function<Value *(IRBuilder &)>>>
  outside() {
    return {
        {"below", [this](IRBuilder &IB) {
           return IB.createGep1D(A, IB.getInt(-1), 8);
         }},
        {"end", [this](IRBuilder &IB) {
           return IB.createGep1D(B, IB.getInt(16), 8);
         }},
        {"across_end", [this](IRBuilder &IB) {
           return IB.createGep1D(B, IB.getInt(31), 4);
         }},
    };
  }
};

/// Expects \p F to die with the out-of-footprint report under every backend.
void expectDiesEverywhere(const Module &M, const Function &F,
                          const std::string &What) {
  for (SimBackend Backend :
       {SimBackend::Switch, SimBackend::Threaded, SimBackend::Native}) {
    if (!simBackendBuilt(Backend))
      continue;
    MachineConfig Cfg;
    Cfg.Backend = Backend;
    Loader L(M);
    Memory Mem;
    // Compile here, in the parent: the forked child runs the code.
    Interpreter Interp(Cfg, Mem, L);
    Interp.program().lookup(F);
    AccessTrace Trace;
    EXPECT_DEATH(Interp.runTraced(F, {}, Trace),
                 "simulated access at 0x[0-9a-f]+ is outside the memory "
                 "footprint \\[0x[0-9a-f]+, 0x[0-9a-f]+\\)")
        << What << " under " << simBackendName(Backend);
  }
}

TEST(MemoryArenaDeathTest, LoadOutsideFootprintDies) {
  TwoGlobals Mod;
  for (const auto &[Where, Addr] : Mod.outside())
    expectDiesEverywhere(
        Mod.M,
        *buildAccess(Mod.M, std::string("load_") + Where, Addr, Access::Load),
        std::string("load ") + Where);
}

TEST(MemoryArenaDeathTest, StoreOutsideFootprintDies) {
  TwoGlobals Mod;
  for (const auto &[Where, Addr] : Mod.outside())
    expectDiesEverywhere(
        Mod.M,
        *buildAccess(Mod.M, std::string("store_") + Where, Addr,
                     Access::Store),
        std::string("store ") + Where);
}

/// Without globals the footprint is empty: every load is outside it.
TEST(MemoryArenaDeathTest, LoadWithoutGlobalsDies) {
  Module M;
  Function *F = buildAccess(
      M, "load",
      [](IRBuilder &B) {
        return B.createCast(CastOp::IntToPtr, B.getInt(0x10000));
      },
      Access::Load);
  expectDiesEverywhere(M, *F, "load without globals");
}

/// Once an interpreter has bound the memory, the host accessors obey the
/// same footprint; before that they grow the arena.
TEST(MemoryArenaDeathTest, HostAccessOutsideBoundFootprintDies) {
  TwoGlobals Mod;
  Loader L(Mod.M);
  const std::uint64_t A = L.baseOf(Mod.A), End = L.baseOf(Mod.B) + 128;
  Memory Mem;
  Mem.storeI64(End + 4096, 0);
  MachineConfig Cfg;
  Interpreter Binds(Cfg, Mem, L);
  EXPECT_EQ(Mem.loadI64(End - 8), 0);
  EXPECT_DEATH(Mem.loadI64(A - 8), "outside the memory footprint");
  EXPECT_DEATH(Mem.storeI64(End, 1), "outside the memory footprint");
  EXPECT_DEATH(Mem.storeF64(End - 4, 1.0), "outside the memory footprint");
}

/// A prefetch only appends a trace event, so it may name any address.
TEST(MemoryArenaTest, PrefetchOutsideFootprintIsTraced) {
  TwoGlobals Mod;
  const Loader L(Mod.M);
  const std::uint64_t Below = L.baseOf(Mod.A) - 8,
                      End = L.baseOf(Mod.B) + 128;
  Function *F = Mod.M.createFunction("prefetch", Type::Int64, {});
  IRBuilder B(Mod.M, F->createBlock("entry"));
  for (const auto &[Where, Addr] : Mod.outside())
    B.createPrefetch(Addr(B));
  B.createRet(B.getInt(0));
  auto NoInit = [](Memory &, const Loader &) {};
  const Outcome Ref = runUnder(SimBackend::Switch, Mod.M, *F, {}, NoInit);
  AccessTrace Expected;
  for (std::uint64_t Addr : {Below, End, End - 4})
    Expected.push(AccessTrace::Kind::Prefetch, Addr);
  EXPECT_EQ(Ref.Events, Expected.events());
  expectBackendsAgree(Mod.M, *F, {}, NoInit, "prefetch");

  Module Empty;
  Function *G = buildAccess(
      Empty, "prefetch",
      [](IRBuilder &IB) {
        return IB.createCast(CastOp::IntToPtr, IB.getInt(0x10000));
      },
      Access::Prefetch);
  expectBackendsAgree(Empty, *G, {}, NoInit, "prefetch without globals");
}

} // namespace
