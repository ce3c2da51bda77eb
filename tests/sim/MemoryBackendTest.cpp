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
// stores. Every address lies inside a global by construction. Each kernel
// runs under the switch, threaded and native backends, and under the native
// C-emission mode when a host compiler exists; traces, PhaseStats, return
// values and memory images must equal the switch interpreter's.
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

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

namespace {

/// Sets an environment variable for one scope and restores its old value.
class ScopedEnv {
public:
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    if (const char *Old = std::getenv(Name))
      Saved = std::make_unique<std::string>(Old);
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() {
    if (Saved)
      setenv(Name, Saved->c_str(), 1);
    else
      unsetenv(Name);
  }

private:
  const char *Name;
  std::unique_ptr<std::string> Saved;
};

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
/// \p Compiled, when given, reports whether \p F got native code.
template <typename InitFn>
Outcome runUnder(SimBackend Backend, const Module &M, const Function &F,
                 const std::vector<RuntimeValue> &Args, InitFn Init,
                 bool *Compiled = nullptr) {
  MachineConfig Cfg;
  Cfg.Backend = Backend;
  Loader L(M);
  Memory Mem;
  Init(Mem, L);
  CompiledProgram Prog(Cfg, L);
  Prog.add(F);
  if (Compiled)
    *Compiled = Prog.lookupNative(F) != nullptr;
  Interpreter Interp(Cfg, Mem, L, &Prog);
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
/// interpreter. The C-emission case is skipped, with a note, when the host
/// has no usable compiler.
template <typename InitFn>
void expectBackendsAgree(const Module &M, const Function &F,
                         const std::vector<RuntimeValue> &Args, InitFn Init,
                         const std::string &What) {
  const Outcome Ref = runUnder(SimBackend::Switch, M, F, Args, Init);
  expectSameOutcome(Ref, runUnder(SimBackend::Threaded, M, F, Args, Init),
                    What + ", threaded");
  expectSameOutcome(Ref, runUnder(SimBackend::Native, M, F, Args, Init),
                    What + ", native");
  ScopedEnv Cemit("DAECC_NATIVE_MODE", "cemit");
  bool Compiled = false;
  Outcome Got = runUnder(SimBackend::Native, M, F, Args, Init, &Compiled);
  if (!Compiled) {
    std::printf("note: no host C compiler; cemit case skipped\n");
    return;
  }
  expectSameOutcome(Ref, Got, What + ", cemit");
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
      Floats.push_back(B.createFAdd(L, pickFloat()));
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

  /// The innermost loop body: 3-7 statements with the call among them.
  void body(IRBuilder &B, const std::vector<LoopLevel> &Levels) {
    const std::size_t IntsBefore = Ints.size(), FloatsBefore = Floats.size();
    Ints.push_back(Levels.back().IV);
    Floats.push_back(B.createCast(CastOp::SIToFP, Levels.back().IV));
    const std::int64_t N = 3 + below(5);
    const std::int64_t CallAt = below(N + 1);
    for (std::int64_t S = 0; S <= N; ++S) {
      if (S == CallAt)
        Ints.push_back(B.createCall(Callee, {pickInt(), pickFloat()}));
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
  expectBackendsAgree(
      K.M, *K.Entry, K.args(),
      [&K](Memory &Mem, const Loader &L) { K.init(Mem, L); },
      "kernel " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BackendMemoryFuzz, ::testing::Range(0u, 32u));

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

/// The execution configurations every edge case runs under: the switch and
/// threaded loops, JIT code and emitted C (each native mode skipped when
/// the host cannot produce it).
struct BackendMode {
  const char *Name;
  SimBackend Backend;
  const char *NativeMode; ///< DAECC_NATIVE_MODE, or null.
};
const BackendMode Modes[] = {{"switch", SimBackend::Switch, nullptr},
                             {"threaded", SimBackend::Threaded, nullptr},
                             {"jit", SimBackend::Native, "jit"},
                             {"cemit", SimBackend::Native, "cemit"}};

/// Expects \p F to die with the out-of-footprint report under every mode.
void expectDiesEverywhere(const Module &M, const Function &F,
                          const std::string &What) {
  for (const BackendMode &Mode : Modes) {
    MachineConfig Cfg;
    Cfg.Backend = Mode.Backend;
    std::unique_ptr<ScopedEnv> Env;
    if (Mode.NativeMode)
      Env = std::make_unique<ScopedEnv>("DAECC_NATIVE_MODE", Mode.NativeMode);
    Loader L(M);
    Memory Mem;
    // Compile here, in the parent: the forked child runs the code.
    CompiledProgram Prog(Cfg, L);
    Prog.add(F);
    if (Mode.NativeMode && !Prog.lookupNative(F)) {
      std::printf("note: no %s code on this host; case skipped\n",
                  Mode.NativeMode);
      continue;
    }
    Interpreter Interp(Cfg, Mem, L, &Prog);
    AccessTrace Trace;
    EXPECT_DEATH(Interp.runTraced(F, {}, Trace),
                 "simulated access at 0x[0-9a-f]+ is outside the memory "
                 "footprint \\[0x[0-9a-f]+, 0x[0-9a-f]+\\)")
        << What << " under " << Mode.Name;
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
