//===- tests/sim/NativeBackendTest.cpp - Native backend edge cases ---------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Edge cases of the native codegen backend that the cross-backend
// differential suite (BackendDifferentialTest.cpp) does not reach: code
// storage across many compiled functions, W^X protection of the JIT buffer,
// the code's lifetime (unmapped with its run), and the rejection path: the
// native backend runs JIT code only, so a function the JIT cannot compile
// must stop the run with a diagnostic, never run elsewhere or miscompile.
// A build without the JIT has no native backend and skips every case.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Memory.h"
#include "sim/NativeCodegen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

namespace {

/// Builds fn_k(x) = x * (k + 2) + k with a load, a store and an FP round
/// trip, so every compiled function exercises translation, trace emission
/// and both register classes. Returns the function; results land in the
/// global \p Out (8 bytes at index K of "Out").
Function *buildFn(Module &M, GlobalVariable *Out, unsigned K) {
  char Name[32];
  std::snprintf(Name, sizeof(Name), "fn_%u", K);
  Function *F = M.createFunction(Name, Type::Int64, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  Value *Scaled = B.createBinOp(
      BinOp::Mul, F->getArg(0), M.getInt(static_cast<std::int64_t>(K) + 2));
  Value *Sum = B.createBinOp(BinOp::Add, Scaled,
                             M.getInt(static_cast<std::int64_t>(K)));
  // FP round trip: (double)Sum * 1.5 back to int.
  Value *D = B.createCast(CastOp::SIToFP, Sum);
  Value *Scaled2 = B.createBinOp(BinOp::FMul, D, M.getFloat(1.5));
  Value *I2 = B.createCast(CastOp::FPToSI, Scaled2);
  Value *Slot = B.createGep1D(Out, M.getInt(K), 8);
  B.createStore(I2, Slot);
  Value *Back = B.createLoad(Type::Int64, Slot);
  B.createRet(B.createBinOp(BinOp::Add, Back, M.getInt(1)));
  return F;
}

/// What fn_K returns for \p X.
std::int64_t fnResult(unsigned K, std::int64_t X) {
  const std::int64_t Sum = X * (static_cast<std::int64_t>(K) + 2) + K;
  return static_cast<std::int64_t>(static_cast<double>(Sum) * 1.5) + 1;
}

/// One line of /proc/self/maps, the kernel's own view of the address space.
struct Mapping {
  std::string Perms; ///< For example "r-xp".
  std::string Line;
};

/// The mappings that overlap [\p Addr, \p Addr + \p Size), or false when
/// /proc/self/maps cannot be read.
bool mappingsOverlapping(const void *Addr, std::size_t Size,
                         std::vector<Mapping> &Out) {
  std::FILE *Maps = std::fopen("/proc/self/maps", "r");
  if (!Maps)
    return false;
  const std::uintptr_t Lo = reinterpret_cast<std::uintptr_t>(Addr);
  char Line[512];
  while (std::fgets(Line, sizeof(Line), Maps)) {
    unsigned long long MapLo = 0, MapHi = 0;
    char Perms[8] = {0};
    if (std::sscanf(Line, "%llx-%llx %7s", &MapLo, &MapHi, Perms) != 3)
      continue;
    if (Lo + Size <= MapLo || Lo >= MapHi)
      continue;
    Out.push_back({Perms, Line});
  }
  std::fclose(Maps);
  return true;
}

/// Compiling many distinct functions must yield many live code objects —
/// each with its own executable storage — that all execute correctly while
/// held simultaneously (a run's Program holds every function of a workload
/// at once).
TEST(NativeBackend, CodeBufferGrowthAcrossManyFunctions) {
  if (!simBackendBuilt(SimBackend::Native))
    GTEST_SKIP() << "no JIT in this build";
  constexpr unsigned N = 48;
  Module M;
  auto *Out = M.createGlobal("Out", N * 8);
  std::vector<Function *> Fns;
  for (unsigned K = 0; K != N; ++K)
    Fns.push_back(buildFn(M, Out, K));

  MachineConfig Cfg;
  Cfg.Backend = SimBackend::Native;
  Loader L(M);
  Memory Mem;
  Interpreter Interp(Cfg, Mem, L);
  for (Function *F : Fns)
    Interp.program().lookup(*F);

  unsigned Compiled = 0;
  for (Function *F : Fns)
    if (const native::NativeCode *NC =
            Interp.program().lookup(*F).Native.get()) {
      ++Compiled;
      EXPECT_NE(NC->codeAddr(), nullptr);
      EXPECT_GT(NC->codeSize(), 0u);
    }
  EXPECT_EQ(Compiled, N);

  // All functions execute correctly while every code object is live.
  AccessTrace Trace;
  for (unsigned K = 0; K != N; ++K) {
    RuntimeValue Ret;
    Interp.runTraced(*Fns[K], {RuntimeValue::ofInt(7)}, Trace, &Ret);
    EXPECT_EQ(Ret.I, fnResult(K, 7)) << "fn_" << K;
  }
}

/// The JIT buffer must be W^X: readable and executable, never writable,
/// once published. Verified against the kernel's own view (/proc/self/maps).
TEST(NativeBackend, JitBufferIsWxProtected) {
  if (!simBackendBuilt(SimBackend::Native))
    GTEST_SKIP() << "no JIT in this build";
  Module M;
  auto *Out = M.createGlobal("Out", 8);
  Function *F = buildFn(M, Out, 0);
  Loader L(M);
  auto BF = bc::lower(*F, L);
  std::unique_ptr<native::NativeCode> NC = native::compile(*BF);
  ASSERT_NE(NC, nullptr);

  std::vector<Mapping> Maps;
  if (!mappingsOverlapping(NC->codeAddr(), 1, Maps))
    GTEST_SKIP() << "/proc/self/maps unavailable";
  ASSERT_EQ(Maps.size(), 1u) << "JIT buffer not in /proc/self/maps";
  const Mapping &Map = Maps.front();
  EXPECT_EQ(Map.Perms[0], 'r') << Map.Line;
  EXPECT_EQ(Map.Perms[1], '-') << "JIT buffer writable after publish: "
                               << Map.Line;
  EXPECT_EQ(Map.Perms[2], 'x') << Map.Line;
}

/// A run's native code lives exactly as long as its Interpreter: once the
/// Interpreter is destroyed, no executable mapping remains where the code
/// was, so runs do not accumulate JIT buffers over a process's life.
TEST(NativeBackend, JitCodeIsUnmappedWithItsRun) {
  if (!simBackendBuilt(SimBackend::Native))
    GTEST_SKIP() << "no JIT in this build";
  Module M;
  auto *Out = M.createGlobal("Out", 8);
  Function *F = buildFn(M, Out, 0);
  MachineConfig Cfg;
  Cfg.Backend = SimBackend::Native;
  Loader L(M);
  Memory Mem;

  const void *Code = nullptr;
  std::size_t Size = 0;
  {
    Interpreter Interp(Cfg, Mem, L);
    AccessTrace Trace;
    RuntimeValue Ret;
    Interp.runTraced(*F, {RuntimeValue::ofInt(7)}, Trace, &Ret);
    EXPECT_EQ(Ret.I, fnResult(0, 7));
    const native::NativeCode *NC = Interp.program().lookup(*F).Native.get();
    ASSERT_NE(NC, nullptr);
    Code = NC->codeAddr();
    Size = NC->codeSize();

    std::vector<Mapping> Live;
    if (!mappingsOverlapping(Code, Size, Live))
      GTEST_SKIP() << "/proc/self/maps unavailable";
    ASSERT_EQ(Live.size(), 1u) << "JIT buffer not in /proc/self/maps";
    EXPECT_EQ(Live.front().Perms[2], 'x') << Live.front().Line;
  }

  std::vector<Mapping> After;
  ASSERT_TRUE(mappingsOverlapping(Code, Size, After));
  for (const Mapping &Map : After)
    EXPECT_NE(Map.Perms[2], 'x')
        << "JIT code still mapped after its run: " << Map.Line;
}

/// A function the JIT cannot compile stops the run with a diagnostic naming
/// the function and the opcode: the native backend has no other engine to
/// run it on. Trap is the one opcode without a stencil; a correct lowering
/// never emits it, so the function is built by hand.
TEST(NativeBackendDeathTest, UncompilableFunctionDiesNamingFunctionAndOpcode) {
  if (!simBackendBuilt(SimBackend::Native))
    GTEST_SKIP() << "no JIT in this build";
  Module M;
  bc::BytecodeFunction BF;
  BF.Source = M.createFunction("holds_trap", Type::Void, {});
  BF.Code.resize(2);
  BF.Code[0].Op = bc::Opcode::Trap;
  BF.Code[1].Op = bc::Opcode::Ret;
  EXPECT_DEATH(native::compile(BF),
               "cannot compile function 'holds_trap': opcode 'Trap'");
}

} // namespace
