//===- tests/sim/NativeBackendTest.cpp - Native backend edge cases ---------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Edge cases of the native codegen backend that the cross-backend
// differential suite (BackendDifferentialTest.cpp) does not reach: code
// storage across many compiled functions, W^X protection of the JIT buffer,
// the C-emission fallback mode, the DAECC_NATIVE_MODE contract, and — most
// important — the rejection path: a function the lowerer cannot compile must
// fall back to the threaded interpreter bit-identically, never miscompile,
// and must die loudly under the AbortOnUnsupported testing hook.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "runtime/Replay.h"
#include "sim/Bytecode.h"
#include "sim/Interpreter.h"
#include "sim/Memory.h"
#include "sim/NativeCodegen.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
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

/// Runs \p F under \p Backend in a fresh memory/cache world, replays its
/// trace, and returns (return value, replayed profile, trace, image hash).
struct RunResult {
  RuntimeValue Ret;
  PhaseStats Stats;
  std::vector<std::uint64_t> Events;
  std::uint64_t Hash;
};

RunResult runUnder(SimBackend Backend, Module &M, Function &F,
                   std::int64_t Arg) {
  MachineConfig Cfg;
  Cfg.Backend = Backend;
  Loader L(M);
  Memory Mem;
  Interpreter Interp(Cfg, Mem, L);
  AccessTrace Trace;
  RunResult R;
  R.Stats = Interp.runTraced(F, {RuntimeValue::ofInt(Arg)}, Trace, &R.Ret);
  CacheHierarchy Caches(Cfg, 1);
  runtime::replayTrace(Trace, Caches, 0, runtime::ReplayCostModel(Cfg),
                       R.Stats);
  R.Events = Trace.events();
  R.Hash = Mem.imageHash();
  return R;
}

void expectSameRun(const RunResult &A, const RunResult &B, const char *What) {
  EXPECT_EQ(A.Ret.I, B.Ret.I) << What;
  EXPECT_EQ(A.Events, B.Events) << What;
  EXPECT_EQ(A.Hash, B.Hash) << What;
  EXPECT_EQ(A.Stats.Instructions, B.Stats.Instructions) << What;
  EXPECT_EQ(A.Stats.ComputeCycles, B.Stats.ComputeCycles) << What;
  EXPECT_EQ(A.Stats.Loads, B.Stats.Loads) << What;
  EXPECT_EQ(A.Stats.Stores, B.Stats.Stores) << What;
  EXPECT_EQ(A.Stats.L1Hits, B.Stats.L1Hits) << What;
  EXPECT_EQ(A.Stats.MemAccesses, B.Stats.MemAccesses) << What;
}

/// Compiling many distinct functions must yield many live code objects —
/// each with its own executable storage — that all execute correctly while
/// held simultaneously (the CompiledProgram holds every function of a
/// workload at once).
TEST(NativeBackend, CodeBufferGrowthAcrossManyFunctions) {
  constexpr unsigned N = 48;
  Module M;
  auto *Out = M.createGlobal("Out", N * 8);
  std::vector<Function *> Fns;
  for (unsigned K = 0; K != N; ++K)
    Fns.push_back(buildFn(M, Out, K));

  MachineConfig Cfg;
  Cfg.Backend = SimBackend::Native;
  Loader L(M);
  CompiledProgram Prog(Cfg, L);
  for (Function *F : Fns)
    Prog.add(*F);

  unsigned Compiled = 0;
  for (Function *F : Fns)
    if (const native::NativeCode *NC = Prog.lookupNative(*F)) {
      ++Compiled;
      if (NC->isJit()) {
        EXPECT_NE(NC->codeAddr(), nullptr);
        EXPECT_GT(NC->codeSize(), 0u);
      }
    }
  // On a host with a working mode every function must have compiled; with
  // no usable mode the backend still runs (threaded fallback), but this
  // test's point is the code storage, so require compilation.
  EXPECT_EQ(Compiled, N);

  // All functions execute correctly while every code object is live.
  Memory Mem;
  Interpreter Interp(Cfg, Mem, L, &Prog);
  AccessTrace Trace;
  for (unsigned K = 0; K != N; ++K) {
    RuntimeValue Ret;
    Interp.runTraced(*Fns[K], {RuntimeValue::ofInt(7)}, Trace, &Ret);
    const std::int64_t Expect =
        static_cast<std::int64_t>(
            static_cast<double>(7 * (static_cast<std::int64_t>(K) + 2) + K) *
            1.5) +
        1;
    EXPECT_EQ(Ret.I, Expect) << "fn_" << K;
  }
}

/// The JIT buffer must be W^X: readable and executable, never writable,
/// once published. Verified against the kernel's own view (/proc/self/maps);
/// skipped when the host compiles through the C-emission fallback.
TEST(NativeBackend, JitBufferIsWxProtected) {
  Module M;
  auto *Out = M.createGlobal("Out", 8);
  Function *F = buildFn(M, Out, 0);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);
  std::shared_ptr<const native::NativeCode> NC = native::compile(*BF);
  if (!NC || !NC->isJit())
    GTEST_SKIP() << "host uses the C-emission mode (no JIT buffer to check)";

  std::FILE *Maps = std::fopen("/proc/self/maps", "r");
  if (!Maps)
    GTEST_SKIP() << "/proc/self/maps unavailable";
  const std::uintptr_t Addr =
      reinterpret_cast<std::uintptr_t>(NC->codeAddr());
  bool Found = false;
  char Line[512];
  while (std::fgets(Line, sizeof(Line), Maps)) {
    unsigned long long Lo = 0, Hi = 0;
    char Perms[8] = {0};
    if (std::sscanf(Line, "%llx-%llx %7s", &Lo, &Hi, Perms) != 3)
      continue;
    if (Addr < Lo || Addr >= Hi)
      continue;
    Found = true;
    EXPECT_EQ(Perms[0], 'r') << Line;
    EXPECT_EQ(Perms[1], '-') << "JIT buffer writable after publish: " << Line;
    EXPECT_EQ(Perms[2], 'x') << Line;
    break;
  }
  std::fclose(Maps);
  EXPECT_TRUE(Found) << "JIT buffer not in /proc/self/maps";
}

/// The C-emission mode (DAECC_NATIVE_MODE=cemit; auto-selected under
/// sanitizers and on non-x86-64 hosts) must produce the same bits as the
/// reference backend.
TEST(NativeBackend, CEmissionFallbackMatchesReference) {
  Module M;
  auto *Out = M.createGlobal("Out", 4 * 8);
  Function *F = buildFn(M, Out, 3);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);

  native::Options Opts;
  Opts.LowerMode = native::Mode::Cemit;
  std::shared_ptr<const native::NativeCode> NC = native::compile(*BF, Opts);
  if (!NC)
    GTEST_SKIP() << "no host C compiler available for the cemit mode";
  EXPECT_FALSE(NC->isJit());
  EXPECT_NE(NC->entry(), nullptr);

  // End to end through the interpreter, pinned to cemit via the env knob.
  setenv("DAECC_NATIVE_MODE", "cemit", 1);
  RunResult Ref = runUnder(SimBackend::Switch, M, *F, 11);
  RunResult Got = runUnder(SimBackend::Native, M, *F, 11);
  unsetenv("DAECC_NATIVE_MODE");
  expectSameRun(Ref, Got, "cemit vs switch");
}

/// A function containing an opcode the lowerer rejects (here forced via
/// DAECC_NATIVE_REJECT_OP) must run through the threaded fallback with
/// bit-identical results — a rejected function may be slow, never wrong.
TEST(NativeBackend, RejectedFunctionFallsBackBitIdentically) {
  Module M;
  auto *Out = M.createGlobal("Out", 4 * 8);
  Function *F = buildFn(M, Out, 2);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);

  setenv("DAECC_NATIVE_REJECT_OP", "SIToFP", 1);
  std::shared_ptr<const native::NativeCode> NC = native::compile(*BF);
  EXPECT_EQ(NC, nullptr) << "rejected opcode must not compile";

  RunResult Ref = runUnder(SimBackend::Switch, M, *F, 9);
  RunResult Got = runUnder(SimBackend::Native, M, *F, 9);
  unsetenv("DAECC_NATIVE_REJECT_OP");
  expectSameRun(Ref, Got, "threaded fallback vs switch");
}

/// Under the AbortOnUnsupported testing hook the same rejection must be
/// loud: a diagnostic naming the opcode, then abort. Pins that an
/// unsupported opcode can never silently produce wrong code.
TEST(NativeBackendDeathTest, UnsupportedOpcodeAbortsUnderHook) {
  Module M;
  auto *Out = M.createGlobal("Out", 4 * 8);
  Function *F = buildFn(M, Out, 1);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);

  native::Options Opts;
  Opts.AbortOnUnsupported = true;
  setenv("DAECC_NATIVE_REJECT_OP", "SIToFP", 1);
  EXPECT_DEATH(native::compile(*BF, Opts), "rejected opcode 'SIToFP'");
  unsetenv("DAECC_NATIVE_REJECT_OP");
}

/// DAECC_NATIVE_MODE accepts exactly jit, cemit and auto; anything else is a
/// hard configuration error (exit 2), like DAECC_SIM_BACKEND — never a
/// silent fall-back to auto that would mislabel a mode comparison.
TEST(NativeBackendDeathTest, UnknownNativeModeExits2) {
  Module M;
  auto *Out = M.createGlobal("Out", 8);
  Function *F = buildFn(M, Out, 0);
  Loader L(M);
  MachineConfig Cfg;
  auto BF = bc::lower(*F, L, Cfg);
  for (const char *Bad : {"JIT", "jit ", "c", "native", ""}) {
    setenv("DAECC_NATIVE_MODE", Bad, 1);
    EXPECT_EXIT(native::compile(*BF), ::testing::ExitedWithCode(2),
                "unknown DAECC_NATIVE_MODE")
        << "'" << Bad << "'";
    EXPECT_EXIT(native::activeModeName(), ::testing::ExitedWithCode(2),
                "unknown DAECC_NATIVE_MODE")
        << "'" << Bad << "'";
  }
  unsetenv("DAECC_NATIVE_MODE");
}

} // namespace
