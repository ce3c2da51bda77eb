//===- bench/micro_codegen.cpp - Access generation microbenchmarks ----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for compile-time access-phase
/// generation: full generateAccessPhase throughput per workload task kind
/// (affine polyhedral synthesis vs. skeleton cloning+marking), the
/// interpreter's simulated-instruction throughput, and functional-pass
/// microbenches comparing the execution backends
/// (--sim-backend={switch,threaded,native}; native where the JIT is built)
/// on loop shapes that isolate one cost each: a tight arithmetic loop (pure
/// dispatch + ALU handlers), a phi-heavy loop with a parallel-copy swap
/// cycle (trampoline cost), and a load/store stream (trace appends +
/// load/binop fusion — for the native backend, the strength-reduced page
/// translation and inlined trace stores). Each reports a per-backend
/// sim_instr/s counter in the benchmark JSON.
///
//===----------------------------------------------------------------------===//

#include "dae/AccessGenerator.h"
#include "ir/IRBuilder.h"
#include "runtime/Runtime.h"
#include "sim/Interpreter.h"
#include "sim/MachineConfig.h"
#include "sim/Memory.h"
#include "workloads/Workload.h"

#include <benchmark/benchmark.h>

using namespace dae;
using namespace dae::workloads;

namespace {

void benchGeneration(benchmark::State &State, const char *Name) {
  for (auto _ : State) {
    State.PauseTiming();
    auto W = buildByName(Name, Scale::Test);
    const ir::Function *TaskFn = W->Tasks.front().Execute;
    State.ResumeTiming();
    AccessPhaseResult R = generateAccessPhase(
        *W->M, *const_cast<ir::Function *>(TaskFn), W->Opts);
    benchmark::DoNotOptimize(R.AccessFn);
  }
}

void BM_GenerateAffine_LU(benchmark::State &State) {
  benchGeneration(State, "lu");
}
BENCHMARK(BM_GenerateAffine_LU)->Unit(benchmark::kMillisecond);

void BM_GenerateAffine_Cholesky(benchmark::State &State) {
  benchGeneration(State, "cholesky");
}
BENCHMARK(BM_GenerateAffine_Cholesky)->Unit(benchmark::kMillisecond);

void BM_GenerateSkeleton_FFT(benchmark::State &State) {
  benchGeneration(State, "fft");
}
BENCHMARK(BM_GenerateSkeleton_FFT)->Unit(benchmark::kMillisecond);

void BM_GenerateSkeleton_LBM(benchmark::State &State) {
  benchGeneration(State, "lbm");
}
BENCHMARK(BM_GenerateSkeleton_LBM)->Unit(benchmark::kMillisecond);

void BM_SimulateWorkload_CG(benchmark::State &State) {
  auto W = buildByName("cg", Scale::Test);
  sim::MachineConfig Cfg;
  sim::Loader L(*W->M);
  std::uint64_t Instr = 0;
  for (auto _ : State) {
    sim::Memory Mem;
    W->Init(Mem, L);
    runtime::TaskRuntime RT(Cfg, Mem, L);
    runtime::RunProfile P = RT.execute(W->Tasks, /*RunAccess=*/false);
    Instr += P.totalExecute().Instructions;
    benchmark::DoNotOptimize(P.Tasks.size());
  }
  State.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(Instr), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateWorkload_CG)->Unit(benchmark::kMillisecond);

/// Synthetic dispatch-stressor programs, built once and shared by the
/// per-backend benchmark instances below.
struct DispatchPrograms {
  static constexpr std::int64_t Iters = 1 << 14;

  ir::Module M;
  ir::Function *Arith;  ///< Register-only int/FP chain per iteration.
  ir::Function *Phi;    ///< Five phis incl. a swap cycle per iteration.
  ir::Function *Stream; ///< X[i] = X[i] * s + Y[i] over Float64 arrays.

  DispatchPrograms() {
    using namespace dae::ir;

    Arith = M.createFunction("arith", Type::Void, {Type::Int64});
    {
      IRBuilder B(M, Arith->createBlock("entry"));
      emitCountedLoop(B, B.getInt(0), Arith->getArg(0), B.getInt(1), "i",
                      [&](IRBuilder &B, Value *I) {
        Value *A = B.createMul(I, B.getInt(3));
        Value *C = B.createXor(B.createAdd(A, B.getInt(7)), I);
        Value *E = B.createAnd(B.createAShr(C, B.getInt(2)), B.getInt(1023));
        Value *F = B.createCast(CastOp::SIToFP, E);
        Value *G = B.createFAdd(B.createFMul(F, B.getFloat(1.5)),
                                B.getFloat(0.25));
        (void)B.createCmp(CmpPred::SLT, B.createCast(CastOp::FPToSI, G), I);
      });
      B.createRet();
    }

    // Hand-built loop: the induction phi plus four loop-carried phis whose
    // back-edge copies include a two-cycle (A<->B swap) — the shape that
    // forces the threaded backend's parallel-copy trampolines through their
    // scratch-register cycle break every iteration.
    Phi = M.createFunction("phis", Type::Int64, {Type::Int64});
    {
      BasicBlock *Entry = Phi->createBlock("entry");
      BasicBlock *Header = Phi->createBlock("header");
      BasicBlock *Body = Phi->createBlock("body");
      BasicBlock *Exit = Phi->createBlock("exit");
      IRBuilder B(M, Entry);
      B.createBr(Header);
      B.setInsertBlock(Header);
      PhiInst *IV = B.createPhi(Type::Int64);
      PhiInst *PA = B.createPhi(Type::Int64);
      PhiInst *PB = B.createPhi(Type::Int64);
      PhiInst *PC = B.createPhi(Type::Int64);
      PhiInst *PD = B.createPhi(Type::Int64);
      IV->addIncoming(M.getInt(0), Entry);
      PA->addIncoming(M.getInt(1), Entry);
      PB->addIncoming(M.getInt(2), Entry);
      PC->addIncoming(M.getInt(3), Entry);
      PD->addIncoming(M.getInt(5), Entry);
      Value *Cond = B.createCmp(CmpPred::SLT, IV, Phi->getArg(0));
      B.createCondBr(Cond, Body, Exit);
      B.setInsertBlock(Body);
      Value *Sum = B.createAdd(PC, PD);
      Value *Next = B.createAdd(IV, M.getInt(1));
      IV->addIncoming(Next, Body);
      PA->addIncoming(PB, Body); // Swap cycle: A <- B, B <- A.
      PB->addIncoming(PA, Body);
      PC->addIncoming(PD, Body);
      PD->addIncoming(Sum, Body);
      B.createBr(Header);
      B.setInsertBlock(Exit);
      B.createRet(B.createAdd(PA, PC));
    }

    auto *X = M.createGlobal("X", Iters * 8);
    auto *Y = M.createGlobal("Y", Iters * 8);
    Stream = M.createFunction("stream", Type::Void, {Type::Int64});
    {
      IRBuilder B(M, Stream->createBlock("entry"));
      emitCountedLoop(B, B.getInt(0), Stream->getArg(0), B.getInt(1), "i",
                      [&](IRBuilder &B, Value *I) {
        Value *XPtr = B.createGep1D(X, I, 8);
        Value *XV = B.createLoad(Type::Float64, XPtr);
        Value *YV = B.createLoad(Type::Float64, B.createGep1D(Y, I, 8));
        B.createStore(B.createFAdd(B.createFMul(XV, B.getFloat(1.01)), YV),
                      XPtr);
      });
      B.createRet();
    }
  }
};

DispatchPrograms &dispatchPrograms() {
  static DispatchPrograms P;
  return P;
}

/// Runs \p F under \p Backend through the functional pass (runTraced, the
/// trace cleared per iteration) and reports sim_instr/s. Memory persists
/// across iterations. Arith/Phi have no memory ops (empty trace = pure
/// dispatch); Stream adds the trace-append cost every backend pays. This is
/// the path the [interp] line of the figure benches reports. The native
/// cases are skipped in a build without the JIT.
void benchTrace(benchmark::State &State, const ir::Function *F,
                sim::SimBackend Backend) {
  if (!sim::simBackendBuilt(Backend)) {
    State.SkipWithError("no JIT in this build");
    return;
  }
  DispatchPrograms &P = dispatchPrograms();
  sim::MachineConfig Cfg;
  Cfg.Backend = Backend;
  sim::Loader L(P.M);
  sim::Memory Mem;
  sim::Interpreter Interp(Cfg, Mem, L);
  sim::AccessTrace Trace;
  std::uint64_t Instr = 0;
  for (auto _ : State) {
    Trace.clear();
    sim::PhaseStats S = Interp.runTraced(
        *F, {sim::RuntimeValue::ofInt(DispatchPrograms::Iters)}, Trace);
    Instr += S.Instructions;
    benchmark::DoNotOptimize(S.ComputeCycles);
  }
  State.counters["sim_instr/s"] = benchmark::Counter(
      static_cast<double>(Instr), benchmark::Counter::kIsRate);
}

void BM_TraceArith_Switch(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Arith, sim::SimBackend::Switch);
}
BENCHMARK(BM_TraceArith_Switch)->Unit(benchmark::kMillisecond);

void BM_TraceArith_Threaded(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Arith, sim::SimBackend::Threaded);
}
BENCHMARK(BM_TraceArith_Threaded)->Unit(benchmark::kMillisecond);

void BM_TraceArith_Native(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Arith, sim::SimBackend::Native);
}
BENCHMARK(BM_TraceArith_Native)->Unit(benchmark::kMillisecond);

void BM_TracePhi_Switch(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Phi, sim::SimBackend::Switch);
}
BENCHMARK(BM_TracePhi_Switch)->Unit(benchmark::kMillisecond);

void BM_TracePhi_Threaded(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Phi, sim::SimBackend::Threaded);
}
BENCHMARK(BM_TracePhi_Threaded)->Unit(benchmark::kMillisecond);

void BM_TracePhi_Native(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Phi, sim::SimBackend::Native);
}
BENCHMARK(BM_TracePhi_Native)->Unit(benchmark::kMillisecond);

void BM_TraceStream_Switch(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Stream, sim::SimBackend::Switch);
}
BENCHMARK(BM_TraceStream_Switch)->Unit(benchmark::kMillisecond);

void BM_TraceStream_Threaded(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Stream, sim::SimBackend::Threaded);
}
BENCHMARK(BM_TraceStream_Threaded)->Unit(benchmark::kMillisecond);

void BM_TraceStream_Native(benchmark::State &State) {
  benchTrace(State, dispatchPrograms().Stream, sim::SimBackend::Native);
}
BENCHMARK(BM_TraceStream_Native)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
