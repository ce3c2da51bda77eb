//===- sim/NativeExec.cpp - Native-backend execution engine -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
// The C++ half of the native backend: frame management, the slow-path
// helpers generated code calls (an access outside the footprint, trace
// growth, calls), and the per-function threaded fallback. The fast paths —
// dispatch, value ops, trace appends, bounds-checked loads and stores — live
// entirely in the generated code (sim/NativeCodegen.cpp).
//
// Bit-exactness protocols (verified against ThreadedInterpreter::exec):
//
//  * Integer counters (Instructions/Loads/Stores/Prefetches) are
//    order-independent totals; all activations of one top-level run
//    accumulate into the shared NativeContext cells (generated code flushes
//    region-constant increments), flushed into the returned PhaseStats once.
//
//  * ComputeCycles must reproduce the reference's FP addend order exactly.
//    Each generated function accumulates its own costs in a register
//    (starting at 0.0) and adds the total into ctx->Cycles at its epilogue.
//    Across a call, nativeCall saves the caller's partial sum, zeroes
//    ctx->Cycles, runs the callee (so ctx->Cycles ends as 0.0 + calleeTotal
//    — bitwise equal to calleeTotal, costs being non-negative), restores,
//    and merges with ONE addition — exactly the reference's
//    `Cycles += Sub.ComputeCycles`.
//
//===----------------------------------------------------------------------===//

#include "sim/NativeExec.h"

#include "ir/Function.h"
#include "sim/NativeCodegen.h"

#include <algorithm>
#include <cassert>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;
using native::NativeContext;

namespace dae {
namespace sim {

/// Static shims matching the NativeContext function-pointer types; they
/// bounce to the owning interpreter through ctx->Self.
struct NativeHelpers {
  static void outOfBounds(NativeContext *C, std::uint64_t Addr) {
    C->Self->Mem.outOfBounds(Addr);
  }

  static void traceGrow(NativeContext *C, std::uint64_t Needed) {
    C->Self->traceGrow(Needed);
  }

  static void call(NativeContext *C, const bc::CallDesc *D,
                   std::uint32_t DstReg) {
    C->Self->nativeCall(*D, DstReg);
  }
};

} // namespace sim
} // namespace dae

NativeInterpreter::NativeInterpreter(const MachineConfig &Cfg, Memory &Mem,
                                     const Loader &L,
                                     const CompiledProgram *Shared)
    : Cfg(Cfg), Mem(Mem), Load(L), Shared(Shared),
      Fallback(Cfg, Mem, L, Shared) {
  const MemoryView View(Mem, L);
  Ctx.MemBase = View.base();
  Ctx.MemLo = View.lo();
  Ctx.MemLimit = View.limit();
  Ctx.Self = this;
  Ctx.OutOfBounds = &NativeHelpers::outOfBounds;
  Ctx.TraceGrow = &NativeHelpers::traceGrow;
  Ctx.Call = &NativeHelpers::call;
}

NativeInterpreter::~NativeInterpreter() = default;

NativeInterpreter::FnEntry NativeInterpreter::getFn(const Function &F) {
  if (&F == LastFn)
    return LastEntry;
  FnEntry E;
  if (Shared) {
    E.BC = Shared->lookupBytecode(F);
    E.Code = Shared->lookupNative(F);
  }
  if (!E.BC) {
    auto It = LocalBC.find(&F);
    if (It == LocalBC.end())
      It = LocalBC.emplace(&F, bc::lower(F, Load, Cfg)).first;
    E.BC = It->second.get();
  }
  if (!E.Code) {
    auto It = LocalCode.find(&F);
    if (It == LocalCode.end())
      It = LocalCode.emplace(&F, native::compile(*E.BC)).first;
    E.Code = It->second.get();
  }
  LastFn = &F;
  LastEntry = E;
  return E;
}

void NativeInterpreter::traceGrow(std::uint64_t Needed) {
  assert(CurTrace && "trace growth outside a traced run");
  Ctx.TracePtr = CurTrace->nativeGrow(Ctx.TracePtr,
                                      static_cast<std::size_t>(Needed));
  Ctx.TraceEnd = CurTrace->nativeEnd();
}

void NativeInterpreter::invoke(const bc::BytecodeFunction &BF,
                               const native::NativeCode &Code,
                               const RuntimeValue *Args, std::size_t NArgs) {
  // Per-activation frame carved out of the shared arena, exactly like the
  // threaded backend (registers are def-before-use by SSA dominance, so
  // stale bytes from earlier frames are never observed).
  const std::size_t FrameBase = FrameTop;
  if (Arena.size() < FrameBase + BF.NumRegs)
    Arena.resize(std::max(Arena.size() * 2,
                          static_cast<std::size_t>(FrameBase + BF.NumRegs)));
  FrameTop = FrameBase + BF.NumRegs;
  RuntimeValue *R = Arena.data() + FrameBase;
  for (std::size_t K = 0; K != NArgs; ++K)
    R[K] = Args[K];
  for (std::size_t K = 0; K != BF.ConstPool.size(); ++K)
    R[BF.ConstBase + K] = BF.ConstPool[K];
  Ctx.Frame = R;
  Code.entry()(&Ctx);
  FrameTop = FrameBase;
}

void NativeInterpreter::nativeCall(const bc::CallDesc &D,
                                   std::uint32_t DstReg) {
  // Gather actuals from the caller's frame into an on-stack buffer (heap
  // fallback for arbitrary signatures), mirroring the threaded Call handler.
  RuntimeValue ArgBuf[16];
  std::vector<RuntimeValue> ArgSpill;
  RuntimeValue *CallArgs = ArgBuf;
  const std::size_t N = D.ArgRegs.size();
  if (N > 16) {
    ArgSpill.resize(N);
    CallArgs = ArgSpill.data();
  }
  {
    const RuntimeValue *R = Ctx.Frame;
    for (std::size_t K = 0; K != N; ++K)
      CallArgs[K] = R[D.ArgRegs[K]];
  }
  // The callee may grow the arena; remember the caller frame by offset.
  const std::ptrdiff_t CallerBase = Ctx.Frame - Arena.data();

  RuntimeValue Ret;
  FnEntry E = getFn(*D.Callee);
  if (E.Code) {
    Ctx.RetValid = 0;
    const double CallerPartial = Ctx.Cycles;
    Ctx.Cycles = 0.0;
    invoke(*E.BC, *E.Code, CallArgs, N);
    const double SubCycles = Ctx.Cycles; // 0.0 + calleeTotal == calleeTotal
    if (Ctx.RetValid)
      Ret = Ctx.Ret;
    Ctx.Cycles = CallerPartial + SubCycles; // the one reference addition
  } else {
    // Callee has no native code: run it through the threaded interpreter and
    // resume. Semantically this IS the reference Call handler. Hand the open
    // trace cursor back to the vector for the duration.
    std::vector<RuntimeValue> ArgVec(CallArgs, CallArgs + N);
    CurTrace->nativeCommit(Ctx.TracePtr);
    PhaseStats Sub = Fallback.runTraced(*D.Callee, ArgVec, *CurTrace, &Ret);
    Ctx.TracePtr = CurTrace->nativeBegin(0);
    Ctx.TraceEnd = CurTrace->nativeEnd();
    Ctx.NInstr += Sub.Instructions;
    Ctx.NLoads += Sub.Loads;
    Ctx.NStores += Sub.Stores;
    Ctx.NPrefetches += Sub.Prefetches;
    Ctx.Cycles += Sub.ComputeCycles;
  }

  Ctx.Frame = Arena.data() + CallerBase;
  if (DstReg != bc::NoReg)
    Ctx.Frame[DstReg] = Ret;
}

PhaseStats NativeInterpreter::runTraced(const Function &F,
                                        const std::vector<RuntimeValue> &Args,
                                        AccessTrace &Trace,
                                        RuntimeValue *RetOut) {
  assert(Args.size() == F.getNumArgs() && "argument count mismatch");
  FnEntry E = getFn(F);
  if (!E.Code)
    return Fallback.runTraced(F, Args, Trace, RetOut);
  CurTrace = &Trace;
  PhaseStats S;
  Ctx.NInstr = Ctx.NLoads = Ctx.NStores = Ctx.NPrefetches = 0;
  Ctx.Cycles = 0.0;
  Ctx.RetValid = 0;
  Ctx.TracePtr = Trace.nativeBegin(0);
  Ctx.TraceEnd = Trace.nativeEnd();
  invoke(*E.BC, *E.Code, Args.data(), Args.size());
  Trace.nativeCommit(Ctx.TracePtr);
  CurTrace = nullptr;
  S.Instructions += Ctx.NInstr;
  S.Loads += Ctx.NLoads;
  S.Stores += Ctx.NStores;
  S.Prefetches += Ctx.NPrefetches;
  S.ComputeCycles += Ctx.Cycles; // 0.0 + total, like the reference's flush
  if (RetOut && Ctx.RetValid)
    *RetOut = Ctx.Ret;
  return S;
}
