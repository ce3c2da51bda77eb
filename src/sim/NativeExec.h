//===- sim/NativeExec.h - Native-code execution backend ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The native execution backend (MachineConfig::Backend == SimBackend::
/// Native): runs functions lowered by sim/NativeCodegen.h to executable host
/// code. NativeInterpreter mirrors ThreadedInterpreter's contract exactly —
/// same PhaseStats (FP addend order included), AccessTraces, memory images
/// and return values — verified by tests/sim/BackendDifferentialTest.cpp
/// across all three backends.
///
/// NativeContext is the ABI (version 3) between the JIT's stencils and the
/// C++ runtime: a fixed-layout struct holding the current activation's
/// register file, the register-resident counters, the inlined trace write
/// cursor, the interpreter's memory bounds (arena base, first footprint
/// address, valid-start count; see sim/Memory.h), and the helper entry
/// points generated code calls for the slow paths (an access outside the
/// footprint, trace growth, calls). The bounds are per interpreter and read
/// at every entry, never baked into code. All fields are 8-byte scalars (Ret
/// is two) at fixed offsets asserted below; the x86-64 emitter addresses
/// them as [ctx + offset].
///
/// Every function's bytecode and native code come from the owning
/// Interpreter's Program, and every function runs as JIT code, callees
/// reached mid-trace included: there is no second engine. A function the
/// JIT cannot compile stops the run when the Program compiles it (see
/// NativeCodegen.h), and a build without the JIT has no native backend.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_NATIVEEXEC_H
#define DAECC_SIM_NATIVEEXEC_H

#include "sim/Bytecode.h"
#include "sim/Interpreter.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dae {
namespace sim {

class NativeInterpreter;

namespace native {

class NativeCode;

/// The ABI struct shared by JIT'd code and the C++ helpers.
/// Canonical-at-boundaries rule: generated code may cache any field in a
/// host register between helper calls, but must write the cached values
/// back before every helper call and read them back afterwards — helpers
/// treat the struct as the single source of truth. The memory bounds are
/// the exception: they never change for an interpreter, so cached copies
/// need neither.
struct NativeContext {
  RuntimeValue *Frame = nullptr;    ///< Current activation's register file.
  std::uint64_t NInstr = 0;         ///< Shared order-independent counters...
  std::uint64_t NLoads = 0;         ///< ...flushed into PhaseStats once at
  std::uint64_t NStores = 0;        ///< the top-level exit (all activations
  std::uint64_t NPrefetches = 0;    ///< accumulate into the same cells).
  double Cycles = 0.0;              ///< ComputeCycles protocol: caller's
                                    ///< partial sum across a call, merged
                                    ///< total after it (see NativeExec.cpp,
                                    ///< nativeCall).
  std::uint64_t *TracePtr = nullptr; ///< Next trace event write slot.
  std::uint64_t *TraceEnd = nullptr; ///< One past the reserved trace storage.
  std::uint8_t *MemBase = nullptr;  ///< Host address of simulated address 0.
  std::uint64_t MemLo = 0;          ///< An access at Addr is valid iff
  std::uint64_t MemLimit = 0;       ///< Addr - MemLo < MemLimit (unsigned).
  RuntimeValue Ret;                 ///< Return-value slot (RetVal opcode).
  std::uint64_t RetValid = 0;       ///< 1 iff the activation ended in RetVal.
  NativeInterpreter *Self = nullptr;
  // Helper entry points, called by generated code as fn(ctx, args...).
  /// Reports an access outside the footprint and aborts; never returns.
  void (*OutOfBounds)(NativeContext *, std::uint64_t Addr) = nullptr;
  void (*TraceGrow)(NativeContext *, std::uint64_t Needed) = nullptr;
  void (*Call)(NativeContext *, const bc::CallDesc *D,
               std::uint32_t DstReg) = nullptr;
};

// The x86-64 emitter bakes these offsets into [ctx + disp] addressing; keep
// them in lockstep with the struct (any drift is a compile-time error here,
// not a silent miscompile there).
static_assert(offsetof(NativeContext, Frame) == 0, "ABI layout");
static_assert(offsetof(NativeContext, NInstr) == 8, "ABI layout");
static_assert(offsetof(NativeContext, NLoads) == 16, "ABI layout");
static_assert(offsetof(NativeContext, NStores) == 24, "ABI layout");
static_assert(offsetof(NativeContext, NPrefetches) == 32, "ABI layout");
static_assert(offsetof(NativeContext, Cycles) == 40, "ABI layout");
static_assert(offsetof(NativeContext, TracePtr) == 48, "ABI layout");
static_assert(offsetof(NativeContext, TraceEnd) == 56, "ABI layout");
static_assert(offsetof(NativeContext, MemBase) == 64, "ABI layout");
static_assert(offsetof(NativeContext, MemLo) == 72, "ABI layout");
static_assert(offsetof(NativeContext, MemLimit) == 80, "ABI layout");
static_assert(offsetof(NativeContext, Ret) == 88, "ABI layout");
static_assert(offsetof(NativeContext, RetValid) == 104, "ABI layout");
static_assert(offsetof(NativeContext, Self) == 112, "ABI layout");
static_assert(offsetof(NativeContext, OutOfBounds) == 120, "ABI layout");
static_assert(offsetof(NativeContext, TraceGrow) == 128, "ABI layout");
static_assert(offsetof(NativeContext, Call) == 136, "ABI layout");

} // namespace native

/// Executes functions compiled to native code on a simulated core. One
/// instance per Interpreter, reading every function's bytecode and native
/// code from that Interpreter's Program.
class NativeInterpreter {
public:
  /// \p Prog is the owning Interpreter's and outlives this one.
  NativeInterpreter(Program &Prog, Memory &Mem);
  ~NativeInterpreter();

  /// Identical contract to Interpreter::runTraced without a load-site sink.
  PhaseStats runTraced(const ir::Function &F,
                       const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut = nullptr);

private:
  friend struct NativeHelpers; ///< The extern-"C"-style helper shims.

  /// Carves a frame, copies args + const pool, and invokes \p Code's entry
  /// point with the context set up for a fresh activation.
  void invoke(const bc::BytecodeFunction &BF, const native::NativeCode &Code,
              const RuntimeValue *Args, std::size_t NArgs);

  /// The Call-helper body: runs a callee's native code from inside generated
  /// code and merges its stats exactly like the threaded backend's Call
  /// handler.
  void nativeCall(const bc::CallDesc &D, std::uint32_t DstReg);

  void traceGrow(std::uint64_t Needed);

  native::NativeContext Ctx;
  /// Register-file arena shared by all activations (same discipline as
  /// ThreadedInterpreter::Frame; writes stay within size()).
  std::vector<RuntimeValue> Arena;
  std::size_t FrameTop = 0;

  Program &Prog;
  const Memory &Mem; ///< Reports accesses outside the footprint.

  AccessTrace *CurTrace = nullptr;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_NATIVEEXEC_H
