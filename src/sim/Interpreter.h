//===- sim/Interpreter.h - Task IR interpreter ------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executes Task IR functionally against the simulated memory, producing the
/// cache-independent half of the PhaseStats profile plus the ordered memory
/// access stream (AccessTrace). Cache timing is filled in afterwards by the
/// runtime's trace replay in schedule order (runtime/Replay.h).
/// Interpreter is the single entry point for the three execution backends
/// (MachineConfig::Backend):
///
///  * SimBackend::Switch — the reference interpreter implemented in this
///    file: functions precompiled to a flat slot-addressed form with a
///    precomputed opcode enum, executed by one switch per instruction.
///  * SimBackend::Threaded (default) — register-allocated bytecode run by a
///    direct-threaded dispatch loop (sim/Bytecode.h,
///    sim/ThreadedInterpreter.h); Interpreter constructs a
///    ThreadedInterpreter internally and delegates. Simulated results are
///    bit-identical to the switch backend (SnapshotTest goldens,
///    tests/sim/BackendDifferentialTest.cpp); only host speed differs.
///  * SimBackend::Native — the bytecode lowered once per function to
///    executable host code (sim/NativeCodegen.h) and run by a
///    NativeInterpreter (sim/NativeExec.h); functions the lowerer rejects
///    fall back to the threaded interpreter per function. Same bit-identical
///    contract as the threaded backend.
///
/// Compiled/lowered functions are built before execution starts into a
/// CompiledProgram, which carries every backend's form and is read-only
/// from then on.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_INTERPRETER_H
#define DAECC_SIM_INTERPRETER_H

#include "sim/AccessTrace.h"
#include "sim/MachineConfig.h"
#include "sim/Memory.h"
#include "sim/PhaseStats.h"

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

namespace dae {

namespace ir {
class Function;
class GlobalVariable;
class Instruction;
} // namespace ir

namespace sim {

/// A dynamic value: integer/pointer in I, float in D (discriminated by the
/// static IR type, so no tag is needed).
struct RuntimeValue {
  std::int64_t I = 0;
  double D = 0.0;

  static RuntimeValue ofInt(std::int64_t V) {
    RuntimeValue R;
    R.I = V;
    return R;
  }
  static RuntimeValue ofFloat(double V) {
    RuntimeValue R;
    R.D = V;
    return R;
  }
};

class CompiledFunction;
class ThreadedInterpreter;
class NativeInterpreter;

namespace bc {
class BytecodeFunction;
} // namespace bc

namespace native {
class NativeCode;
} // namespace native

/// A read-only set of compiled functions, built once before execution so
/// compilation stays outside the functional pass and its timer. Populate
/// with add(), then share: lookup() is const and safe to call concurrently.
/// Under SimBackend::Threaded and SimBackend::Native each function is
/// additionally lowered to bytecode (lookupBytecode); under Native the
/// bytecode is further compiled to native code (lookupNative), null per
/// function when the lowerer rejected it.
class CompiledProgram {
public:
  CompiledProgram(const MachineConfig &Cfg, const Loader &L);
  ~CompiledProgram();
  CompiledProgram(const CompiledProgram &) = delete;
  CompiledProgram &operator=(const CompiledProgram &) = delete;

  /// Compiles \p F and every function reachable from it through calls.
  /// Idempotent; not thread safe.
  void add(const ir::Function &F);

  /// Returns the compiled form of \p F, or null when it was never added.
  const CompiledFunction *lookup(const ir::Function &F) const;

  /// Returns the bytecode form of \p F, or null when it was never added or
  /// the program was built for the switch backend.
  const bc::BytecodeFunction *lookupBytecode(const ir::Function &F) const;

  /// Returns the native code of \p F, or null when it was never added, the
  /// program was not built for the native backend, or the native lowerer
  /// rejected the function (callers fall back to the bytecode form).
  const native::NativeCode *lookupNative(const ir::Function &F) const;

private:
  const MachineConfig &Cfg;
  const Loader &Load;
  std::unordered_map<const ir::Function *, std::unique_ptr<CompiledFunction>>
      Fns;
  std::unordered_map<const ir::Function *,
                     std::unique_ptr<bc::BytecodeFunction>>
      BCs;
  std::unordered_map<const ir::Function *,
                     std::shared_ptr<const native::NativeCode>>
      NCs;
};

/// Interprets functions on a simulated core, through the backend selected by
/// MachineConfig::Backend. TaskRuntime::execute uses one per run.
class Interpreter {
public:
  /// \p Mem must already hold the workload's initialized data.
  Interpreter(const MachineConfig &Cfg, Memory &Mem, const Loader &L,
              const CompiledProgram *Shared = nullptr);
  ~Interpreter();

  /// Runs \p F with \p Args (one per formal), recording every memory access
  /// into \p Trace. The returned PhaseStats carries the cache-independent
  /// part only (instruction counts, base compute cycles, load/store/prefetch
  /// counts); hit levels, hit cycles and stalls are added by the runtime's
  /// trace replay. The optional return value is written to \p RetOut.
  ///
  /// When \p LoadSites is non-null, the originating load instruction of
  /// every Load event is appended to it in trace order (per-site profiling,
  /// see harness::profileColdLoads). Only the switch loop records sites, so
  /// asking for them runs that loop whatever the configured backend; the
  /// threaded and native hot loops never test for a sink.
  PhaseStats runTraced(const ir::Function &F,
                       const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut = nullptr,
                       std::vector<const ir::Instruction *> *LoadSites =
                           nullptr);

private:
  PhaseStats interpret(const CompiledFunction &CF,
                       const std::vector<RuntimeValue> &Args,
                       RuntimeValue *RetOut, AccessTrace &Trace,
                       std::vector<const ir::Instruction *> *LoadSites);

  const CompiledFunction &getCompiled(const ir::Function &F);

  const MachineConfig &Cfg;
  MemoryView View;
  const Loader &Load;
  const CompiledProgram *Shared; ///< Read-only; preferred over Cache.
  /// Lazy per-interpreter fallback for functions outside the shared program.
  std::unordered_map<const ir::Function *, std::unique_ptr<CompiledFunction>>
      Cache;
  /// Non-null iff Cfg.Backend == SimBackend::Threaded; runTraced delegates
  /// to it.
  std::unique_ptr<ThreadedInterpreter> Threaded;
  /// Non-null iff Cfg.Backend == SimBackend::Native; runTraced delegates to
  /// it.
  std::unique_ptr<NativeInterpreter> Native;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_INTERPRETER_H
