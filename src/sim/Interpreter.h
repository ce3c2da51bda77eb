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
///    ThreadedInterpreter internally and delegates.
///  * SimBackend::Native — the bytecode lowered once per function to
///    executable host code (sim/NativeCodegen.h) and run by a
///    NativeInterpreter (sim/NativeExec.h). It runs JIT code only: a
///    function the JIT rejects stops the run, and a build without the JIT
///    has no native backend (sim::simBackendBuilt).
///
/// Every backend counts the same integers for a run (sim::RunCounts:
/// instructions, accesses, and instructions per cost class), and runTraced
/// prices them once with sim::priceCounts. So simulated results are
/// bit-identical across backends (SnapshotTest goldens,
/// tests/sim/BackendDifferentialTest.cpp); only host speed differs.
///
/// One engine per backend: a run executes every function, callees
/// included, on its configured backend's engine alone. Each Interpreter
/// owns one Program, which compiles a function on its first lookup into
/// exactly the form that engine runs, and frees it with the Interpreter.
/// TaskRuntime::execute looks up every task function before its
/// functional-pass timer starts. Load-site recording
/// (harness::profileColdLoads) is the switch engine's alone.
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

/// The compiled forms of the functions one run executes: the one program
/// its Interpreter owns. A function is compiled on its first lookup into
/// exactly the form its backend runs, and its forms live as long as the
/// Interpreter; native code is unmapped with them. Like the run's Memory, a
/// program is confined to the thread that runs the simulation.
class Program {
public:
  /// One function's compiled forms; only the configured backend's are set.
  struct Forms {
    /// The slot-addressed form the switch loop runs, under
    /// SimBackend::Switch.
    std::unique_ptr<CompiledFunction> Switch;
    /// Register-allocated bytecode (sim/Bytecode.h), under
    /// SimBackend::Threaded and SimBackend::Native.
    std::unique_ptr<bc::BytecodeFunction> Bytecode;
    /// Native code (sim/NativeCodegen.h), built from Bytecode under
    /// SimBackend::Native. Never null there: a function the JIT cannot
    /// compile stops the run.
    std::unique_ptr<native::NativeCode> Native;
  };

  Program(const MachineConfig &Cfg, const Loader &L);
  ~Program();
  Program(const Program &) = delete;
  Program &operator=(const Program &) = delete;

  /// Returns \p F's forms for the configured backend. The first lookup of a
  /// function compiles it and every function reachable from it through
  /// calls, so looking up each entry function before a run keeps
  /// compilation out of the run.
  const Forms &lookup(const ir::Function &F);

  const Loader &loader() const { return Load; }

private:
  const MachineConfig &Cfg;
  const Loader &Load;
  std::unordered_map<const ir::Function *, Forms> Fns;
};

/// Interprets functions on a simulated core, through the backend selected by
/// MachineConfig::Backend. TaskRuntime::execute uses one per run.
class Interpreter {
public:
  /// \p Mem must already hold the workload's initialized data.
  Interpreter(const MachineConfig &Cfg, Memory &Mem, const Loader &L);
  ~Interpreter();

  /// Runs \p F with \p Args (one per formal), recording every memory access
  /// into \p Trace. The returned PhaseStats carries the cache-independent
  /// part only: the run's counts, and its compute cycles priced once from
  /// its instructions' cost classes (priceCounts). Hit levels, hit cycles
  /// and stalls are added by the runtime's trace replay. The optional
  /// return value is written to \p RetOut.
  ///
  /// When \p LoadSites is non-null, the originating load instruction of
  /// every Load event is appended to it in trace order (per-site profiling,
  /// see harness::profileColdLoads). Only the switch backend records sites:
  /// passing a sink to any other throws std::invalid_argument, so the
  /// threaded and native hot loops never test for one.
  PhaseStats runTraced(const ir::Function &F,
                       const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut = nullptr,
                       std::vector<const ir::Instruction *> *LoadSites =
                           nullptr);

  /// The run's compiled functions.
  Program &program() { return Prog; }

private:
  /// Runs \p CF on the switch engine, adding its counts, and its callees',
  /// to \p Total.
  void interpret(const CompiledFunction &CF,
                 const std::vector<RuntimeValue> &Args, RuntimeValue *RetOut,
                 AccessTrace &Trace,
                 std::vector<const ir::Instruction *> *LoadSites,
                 RunCounts &Total);

  const MachineConfig &Cfg;
  MemoryView View;
  Program Prog;
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
