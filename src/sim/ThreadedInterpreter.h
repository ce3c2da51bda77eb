//===- sim/ThreadedInterpreter.h - Direct-threaded backend ------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The threaded execution backend: runs the register-allocated bytecode of
/// sim/Bytecode.h through a direct-threaded dispatch loop (computed goto on
/// GCC/Clang via a label-address table, a plain switch elsewhere). It is the
/// default backend (MachineConfig::Backend); sim::Interpreter constructs one
/// internally and delegates, so callers keep the single Interpreter API. It
/// runs the bytecode of that Interpreter's Program, which lowers each
/// function on its first lookup. Only the threaded backend runs it.
///
/// Semantics are bit-identical to the switch interpreter — same PhaseStats
/// (including FP addend order), AccessTraces, memory images and return
/// values — verified by tests/sim/BackendDifferentialTest.cpp and the
/// SnapshotTest goldens. Trace emission is inlined at the load/store/prefetch
/// sites, and every counter lives in a register-resident local flushed once
/// at function exit.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_THREADEDINTERPRETER_H
#define DAECC_SIM_THREADEDINTERPRETER_H

#include "sim/Bytecode.h"
#include "sim/Interpreter.h"

#include <vector>

namespace dae {
namespace sim {

/// Executes functions lowered to bytecode on a simulated core. One instance
/// per threaded-backend Interpreter, reading every function's bytecode from
/// that Interpreter's Program.
class ThreadedInterpreter {
public:
  /// \p Prog is the owning Interpreter's and outlives this one.
  ThreadedInterpreter(Program &Prog, Memory &Mem);

  /// Identical contract to Interpreter::runTraced without a load-site sink.
  PhaseStats runTraced(const ir::Function &F,
                       const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut = nullptr);

private:
  /// Args passed as pointer+count so the Call handler can forward from an
  /// on-stack buffer without materializing a vector per call.
  PhaseStats exec(const bc::BytecodeFunction &BF, const RuntimeValue *Args,
                  std::size_t NArgs, RuntimeValue *RetOut, AccessTrace &Trace);

  /// Register-file arena shared by all activations: each exec() carves its
  /// frame at FrameTop and restores it on return, so repeated task runs and
  /// nested calls reuse one allocation instead of a fresh zeroed vector per
  /// invocation. Registers are def-before-use by SSA dominance, so stale
  /// bytes from earlier frames are never observed.
  std::vector<RuntimeValue> Frame;
  std::size_t FrameTop = 0;

  Program &Prog;
  MemoryView View;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_THREADEDINTERPRETER_H
