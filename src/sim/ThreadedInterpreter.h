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
/// internally and delegates, so callers keep the single Interpreter API.
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

#include <memory>
#include <unordered_map>
#include <vector>

namespace dae {
namespace sim {

/// Executes functions lowered to bytecode on a simulated core. One instance
/// per Interpreter; compiled/lowered code is shared read-only through the
/// CompiledProgram, with a lazy per-interpreter fallback for functions
/// outside it (mirroring Interpreter).
class ThreadedInterpreter {
public:
  ThreadedInterpreter(const MachineConfig &Cfg, Memory &Mem, const Loader &L,
                      const CompiledProgram *Shared);

  /// Identical contract to Interpreter::runTraced without a load-site sink.
  PhaseStats runTraced(const ir::Function &F,
                       const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut = nullptr);

private:
  /// Args passed as pointer+count so the Call handler can forward from an
  /// on-stack buffer without materializing a vector per call.
  PhaseStats exec(const bc::BytecodeFunction &BF, const RuntimeValue *Args,
                  std::size_t NArgs, RuntimeValue *RetOut, AccessTrace &Trace);

  const bc::BytecodeFunction &getBytecode(const ir::Function &F);

  /// Register-file arena shared by all activations: each exec() carves its
  /// frame at FrameTop and restores it on return, so repeated task runs and
  /// nested calls reuse one allocation instead of a fresh zeroed vector per
  /// invocation. Registers are def-before-use by SSA dominance, so stale
  /// bytes from earlier frames are never observed.
  std::vector<RuntimeValue> Frame;
  std::size_t FrameTop = 0;

  /// One-entry memo in front of the Shared/Cache lookups: tasks run the same
  /// function back to back, so getBytecode is almost always a pointer
  /// compare.
  const ir::Function *LastFn = nullptr;
  const bc::BytecodeFunction *LastBC = nullptr;

  const MachineConfig &Cfg;
  MemoryView View;
  const Loader &Load;
  const CompiledProgram *Shared; ///< Read-only; preferred over Cache.
  /// Lazy per-interpreter fallback for functions outside the shared program.
  std::unordered_map<const ir::Function *,
                     std::unique_ptr<bc::BytecodeFunction>>
      Cache;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_THREADEDINTERPRETER_H
