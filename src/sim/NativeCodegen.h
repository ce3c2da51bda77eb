//===- sim/NativeCodegen.h - Bytecode -> native code lowering ---*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the register-allocated bytecode of sim/Bytecode.h once per function
/// to x86-64 machine code, the third execution backend
/// (MachineConfig::Backend == SimBackend::Native). The lowering is a
/// template JIT: per-opcode stencils assembled into an mmap'd code buffer,
/// made W^X (RW while emitting, RX before publishing). The load/store sites
/// are the point: trace emission is two raw stores against a pre-reserved
/// buffer with the capacity check hoisted to the head of each straight-line
/// region, and the bounds check is a subtract, compare and add against the
/// register-resident footprint. Generated code and the C++ runtime meet at
/// one ABI, native::NativeContext in sim/NativeExec.h.
///
/// Every function is lowered once, to one entry point that appends its
/// memory accesses to the AccessTrace inline and accumulates its costs
/// locally; cache timing is added later by the runtime's trace replay.
///
/// The native backend runs JIT code only, so a function the lowerer rejects
/// (an opcode without a stencil, an mmap or mprotect failure) stops the run
/// in compile() with a diagnostic naming the function and the cause. A
/// build without the JIT (DAECC_NATIVE_JIT, see sim/MachineConfig.h) has no
/// native backend. Compiled code is immutable and self-contained except for
/// the NativeContext helpers. The run's sim::Program owns it next to the
/// bytecode it was lowered from, whose call descriptors it addresses, and
/// unmaps it when the run ends.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_NATIVECODEGEN_H
#define DAECC_SIM_NATIVECODEGEN_H

#include "sim/MachineConfig.h"

#include <cstddef>
#include <cstdint>
#include <memory>

namespace dae {
namespace sim {
namespace bc {
class BytecodeFunction;
} // namespace bc

namespace native {

struct NativeContext;

/// Entry point of one compiled function: runs a full activation against the
/// context's current Frame/counters/trace cursor and returns at Ret/RetVal.
using EntryFn = void (*)(NativeContext *);

/// One function's executable native code: an mmap'd W^X buffer that starts
/// with the function's entry point. Immutable; unmaps the buffer when
/// destroyed.
class NativeCode {
public:
  /// Takes ownership of the \p Size mapped bytes at \p Base, already
  /// read-execute.
  NativeCode(std::uint8_t *Base, std::size_t Size);
  ~NativeCode();
  NativeCode(const NativeCode &) = delete;
  NativeCode &operator=(const NativeCode &) = delete;

  EntryFn entry() const { return reinterpret_cast<EntryFn>(Base); }

  /// Base/size of the executable region (W^X tests).
  const std::uint8_t *codeAddr() const { return Base; }
  std::size_t codeSize() const { return Size; }

private:
  std::uint8_t *Base;
  std::size_t Size;
};

/// Lowers \p BF to native code. A function that cannot be lowered (an
/// opcode without a stencil, an mmap or mprotect failure, a build without
/// the JIT) is a hard error: a diagnostic naming the function and the
/// opcode or cause, then abort. The code embeds the addresses of \p BF's
/// call descriptors, so it must not outlive \p BF.
std::unique_ptr<NativeCode> compile(const bc::BytecodeFunction &BF);

} // namespace native
} // namespace sim
} // namespace dae

#endif // DAECC_SIM_NATIVECODEGEN_H
