//===- sim/NativeCodegen.h - Bytecode -> native code lowering ---*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the register-allocated bytecode of sim/Bytecode.h once per function
/// to executable host code, the third execution backend
/// (MachineConfig::Backend == SimBackend::Native). Two lowering modes share
/// one ABI (native::NativeContext in sim/NativeExec.h):
///
///  * Jit — an x86-64 template JIT: per-opcode stencils assembled into an
///    mmap'd code buffer, made W^X (RW while emitting, RX before publishing).
///    The load/store sites are the point: trace emission is two raw stores
///    against a pre-reserved buffer with the capacity check hoisted to the
///    head of each straight-line region, and page translation is
///    strength-reduced to a tag compare + add against a register-cached
///    (page tag, host-minus-simulated delta) pair.
///  * Cemit — portable fallback: the same lowering emitted as a C source
///    file, compiled through $DAECC_NATIVE_CC (default "cc") into a shared
///    object and dlopen'd. Keeps the backend alive on non-x86-64 hosts and
///    under sanitizers (which cannot instrument raw JIT code).
///
/// Every function is lowered once, to one entry point that appends its
/// memory accesses to the AccessTrace inline and accumulates its costs
/// locally; cache timing is added later by the runtime's trace replay.
///
/// compile() returns null for functions the lowerer rejects (unsupported
/// opcode, mmap/cc failure); the execution layer then falls back to the
/// threaded interpreter for that function — degraded speed, never degraded
/// correctness. Compiled code is immutable, self-contained except for the
/// NativeContext helpers, and shared read-only across threads; a process-wide
/// content-addressed cache dedupes identical bytecode across interpreters.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_NATIVECODEGEN_H
#define DAECC_SIM_NATIVECODEGEN_H

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

/// Lowering mode selection.
enum class Mode : std::uint8_t {
  /// Pick per host: Jit on x86-64 without address/thread sanitizers, Cemit
  /// elsewhere. Overridable via DAECC_NATIVE_MODE={jit,cemit,auto}; any
  /// other value is a hard configuration error (exit 2).
  Auto,
  Jit,
  Cemit,
};

struct Options {
  Mode LowerMode = Mode::Auto;
  /// Testing hook: abort (after a diagnostic) instead of returning null when
  /// a function contains an opcode the lowerer does not support. The death
  /// test pins that rejection is loud under the hook and graceful without.
  bool AbortOnUnsupported = false;
};

/// One function's executable native code: its entry point plus the backing
/// storage (an mmap'd W^X buffer or a dlopen'd shared object). Immutable and
/// safe to execute concurrently from any thread.
class NativeCode {
public:
  virtual ~NativeCode();
  NativeCode(const NativeCode &) = delete;
  NativeCode &operator=(const NativeCode &) = delete;

  EntryFn entry() const { return Entry; }

  /// True when backed by the x86-64 JIT (vs. a compiled-C shared object).
  bool isJit() const { return Jit; }
  /// Base/size of the executable region (W^X tests; null/0 for Cemit).
  const std::uint8_t *codeAddr() const { return CodeAddr; }
  std::size_t codeSize() const { return CodeSize; }

protected:
  NativeCode() = default;
  EntryFn Entry = nullptr;
  bool Jit = false;
  const std::uint8_t *CodeAddr = nullptr;
  std::size_t CodeSize = 0;
};

/// Lowers \p BF to native code, or returns null when the function cannot be
/// lowered (unsupported opcode, host without a usable mode, cc/mmap failure)
/// — callers must then execute \p BF through the threaded interpreter.
/// Results are served from a process-wide content-addressed cache that keeps
/// every entry (failures included) for the life of the process, so compiling
/// the same bytecode from many interpreters costs one lowering. Thread safe.
std::shared_ptr<const NativeCode> compile(const bc::BytecodeFunction &BF,
                                          const Options &Opts = Options());

/// The mode Auto resolves to on this host ("jit" or "cemit"), after
/// DAECC_NATIVE_MODE; for logs and tests.
const char *activeModeName();

} // namespace native
} // namespace sim
} // namespace dae

#endif // DAECC_SIM_NATIVECODEGEN_H
