//===- sim/Bytecode.h - Register-allocated simulator bytecode ---*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The flat, register-allocated bytecode the threaded backend executes
/// (selected by MachineConfig::Backend == SimBackend::Threaded):
///
///  * Virtual register file indexed by dense slot IDs, laid out
///    [args][instruction values][constant pool][phi scratch]. The constant
///    pool (deduplicated ConstantInt/ConstantFloat/global-base values) is
///    copied into its register range on function entry, so every operand of
///    every instruction is a plain register index — no per-operand
///    immediate-vs-slot branch on the hot path.
///  * Phis are resolved at lowering time: every CFG edge into a block with
///    phis gets a trampoline of PhiMov/PhiMovImm parallel-copy moves
///    (cycles broken through scratch registers) ending in a Jmp that carries
///    the phi instruction count, so PhaseStats::Instructions matches the
///    reference interpreter exactly.
///  * A specialized form exists only where a paper workload executes it.
///    BytecodeCensus (tests/sim) enforces this: it fails when an opcode is
///    on neither its specialized nor its base list, or when no workload's
///    lowering emits a specialized one. The forms are the immediates AddImm,
///    SubImm, MulImm (a constant LHS of Add/Mul swaps in) and FMulImm; the
///    integer cmp + condbr fusions BrCmpEQ, BrCmpSLT, BrCmpNEImm and
///    BrCmpSLTImm; the FP load + binop fusions LoadFSubF and LoadFMulF; and
///    Gep1Shl, add+shl address math for a one-index GEP with a power-of-two
///    element size. Every other shape takes the generic form: a constant
///    operand is read from its pool register, a compare feeding a branch
///    stays Cmp* + CondBr, a load stays unfused, and a GEP becomes GepN.
///
/// Simulated observables — PhaseStats (including FP addend order on
/// ComputeCycles/StallNs), AccessTraces, memory images, and return values —
/// are bit-identical to the switch interpreter's: fused handlers apply the
/// two per-instruction cycle costs as two separate additions in original
/// program order, and every handler reproduces the reference's exact
/// RuntimeValue write pattern (.I-only / .D-only / full-struct).
///
/// Each function is lowered once per run, on its first lookup in the run's
/// sim::Program, which owns the result; BytecodeFunction is immutable
/// afterwards.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_BYTECODE_H
#define DAECC_SIM_BYTECODE_H

#include "sim/Interpreter.h"

#include <cstdint>
#include <memory>
#include <vector>

namespace dae {

namespace ir {
class Function;
} // namespace ir

namespace sim {
namespace bc {

/// Every opcode of the threaded backend. An X-macro so the dispatch loop can
/// generate its label-address table and its portable switch fallback from
/// one list without the two drifting apart.
#define DAECC_BC_OPCODES(X)                                                    \
  /* Control / data movement. */                                               \
  X(Trap)                                                                      \
  X(MovI)      /* PtrToInt/IntToPtr: Dst.I = R[A].I (counted). */              \
  X(PhiMov)    /* Phi-edge copy: Dst = R[A] (uncounted). */                    \
  X(PhiMovImm) /* Phi-edge copy: Dst = Imm (uncounted). */                     \
  /* Integer binops, reg-reg. */                                               \
  X(Add) X(Sub) X(Mul) X(SDiv) X(SRem)                                         \
  X(And) X(Or) X(Xor) X(Shl) X(AShr)                                           \
  /* Integer binops, reg-imm. */                                               \
  X(AddImm) X(SubImm) X(MulImm)                                                \
  /* FP binops, reg-reg, and FMul by a constant RHS (FP operand order is      \
     preserved, so a constant LHS stays on the reg-reg path). */              \
  X(FAdd) X(FSub) X(FMul) X(FDiv) X(FMulImm)                                   \
  /* Comparisons (write the full 0/1 RuntimeValue like the reference). */      \
  X(CmpEQ) X(CmpNE) X(CmpSLT) X(CmpSLE) X(CmpSGT) X(CmpSGE)                    \
  X(CmpFLT) X(CmpFLE) X(CmpFGT) X(CmpFGE) X(CmpFEQ) X(CmpFNE)                  \
  /* Misc value ops. */                                                        \
  X(Select) X(SIToFP) X(FPToSI)                                                \
  /* Address math. */                                                          \
  X(Gep1Shl)   /* Dst = R[A].I + (R[B].I << Imm.I); pow2 elem size. */         \
  X(GepN)      /* Every other GEP, via GepDesc[A]. */                          \
  /* Memory. */                                                                \
  X(LoadI) X(LoadF) X(StoreI) X(StoreF) X(Prefetch)                            \
  /* Fused FP load + binop superinstructions (Aux = load dst). */              \
  X(LoadFSubF) X(LoadFMulF)                                                    \
  /* Branches; targets are absolute PCs. */                                    \
  X(Jmp)    /* Instructions += Count (1 for IR br, #phis on trampolines). */   \
  X(CondBr) /* pc = R[A].I ? B : C. */                                         \
  /* Fused integer cmp + condbr (cmp dst is still written). */                 \
  X(BrCmpEQ) X(BrCmpSLT) X(BrCmpNEImm) X(BrCmpSLTImm)                          \
  /* Function exit / calls. */                                                 \
  X(Ret) X(RetVal) X(Call)

enum class Opcode : std::uint8_t {
#define DAECC_BC_ENUM(Name) Name,
  DAECC_BC_OPCODES(DAECC_BC_ENUM)
#undef DAECC_BC_ENUM
};

const char *opcodeName(Opcode Op);

/// Register index sentinel for "no destination" (void calls).
constexpr std::uint32_t NoReg = 0xFFFFFFFFu;

/// One bytecode instruction. Fixed 56-byte layout: opcode + up to five
/// register operands + an inline immediate + the one or two per-IR-instruction
/// cycle costs.
struct Instr {
  Opcode Op = Opcode::Trap;
  /// PhaseStats::Instructions bump for Jmp (1 for an IR branch, the phi
  /// count on trampoline tails, 0 is never emitted). Other opcodes hardcode
  /// their bump count in the handler.
  std::uint16_t Count = 1;
  std::uint32_t Dst = 0;
  std::uint32_t A = 0;
  std::uint32_t B = 0;
  std::uint32_t C = 0;
  /// Fifth operand: load destination for fused loads, false-target PC for
  /// fused compare-and-branch.
  std::uint32_t Aux = 0;
  /// Core-clocked cost of the (first fused) IR instruction; added to
  /// ComputeCycles before the op executes, exactly like the reference.
  double Cost = 0.0;
  /// Cost of the second fused IR instruction; applied as a separate addition
  /// after the first op's effects so the FP addend order matches an unfused
  /// execution.
  double CostB = 0.0;
  RuntimeValue Imm;
};

/// Multi-index GEP payload:
///   Dst = R[Base].I + ElemSize * (((i0 * Dims[1] + i1) * Dims[2] + i2) ...)
struct GepDesc {
  std::uint32_t Base = 0;
  std::int64_t ElemSize = 0;
  std::vector<std::int64_t> Dims;
  std::vector<std::uint32_t> IdxRegs;
};

/// Call payload; the callee's bytecode is resolved through the interpreter's
/// program at execution time, mirroring the reference's getCompiled().
struct CallDesc {
  const ir::Function *Callee = nullptr;
  std::vector<std::uint32_t> ArgRegs;
};

/// Executable lowered form of one function. Immutable after lower();
/// shareable read-only across threads.
class BytecodeFunction {
public:
  /// The function this was lowered from, named in diagnostics.
  const ir::Function *Source = nullptr;
  std::vector<Instr> Code;
  std::vector<GepDesc> GepDescs;
  std::vector<CallDesc> CallDescs;
  /// Deduplicated constants, copied into registers [ConstBase, ConstBase +
  /// ConstPool.size()) on entry.
  std::vector<RuntimeValue> ConstPool;
  std::uint32_t ConstBase = 0;
  std::uint32_t NumRegs = 0;
  std::uint32_t NumArgs = 0;
};

/// Lowers \p F to bytecode. Global addresses are baked in through \p L and
/// per-instruction costs through \p Cfg, exactly as CompiledFunction does.
std::unique_ptr<BytecodeFunction>
lower(const ir::Function &F, const Loader &L, const MachineConfig &Cfg);

} // namespace bc
} // namespace sim
} // namespace dae

#endif // DAECC_SIM_BYTECODE_H
