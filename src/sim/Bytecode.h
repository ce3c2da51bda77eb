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
///  * Constants additionally fold into immediate opcode variants (AddImm,
///    CmpSLTImm, FMulImm, ...) for the common const-RHS shapes; integer
///    commutative ops swap a const LHS into the immediate form.
///  * Phis are resolved at lowering time: every CFG edge into a block with
///    phis gets a trampoline of PhiMov/PhiMovImm parallel-copy moves
///    (cycles broken through scratch registers) ending in a Jmp that carries
///    the phi instruction count, so PhaseStats::Instructions matches the
///    reference interpreter exactly.
///  * Superinstruction fusion for the hot adjacent pairs the workloads
///    execute: integer cmp + condbr (BrCmp*, also *Imm forms), FP/int
///    load + binop (LoadFAddF, ...), and GEP-style add+shl address math
///    (Gep1Shl for power-of-two element sizes).
///
/// Simulated observables — PhaseStats (including FP addend order on
/// ComputeCycles/StallNs), AccessTraces, memory images, and return values —
/// are bit-identical to the switch interpreter's: fused handlers apply the
/// two per-instruction cycle costs as two separate additions in original
/// program order, and every handler reproduces the reference's exact
/// RuntimeValue write pattern (.I-only / .D-only / full-struct).
///
/// Lowering happens once, single-threaded (CompiledProgram::add or a
/// ThreadedInterpreter's lazy cache); BytecodeFunction is immutable
/// afterwards and safe to share read-only across threads.
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
  X(MovImm)    /* Fully folded value: Dst = Imm (counted). */                  \
  X(PhiMov)    /* Phi-edge copy: Dst = R[A] (uncounted). */                    \
  X(PhiMovImm) /* Phi-edge copy: Dst = Imm (uncounted). */                     \
  /* Integer binops, reg-reg. */                                               \
  X(Add) X(Sub) X(Mul) X(SDiv) X(SRem)                                         \
  X(And) X(Or) X(Xor) X(Shl) X(AShr)                                           \
  /* Integer binops, reg-imm. */                                               \
  X(AddImm) X(SubImm) X(MulImm) X(ShlImm) X(AShrImm)                           \
  /* FP binops, reg-reg and reg-imm (const RHS only; FP operand order is      \
     preserved, so const-LHS shapes stay on the reg-reg path). */              \
  X(FAdd) X(FSub) X(FMul) X(FDiv)                                              \
  X(FAddImm) X(FSubImm) X(FMulImm) X(FDivImm)                                  \
  /* Comparisons (write the full 0/1 RuntimeValue like the reference). */      \
  X(CmpEQ) X(CmpNE) X(CmpSLT) X(CmpSLE) X(CmpSGT) X(CmpSGE)                    \
  X(CmpFLT) X(CmpFLE) X(CmpFGT) X(CmpFGE) X(CmpFEQ) X(CmpFNE)                  \
  X(CmpEQImm) X(CmpNEImm) X(CmpSLTImm) X(CmpSLEImm) X(CmpSGTImm) X(CmpSGEImm)  \
  /* Misc value ops. */                                                        \
  X(Select) X(SIToFP) X(FPToSI)                                                \
  /* Address math. */                                                          \
  X(Gep1Shl)   /* Dst = R[A].I + (R[B].I << Imm.I); pow2 elem size. */         \
  X(GepMul)    /* Dst = R[A].I + R[B].I * Imm.I. */                            \
  X(GepAddImm) /* Dst = R[A].I + Imm.I; constant index. */                     \
  X(GepN)      /* Multi-index form via GepDesc[A]. */                          \
  /* Memory. */                                                                \
  X(LoadI) X(LoadF) X(StoreI) X(StoreF) X(Prefetch)                            \
  /* Fused load + binop superinstructions (Aux = load dst). */                 \
  X(LoadFAddF) X(LoadFSubF) X(LoadFMulF) X(LoadIAddI)                          \
  /* Branches; targets are absolute PCs. */                                    \
  X(Jmp)    /* Instructions += Count (1 for IR br, #phis on trampolines). */   \
  X(CondBr) /* pc = R[A].I ? B : C. */                                         \
  /* Fused integer cmp + condbr (cmp dst is still written). */                 \
  X(BrCmpEQ) X(BrCmpNE) X(BrCmpSLT) X(BrCmpSLE) X(BrCmpSGT) X(BrCmpSGE)        \
  X(BrCmpEQImm) X(BrCmpNEImm) X(BrCmpSLTImm) X(BrCmpSLEImm)                    \
  X(BrCmpSGTImm) X(BrCmpSGEImm)                                                \
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
