//===- sim/SimOps.h - Shared opcode lowering helpers ------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the two functional execution backends (the switch
/// interpreter in Interpreter.cpp and the bytecode lowering in Bytecode.cpp):
/// the fully resolved SimOp dispatch enum and the IR-opcode -> SimOp
/// mappings.
///
/// The mappings abort with a diagnostic on enum values outside the known
/// range instead of silently falling back to Add/CmpEQ: a newly added IR
/// opcode must fail loudly in both backends until each learns to simulate
/// it (covered by death tests in tests/sim/SimTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_SIMOPS_H
#define DAECC_SIM_SIMOPS_H

#include "ir/Instruction.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace dae {
namespace sim {

/// Diagnostic abort for opcode values no lowering case handles. Unlike an
/// assert-plus-fallback this fires in every build type, so an unknown IR
/// opcode can never be silently mis-simulated as Add/CmpEQ.
[[noreturn]] inline void reportUnknownOpcode(const char *Where, int Value) {
  std::fprintf(stderr,
               "daecc fatal: %s: unknown opcode value %d "
               "(new IR opcode without simulator lowering?)\n",
               Where, Value);
  std::abort();
}

/// Fully resolved opcode: one flat dispatch per executed instruction instead
/// of re-deriving kind + sub-opcode + operand types from the IR every time.
enum class SimOp : std::uint8_t {
  Add,
  Sub,
  Mul,
  SDiv,
  SRem,
  And,
  Or,
  Xor,
  Shl,
  AShr,
  FAdd,
  FSub,
  FMul,
  FDiv,
  CmpEQ,
  CmpNE,
  CmpSLT,
  CmpSLE,
  CmpSGT,
  CmpSGE,
  CmpFLT,
  CmpFLE,
  CmpFGT,
  CmpFGE,
  CmpFEQ,
  CmpFNE,
  Select,
  SIToFP,
  FPToSI,
  PtrCast,
  Gep,
  LoadI,
  LoadF,
  StoreI,
  StoreF,
  Prefetch,
  Br,
  CondBr,
  Ret,
  Call,
  Phi, ///< Never dispatched; phis live in CompiledBlock::Phis.
};

inline bool isTerminatorOp(SimOp Op) {
  return Op == SimOp::Br || Op == SimOp::CondBr || Op == SimOp::Ret;
}

inline SimOp binSimOp(ir::BinOp Op) {
  switch (Op) {
  case ir::BinOp::Add:
    return SimOp::Add;
  case ir::BinOp::Sub:
    return SimOp::Sub;
  case ir::BinOp::Mul:
    return SimOp::Mul;
  case ir::BinOp::SDiv:
    return SimOp::SDiv;
  case ir::BinOp::SRem:
    return SimOp::SRem;
  case ir::BinOp::And:
    return SimOp::And;
  case ir::BinOp::Or:
    return SimOp::Or;
  case ir::BinOp::Xor:
    return SimOp::Xor;
  case ir::BinOp::Shl:
    return SimOp::Shl;
  case ir::BinOp::AShr:
    return SimOp::AShr;
  case ir::BinOp::FAdd:
    return SimOp::FAdd;
  case ir::BinOp::FSub:
    return SimOp::FSub;
  case ir::BinOp::FMul:
    return SimOp::FMul;
  case ir::BinOp::FDiv:
    return SimOp::FDiv;
  }
  reportUnknownOpcode("binSimOp", static_cast<int>(Op));
}

inline SimOp cmpSimOp(ir::CmpPred P) {
  switch (P) {
  case ir::CmpPred::EQ:
    return SimOp::CmpEQ;
  case ir::CmpPred::NE:
    return SimOp::CmpNE;
  case ir::CmpPred::SLT:
    return SimOp::CmpSLT;
  case ir::CmpPred::SLE:
    return SimOp::CmpSLE;
  case ir::CmpPred::SGT:
    return SimOp::CmpSGT;
  case ir::CmpPred::SGE:
    return SimOp::CmpSGE;
  case ir::CmpPred::FLT:
    return SimOp::CmpFLT;
  case ir::CmpPred::FLE:
    return SimOp::CmpFLE;
  case ir::CmpPred::FGT:
    return SimOp::CmpFGT;
  case ir::CmpPred::FGE:
    return SimOp::CmpFGE;
  case ir::CmpPred::FEQ:
    return SimOp::CmpFEQ;
  case ir::CmpPred::FNE:
    return SimOp::CmpFNE;
  }
  reportUnknownOpcode("cmpSimOp", static_cast<int>(P));
}

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_SIMOPS_H
