//===- tests/sim/BytecodeCensusTest.cpp - Opcodes the workloads earn ------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The bytecode keeps a specialized form (an immediate operand, a fused pair,
// a cheaper address shape) only where a paper workload executes it; every
// other shape lowers to a base form. BytecodeCensus holds that rule: every
// opcode is on exactly one of the two lists below, and every specialized
// form is emitted by the lowering of at least one of the seven workloads'
// functions (tasks, Manual and Auto access phases) at test scale. A new
// specialization that no workload uses fails here; so does a workload or
// generator change that leaves a kept form without traffic.
//
//===----------------------------------------------------------------------===//

#include "dae/AccessGenerator.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "sim/Bytecode.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace dae;
using namespace dae::sim;
using bc::Opcode;

namespace {

/// Forms that exist only because the workloads execute them.
const std::vector<Opcode> Specialized = {
    Opcode::AddImm,     Opcode::SubImm,     Opcode::MulImm,
    Opcode::FMulImm,    Opcode::Gep1Shl,    Opcode::LoadFSubF,
    Opcode::LoadFMulF,  Opcode::BrCmpEQ,    Opcode::BrCmpSLT,
    Opcode::BrCmpNEImm, Opcode::BrCmpSLTImm};

/// Forms that are the only lowering of some IR instruction (or, for Trap,
/// the unset-opcode sentinel), whether or not a workload emits them.
const std::vector<Opcode> Base = {
    Opcode::Trap,     Opcode::MovI,    Opcode::PhiMov,  Opcode::PhiMovImm,
    Opcode::Add,      Opcode::Sub,     Opcode::Mul,     Opcode::SDiv,
    Opcode::SRem,     Opcode::And,     Opcode::Or,      Opcode::Xor,
    Opcode::Shl,      Opcode::AShr,    Opcode::FAdd,    Opcode::FSub,
    Opcode::FMul,     Opcode::FDiv,    Opcode::CmpEQ,   Opcode::CmpNE,
    Opcode::CmpSLT,   Opcode::CmpSLE,  Opcode::CmpSGT,  Opcode::CmpSGE,
    Opcode::CmpFLT,   Opcode::CmpFLE,  Opcode::CmpFGT,  Opcode::CmpFGE,
    Opcode::CmpFEQ,   Opcode::CmpFNE,  Opcode::Select,  Opcode::SIToFP,
    Opcode::FPToSI,   Opcode::GepN,    Opcode::LoadI,   Opcode::LoadF,
    Opcode::StoreI,   Opcode::StoreF,  Opcode::Prefetch, Opcode::Jmp,
    Opcode::CondBr,   Opcode::Ret,     Opcode::RetVal,  Opcode::Call};

bool listed(const std::vector<Opcode> &List, Opcode Op) {
  return std::find(List.begin(), List.end(), Op) != List.end();
}

TEST(BytecodeCensus, EveryOpcodeIsSpecializedOrBase) {
  const std::vector<Opcode> All = {
#define DAECC_BC_ENTRY(Name) Opcode::Name,
      DAECC_BC_OPCODES(DAECC_BC_ENTRY)
#undef DAECC_BC_ENTRY
  };
  for (Opcode Op : All)
    EXPECT_NE(listed(Specialized, Op), listed(Base, Op))
        << bc::opcodeName(Op) << " must be on exactly one list";
  EXPECT_EQ(All.size(), Specialized.size() + Base.size());
}

TEST(BytecodeCensus, EverySpecializedFormIsEmitted) {
  std::map<Opcode, unsigned> Emitted;
  const MachineConfig Cfg;
  for (const auto &W : workloads::buildAll(workloads::Scale::Test)) {
    for (ir::Function *F : W->taskFunctions())
      generateAccessPhase(*W->M, *F, W->Opts);
    const Loader L(*W->M);
    for (const auto &F : W->M->functions()) {
      const auto BF = bc::lower(*F, L, Cfg);
      for (const bc::Instr &I : BF->Code)
        ++Emitted[I.Op];
    }
  }
  for (Opcode Op : Specialized)
    EXPECT_GT(Emitted[Op], 0u)
        << bc::opcodeName(Op) << " is emitted by no workload";
}

} // namespace
