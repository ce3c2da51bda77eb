//===- sim/Bytecode.cpp - Lowering to register-allocated bytecode ----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Bytecode.h"

#include "ir/Function.h"
#include "ir/Module.h"
#include "sim/SimOps.h"
#include "support/Casting.h"

#include <cassert>
#include <cstring>
#include <map>
#include <set>
#include <utility>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;
using namespace dae::sim::bc;

const char *dae::sim::bc::opcodeName(Opcode Op) {
  switch (Op) {
#define DAECC_BC_NAME(Name)                                                    \
  case Opcode::Name:                                                           \
    return #Name;
    DAECC_BC_OPCODES(DAECC_BC_NAME)
#undef DAECC_BC_NAME
  }
  reportUnknownOpcode("opcodeName", static_cast<int>(Op));
}

namespace {

/// One pending move of an edge's parallel phi copy.
struct PhiCopy {
  std::uint32_t Dst = 0;
  std::uint32_t Src = 0;
};

class Lowerer {
public:
  Lowerer(const Function &F, const Loader &L, const MachineConfig &Cfg)
      : F(F), L(L), Cfg(Cfg), BF(std::make_unique<BytecodeFunction>()) {}

  std::unique_ptr<BytecodeFunction> run();

private:
  const Function &F;
  const Loader &L;
  const MachineConfig &Cfg;
  std::unique_ptr<BytecodeFunction> BF;

  std::map<const BasicBlock *, unsigned> BlockIndex;
  std::vector<std::vector<const Instruction *>> Phis;  // Per block.
  std::vector<std::vector<const Instruction *>> Body;  // Per block, no phis.
  std::vector<std::uint32_t> BodyPC;                   // Per block.

  std::map<const Value *, std::uint32_t> ValueReg;
  std::uint32_t NextReg = 0;

  /// Dedup key: the exact RuntimeValue bit pattern.
  std::map<std::pair<std::int64_t, std::uint64_t>, std::uint32_t> ConstIndex;

  /// Branch-target fixups: which field of which instruction jumps along
  /// which CFG edge. Resolved after trampolines are laid out.
  enum class Field { A, B, C, Aux };
  struct Patch {
    std::size_t Idx;
    Field F;
    unsigned Pred, Succ;
  };
  std::vector<Patch> Patches;
  std::set<std::pair<unsigned, unsigned>> PhiEdges;
  std::map<std::pair<unsigned, unsigned>, std::uint32_t> TrampPC;

  void emit(Instr In) { BF->Code.push_back(In); }
  void branchTo(Field Fld, unsigned Pred, unsigned Succ) {
    Patches.push_back({BF->Code.size() - 1, Fld, Pred, Succ});
    if (!Phis[Succ].empty())
      PhiEdges.insert({Pred, Succ});
  }

  static bool constValue(const Loader &L, const Value *V, RuntimeValue &Out) {
    if (const auto *CI = dyn_cast<ConstantInt>(V)) {
      Out = RuntimeValue::ofInt(CI->getValue());
      return true;
    }
    if (const auto *CF = dyn_cast<ConstantFloat>(V)) {
      Out = RuntimeValue::ofFloat(CF->getValue());
      return true;
    }
    if (const auto *G = dyn_cast<GlobalVariable>(V)) {
      Out = RuntimeValue::ofInt(static_cast<std::int64_t>(L.baseOf(G)));
      return true;
    }
    return false;
  }
  bool constValue(const Value *V, RuntimeValue &Out) const {
    return constValue(L, V, Out);
  }

  std::uint32_t constReg(const RuntimeValue &V) {
    std::uint64_t DBits;
    static_assert(sizeof(DBits) == sizeof(V.D), "double must be 64-bit");
    std::memcpy(&DBits, &V.D, sizeof(DBits));
    auto [It, Inserted] = ConstIndex.try_emplace({V.I, DBits}, NextReg);
    if (Inserted) {
      ++NextReg;
      BF->ConstPool.push_back(V);
    }
    return It->second;
  }

  std::uint32_t regOf(const Value *V) {
    RuntimeValue K;
    if (constValue(V, K))
      return constReg(K);
    auto It = ValueReg.find(V);
    assert(It != ValueReg.end() && "operand without a register");
    return It->second;
  }

  void lowerOne(const Instruction *I, unsigned BlockNo);
  bool tryFuseCmpBr(const Instruction *I, const Instruction *Next,
                    unsigned BlockNo);
  bool tryFuseLoadBin(const Instruction *I, const Instruction *Next);
  void lowerBinary(const BinaryInst *Bin);
  void lowerCmp(const CmpInst *Cmp);
  void lowerGep(const GepInst *Gep);
  void emitTrampoline(unsigned Pred, unsigned Succ);
};

std::unique_ptr<BytecodeFunction> Lowerer::run() {
  BF->Source = &F;
  unsigned NumBlocks = 0;
  for (const auto &BB : F)
    BlockIndex[BB.get()] = NumBlocks++;
  Phis.resize(NumBlocks);
  Body.resize(NumBlocks);
  BodyPC.resize(NumBlocks);

  // Registers: args first (reg i == arg i, relied on by the entry prologue),
  // then one per non-void instruction; constants and phi scratch follow.
  for (const auto &A : F.args())
    ValueReg[A.get()] = NextReg++;
  BF->NumArgs = NextReg;
  unsigned B = 0;
  for (const auto &BB : F) {
    for (const auto &I : *BB) {
      if (I->getType() != Type::Void)
        ValueReg[I.get()] = NextReg++;
      if (isa<PhiInst>(I.get()))
        Phis[B].push_back(I.get());
      else
        Body[B].push_back(I.get());
    }
    ++B;
  }

  // Constant-pool registers are handed out on demand during body lowering,
  // directly after the value registers; trampoline scratch registers follow
  // the pool, so the pool range starts exactly here.
  BF->ConstBase = NextReg;

  for (unsigned Blk = 0; Blk != NumBlocks; ++Blk) {
    BodyPC[Blk] = static_cast<std::uint32_t>(BF->Code.size());
    const auto &Insts = Body[Blk];
    for (std::size_t Pos = 0; Pos != Insts.size(); ++Pos) {
      const Instruction *I = Insts[Pos];
      const Instruction *Next =
          Pos + 1 != Insts.size() ? Insts[Pos + 1] : nullptr;
      if (Next && (tryFuseCmpBr(I, Next, Blk) || tryFuseLoadBin(I, Next))) {
        ++Pos;
        continue;
      }
      lowerOne(I, Blk);
    }
  }

  // All body PCs are known; lay out one trampoline per phi-carrying edge.
  for (const auto &[Pred, Succ] : PhiEdges)
    emitTrampoline(Pred, Succ);

  for (const Patch &P : Patches) {
    std::uint32_t T = !Phis[P.Succ].empty() ? TrampPC.at({P.Pred, P.Succ})
                                            : BodyPC[P.Succ];
    Instr &In = BF->Code[P.Idx];
    switch (P.F) {
    case Field::A:
      In.A = T;
      break;
    case Field::B:
      In.B = T;
      break;
    case Field::C:
      In.C = T;
      break;
    case Field::Aux:
      In.Aux = T;
      break;
    }
  }

  BF->NumRegs = NextReg;
  return std::move(BF);
}

/// Integer cmp directly feeding the block's conditional branch fuses into one
/// compare-and-branch superinstruction in the shapes the workloads execute;
/// any other pair stays a compare plus CondBr. The cmp's register is still
/// written (its value may have other users), and both IR instructions keep
/// their own Instructions bump and ComputeCycles addend, in order.
bool Lowerer::tryFuseCmpBr(const Instruction *I, const Instruction *Next,
                           unsigned BlockNo) {
  const auto *Cmp = dyn_cast<CmpInst>(I);
  const auto *Br = dyn_cast<BrInst>(Next);
  if (!Cmp || !Br || !Br->isConditional() || Br->getCondition() != Cmp)
    return false;

  RuntimeValue K;
  const bool ImmRhs = constValue(Cmp->getRHS(), K);
  const CmpPred Pred = Cmp->getPredicate();
  Opcode Op;
  if (Pred == CmpPred::SLT)
    Op = ImmRhs ? Opcode::BrCmpSLTImm : Opcode::BrCmpSLT;
  else if (Pred == CmpPred::EQ && !ImmRhs)
    Op = Opcode::BrCmpEQ;
  else if (Pred == CmpPred::NE && ImmRhs)
    Op = Opcode::BrCmpNEImm;
  else
    return false;

  Instr In;
  In.Op = Op;
  In.Dst = ValueReg.at(Cmp);
  In.A = regOf(Cmp->getLHS());
  In.Cost = instCycles(*Cmp, Cfg);
  In.CostB = instCycles(*Next, Cfg);
  if (ImmRhs)
    In.Imm = K;
  else
    In.B = regOf(Cmp->getRHS());
  emit(In);
  branchTo(Field::C, BlockNo, BlockIndex.at(Br->getTrueDest()));
  branchTo(Field::Aux, BlockNo, BlockIndex.at(Br->getFalseDest()));
  return true;
}

/// FP load whose value directly feeds the next instruction's FSub or FMul
/// fuses into a load+op superinstruction. The loaded value is written to its
/// own register (Aux) before the binop's operands are read, so "binop of the
/// load with itself / with an older value of the same slot" behaves exactly
/// like the unfused sequence.
bool Lowerer::tryFuseLoadBin(const Instruction *I, const Instruction *Next) {
  const auto *Load = dyn_cast<LoadInst>(I);
  const auto *Bin = dyn_cast<BinaryInst>(Next);
  if (!Load || !Bin || Load->getType() != Type::Float64 ||
      (Bin->getLHS() != Load && Bin->getRHS() != Load))
    return false;

  Opcode Op;
  if (Bin->getOpcode() == BinOp::FSub)
    Op = Opcode::LoadFSubF;
  else if (Bin->getOpcode() == BinOp::FMul)
    Op = Opcode::LoadFMulF;
  else
    return false;

  Instr In;
  In.Op = Op;
  In.Dst = ValueReg.at(Bin);
  In.A = regOf(Load->getPointer());
  In.Aux = ValueReg.at(Load);
  In.B = regOf(Bin->getLHS());
  In.C = regOf(Bin->getRHS());
  In.Cost = instCycles(*Load, Cfg);
  In.CostB = instCycles(*Bin, Cfg);
  emit(In);
  return true;
}

void Lowerer::lowerBinary(const BinaryInst *Bin) {
  Instr In;
  In.Dst = ValueReg.at(Bin);
  In.Cost = instCycles(*Bin, Cfg);

  RuntimeValue RK, LK;
  bool RConst = constValue(Bin->getRHS(), RK);
  bool LConst = constValue(Bin->getLHS(), LK);
  BinOp O = Bin->getOpcode();

  auto EmitImm = [&](Opcode Op, std::uint32_t SrcReg, RuntimeValue Imm) {
    In.Op = Op;
    In.A = SrcReg;
    In.Imm = Imm;
    emit(In);
  };

  if (RConst) {
    switch (O) {
    case BinOp::Add:
      return EmitImm(Opcode::AddImm, regOf(Bin->getLHS()), RK);
    case BinOp::Sub:
      return EmitImm(Opcode::SubImm, regOf(Bin->getLHS()), RK);
    case BinOp::Mul:
      return EmitImm(Opcode::MulImm, regOf(Bin->getLHS()), RK);
    case BinOp::FMul:
      return EmitImm(Opcode::FMulImm, regOf(Bin->getLHS()), RK);
    default:
      break; // The reg-reg form reads the constant from its pool register.
    }
  } else if (LConst) {
    // Integer Add/Mul are exactly commutative, so a constant LHS swaps into
    // the immediate slot. FP operand order is preserved (NaN propagation),
    // and non-commutative ops fall through to the reg-reg form.
    switch (O) {
    case BinOp::Add:
      return EmitImm(Opcode::AddImm, regOf(Bin->getRHS()), LK);
    case BinOp::Mul:
      return EmitImm(Opcode::MulImm, regOf(Bin->getRHS()), LK);
    default:
      break;
    }
  }

  switch (O) {
  case BinOp::Add:
    In.Op = Opcode::Add;
    break;
  case BinOp::Sub:
    In.Op = Opcode::Sub;
    break;
  case BinOp::Mul:
    In.Op = Opcode::Mul;
    break;
  case BinOp::SDiv:
    In.Op = Opcode::SDiv;
    break;
  case BinOp::SRem:
    In.Op = Opcode::SRem;
    break;
  case BinOp::And:
    In.Op = Opcode::And;
    break;
  case BinOp::Or:
    In.Op = Opcode::Or;
    break;
  case BinOp::Xor:
    In.Op = Opcode::Xor;
    break;
  case BinOp::Shl:
    In.Op = Opcode::Shl;
    break;
  case BinOp::AShr:
    In.Op = Opcode::AShr;
    break;
  case BinOp::FAdd:
    In.Op = Opcode::FAdd;
    break;
  case BinOp::FSub:
    In.Op = Opcode::FSub;
    break;
  case BinOp::FMul:
    In.Op = Opcode::FMul;
    break;
  case BinOp::FDiv:
    In.Op = Opcode::FDiv;
    break;
  }
  In.A = regOf(Bin->getLHS());
  In.B = regOf(Bin->getRHS());
  emit(In);
}

void Lowerer::lowerCmp(const CmpInst *Cmp) {
  Instr In;
  In.Dst = ValueReg.at(Cmp);
  In.Cost = instCycles(*Cmp, Cfg);

  switch (Cmp->getPredicate()) {
  case CmpPred::EQ:
    In.Op = Opcode::CmpEQ;
    break;
  case CmpPred::NE:
    In.Op = Opcode::CmpNE;
    break;
  case CmpPred::SLT:
    In.Op = Opcode::CmpSLT;
    break;
  case CmpPred::SLE:
    In.Op = Opcode::CmpSLE;
    break;
  case CmpPred::SGT:
    In.Op = Opcode::CmpSGT;
    break;
  case CmpPred::SGE:
    In.Op = Opcode::CmpSGE;
    break;
  case CmpPred::FLT:
    In.Op = Opcode::CmpFLT;
    break;
  case CmpPred::FLE:
    In.Op = Opcode::CmpFLE;
    break;
  case CmpPred::FGT:
    In.Op = Opcode::CmpFGT;
    break;
  case CmpPred::FGE:
    In.Op = Opcode::CmpFGE;
    break;
  case CmpPred::FEQ:
    In.Op = Opcode::CmpFEQ;
    break;
  case CmpPred::FNE:
    In.Op = Opcode::CmpFNE;
    break;
  }
  In.A = regOf(Cmp->getLHS());
  In.B = regOf(Cmp->getRHS());
  emit(In);
}

void Lowerer::lowerGep(const GepInst *Gep) {
  Instr In;
  In.Dst = ValueReg.at(Gep);
  In.Cost = instCycles(*Gep, Cfg);
  std::int64_t Elem = Gep->getElemSize();

  if (Gep->getNumIndices() == 1 && (Elem & (Elem - 1)) == 0) {
    // Power-of-two element size: add+shl address math.
    std::int64_t Shift = 0;
    while ((std::int64_t(1) << Shift) < Elem)
      ++Shift;
    In.Op = Opcode::Gep1Shl;
    In.A = regOf(Gep->getBase());
    In.B = regOf(Gep->getIndex(0));
    In.Imm = RuntimeValue::ofInt(Shift);
    emit(In);
    return;
  }

  GepDesc D;
  D.Base = regOf(Gep->getBase());
  D.ElemSize = Elem;
  D.Dims = Gep->getDimSizes();
  for (unsigned J = 0; J != Gep->getNumIndices(); ++J)
    D.IdxRegs.push_back(regOf(Gep->getIndex(J)));
  In.Op = Opcode::GepN;
  In.A = static_cast<std::uint32_t>(BF->GepDescs.size());
  BF->GepDescs.push_back(std::move(D));
  emit(In);
}

void Lowerer::lowerOne(const Instruction *I, unsigned BlockNo) {
  Instr In;
  In.Cost = instCycles(*I, Cfg);
  auto DstIt = ValueReg.find(I);
  if (DstIt != ValueReg.end())
    In.Dst = DstIt->second;

  switch (I->getKind()) {
  case ValueKind::InstBinary:
    lowerBinary(cast<BinaryInst>(I));
    return;
  case ValueKind::InstCmp:
    lowerCmp(cast<CmpInst>(I));
    return;
  case ValueKind::InstGep:
    lowerGep(cast<GepInst>(I));
    return;
  case ValueKind::InstSelect: {
    const auto *Sel = cast<SelectInst>(I);
    In.Op = Opcode::Select;
    In.A = regOf(Sel->getCondition());
    In.B = regOf(Sel->getTrueValue());
    In.C = regOf(Sel->getFalseValue());
    break;
  }
  case ValueKind::InstCast: {
    const auto *Cast_ = cast<CastInst>(I);
    switch (Cast_->getOpcode()) {
    case CastOp::SIToFP:
      In.Op = Opcode::SIToFP;
      break;
    case CastOp::FPToSI:
      In.Op = Opcode::FPToSI;
      break;
    case CastOp::PtrToInt:
    case CastOp::IntToPtr:
      In.Op = Opcode::MovI;
      break;
    }
    In.A = regOf(Cast_->getSource());
    break;
  }
  case ValueKind::InstLoad: {
    const auto *Load = cast<LoadInst>(I);
    In.Op = Load->getType() == Type::Float64 ? Opcode::LoadF : Opcode::LoadI;
    In.A = regOf(Load->getPointer());
    break;
  }
  case ValueKind::InstStore: {
    const auto *Store = cast<StoreInst>(I);
    In.Op = Store->getValue()->getType() == Type::Float64 ? Opcode::StoreF
                                                          : Opcode::StoreI;
    In.A = regOf(Store->getValue());
    In.B = regOf(Store->getPointer());
    break;
  }
  case ValueKind::InstPrefetch:
    In.Op = Opcode::Prefetch;
    In.A = regOf(cast<PrefetchInst>(I)->getPointer());
    break;
  case ValueKind::InstBr: {
    const auto *Br = cast<BrInst>(I);
    if (!Br->isConditional()) {
      In.Op = Opcode::Jmp;
      In.Count = 1;
      emit(In);
      branchTo(Field::A, BlockNo, BlockIndex.at(Br->getTrueDest()));
      return;
    }
    RuntimeValue CondK;
    if (constValue(Br->getCondition(), CondK)) {
      // Constant condition folds to an unconditional jump; the branch keeps
      // its own count and cost.
      In.Op = Opcode::Jmp;
      In.Count = 1;
      emit(In);
      branchTo(Field::A, BlockNo,
               BlockIndex.at(CondK.I != 0 ? Br->getTrueDest()
                                          : Br->getFalseDest()));
      return;
    }
    In.Op = Opcode::CondBr;
    In.A = regOf(Br->getCondition());
    emit(In);
    branchTo(Field::B, BlockNo, BlockIndex.at(Br->getTrueDest()));
    branchTo(Field::C, BlockNo, BlockIndex.at(Br->getFalseDest()));
    return;
  }
  case ValueKind::InstRet: {
    const auto *Ret = cast<RetInst>(I);
    if (Ret->hasReturnValue()) {
      In.Op = Opcode::RetVal;
      In.A = regOf(Ret->getReturnValue());
    } else {
      In.Op = Opcode::Ret;
    }
    break;
  }
  case ValueKind::InstCall: {
    const auto *Call = cast<CallInst>(I);
    CallDesc D;
    D.Callee = Call->getCallee();
    for (unsigned J = 0; J != Call->getNumArgs(); ++J)
      D.ArgRegs.push_back(regOf(Call->getArg(J)));
    In.Op = Opcode::Call;
    In.A = static_cast<std::uint32_t>(BF->CallDescs.size());
    if (DstIt == ValueReg.end())
      In.Dst = NoReg;
    BF->CallDescs.push_back(std::move(D));
    break;
  }
  default:
    reportUnknownOpcode("bytecode lowering", static_cast<int>(I->getKind()));
  }
  emit(In);
}

/// Lays out the trampoline for the CFG edge Pred -> Succ: the parallel copy
/// of Succ's phis serialized into PhiMov/PhiMovImm moves, then a Jmp into
/// Succ's body carrying the phi count. Copy cycles are broken by saving a
/// still-needed source into a fresh scratch register; constant inputs are
/// written last, after every old register value has been read.
void Lowerer::emitTrampoline(unsigned Pred, unsigned Succ) {
  TrampPC[{Pred, Succ}] = static_cast<std::uint32_t>(BF->Code.size());

  std::vector<PhiCopy> Pending;
  std::vector<std::pair<std::uint32_t, RuntimeValue>> ImmCopies;
  for (const Instruction *I : Phis[Succ]) {
    const auto *Phi = cast<PhiInst>(I);
    const Value *In = nullptr;
    for (unsigned J = 0; J != Phi->getNumIncoming(); ++J)
      if (BlockIndex.at(Phi->getIncomingBlock(J)) == Pred) {
        In = Phi->getIncomingValue(J);
        break;
      }
    assert(In && "phi has no entry for the incoming edge");
    std::uint32_t Dst = ValueReg.at(Phi);
    RuntimeValue K;
    if (constValue(In, K)) {
      ImmCopies.push_back({Dst, K});
    } else {
      std::uint32_t Src = ValueReg.at(In);
      if (Src != Dst)
        Pending.push_back({Dst, Src});
    }
  }

  while (!Pending.empty()) {
    bool Progress = false;
    for (std::size_t I = 0; I != Pending.size(); ++I) {
      bool DstIsSource = false;
      for (const PhiCopy &C : Pending)
        if (C.Src == Pending[I].Dst) {
          DstIsSource = true;
          break;
        }
      if (DstIsSource)
        continue;
      Instr Mv;
      Mv.Op = Opcode::PhiMov;
      Mv.Dst = Pending[I].Dst;
      Mv.A = Pending[I].Src;
      emit(Mv);
      Pending.erase(Pending.begin() + static_cast<std::ptrdiff_t>(I));
      Progress = true;
      break;
    }
    if (Progress)
      continue;
    // Every pending destination is still someone's source: a cycle. Save one
    // source into a scratch register and redirect its reader, which frees
    // the pair that overwrites that source.
    std::uint32_t Scratch = NextReg++;
    Instr Sv;
    Sv.Op = Opcode::PhiMov;
    Sv.Dst = Scratch;
    Sv.A = Pending.front().Src;
    emit(Sv);
    Pending.front().Src = Scratch;
  }

  for (const auto &[Dst, K] : ImmCopies) {
    Instr Mv;
    Mv.Op = Opcode::PhiMovImm;
    Mv.Dst = Dst;
    Mv.Imm = K;
    emit(Mv);
  }

  Instr Jump;
  Jump.Op = Opcode::Jmp;
  Jump.Count = static_cast<std::uint16_t>(Phis[Succ].size());
  Jump.Cost = 0.0;
  Jump.A = BodyPC[Succ];
  emit(Jump);
}

} // namespace

std::unique_ptr<BytecodeFunction>
dae::sim::bc::lower(const Function &F, const Loader &L,
                    const MachineConfig &Cfg) {
  return Lowerer(F, L, Cfg).run();
}
