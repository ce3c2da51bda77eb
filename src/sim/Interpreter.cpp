//===- sim/Interpreter.cpp - Task IR interpreter ----------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Interpreter.h"

#include "ir/Module.h"
#include "sim/Bytecode.h"
#include "sim/SimOps.h"
#include "sim/NativeCodegen.h"
#include "sim/NativeExec.h"
#include "sim/ThreadedInterpreter.h"
#include "support/Casting.h"

#include <cassert>
#include <cmath>
#include <map>
#include <stdexcept>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

namespace {

/// An operand resolved at compile time: either an immediate or a slot.
struct OperandRef {
  bool IsImm = false;
  RuntimeValue Imm;
  unsigned Slot = 0;
};

struct CompiledInstr {
  const Instruction *I = nullptr;
  SimOp Op = SimOp::Phi;
  int DstSlot = -1; ///< -1 for void results.
  double Cycles = 0.0;
  std::vector<OperandRef> Ops;
  // Branch successors / phi incoming block indices.
  int BlockA = -1, BlockB = -1;
  std::vector<unsigned> PhiPredIndex; ///< Parallel to Ops for phis.
  // Gep payload (address arithmetic fully resolved at compile time).
  std::int64_t GepElemSize = 0;
  std::vector<std::int64_t> GepDims;
  const Function *Callee = nullptr;
};

struct CompiledBlock {
  std::vector<CompiledInstr> Phis;
  std::vector<CompiledInstr> Body;
};

} // namespace

namespace dae {
namespace sim {

/// Slot-addressed executable form of one function.
class CompiledFunction {
public:
  CompiledFunction(const Function &F, const Loader &L,
                   const MachineConfig &Cfg) {
    std::map<const BasicBlock *, unsigned> BlockIndex;
    unsigned Idx = 0;
    for (const auto &BB : F)
      BlockIndex[BB.get()] = Idx++;

    for (const auto &A : F.args())
      Slots[A.get()] = NumSlots++;
    for (const auto &BB : F)
      for (const auto &I : *BB)
        if (I->getType() != Type::Void)
          Slots[I.get()] = NumSlots++;

    auto MakeOp = [&](Value *V) {
      OperandRef R;
      if (const auto *CI = dyn_cast<ConstantInt>(V)) {
        R.IsImm = true;
        R.Imm = RuntimeValue::ofInt(CI->getValue());
      } else if (const auto *CF = dyn_cast<ConstantFloat>(V)) {
        R.IsImm = true;
        R.Imm = RuntimeValue::ofFloat(CF->getValue());
      } else if (const auto *G = dyn_cast<GlobalVariable>(V)) {
        R.IsImm = true;
        R.Imm = RuntimeValue::ofInt(
            static_cast<std::int64_t>(L.baseOf(G)));
      } else {
        auto It = Slots.find(V);
        assert(It != Slots.end() && "operand without a slot");
        R.Slot = It->second;
      }
      return R;
    };

    Blocks.resize(Idx);
    unsigned B = 0;
    for (const auto &BB : F) {
      CompiledBlock &CB = Blocks[B++];
      for (const auto &IPtr : *BB) {
        const Instruction *I = IPtr.get();
        CompiledInstr CI;
        CI.I = I;
        CI.Cycles = instCycles(*I, Cfg);
        auto SlotIt = Slots.find(I);
        CI.DstSlot = SlotIt == Slots.end() ? -1 : static_cast<int>(SlotIt->second);
        if (const auto *Phi = dyn_cast<PhiInst>(I)) {
          CI.Op = SimOp::Phi;
          for (unsigned J = 0; J != Phi->getNumIncoming(); ++J) {
            CI.Ops.push_back(MakeOp(Phi->getIncomingValue(J)));
            CI.PhiPredIndex.push_back(
                BlockIndex.at(Phi->getIncomingBlock(J)));
          }
          CB.Phis.push_back(std::move(CI));
          continue;
        }
        for (Value *Op : I->operands())
          CI.Ops.push_back(MakeOp(Op));

        switch (I->getKind()) {
        case ValueKind::InstBinary:
          CI.Op = binSimOp(cast<BinaryInst>(I)->getOpcode());
          break;
        case ValueKind::InstCmp:
          CI.Op = cmpSimOp(cast<CmpInst>(I)->getPredicate());
          break;
        case ValueKind::InstSelect:
          CI.Op = SimOp::Select;
          break;
        case ValueKind::InstCast:
          switch (cast<CastInst>(I)->getOpcode()) {
          case CastOp::SIToFP:
            CI.Op = SimOp::SIToFP;
            break;
          case CastOp::FPToSI:
            CI.Op = SimOp::FPToSI;
            break;
          case CastOp::PtrToInt:
          case CastOp::IntToPtr:
            CI.Op = SimOp::PtrCast;
            break;
          }
          break;
        case ValueKind::InstGep: {
          const auto *Gep = cast<GepInst>(I);
          CI.Op = SimOp::Gep;
          CI.GepElemSize = Gep->getElemSize();
          CI.GepDims = Gep->getDimSizes();
          break;
        }
        case ValueKind::InstLoad:
          CI.Op = I->getType() == Type::Float64 ? SimOp::LoadF : SimOp::LoadI;
          break;
        case ValueKind::InstStore:
          CI.Op = cast<StoreInst>(I)->getValue()->getType() == Type::Float64
                      ? SimOp::StoreF
                      : SimOp::StoreI;
          break;
        case ValueKind::InstPrefetch:
          CI.Op = SimOp::Prefetch;
          break;
        case ValueKind::InstBr: {
          const auto *Br = cast<BrInst>(I);
          CI.BlockA = static_cast<int>(BlockIndex.at(Br->getTrueDest()));
          if (Br->isConditional()) {
            CI.Op = SimOp::CondBr;
            CI.BlockB = static_cast<int>(BlockIndex.at(Br->getFalseDest()));
          } else {
            CI.Op = SimOp::Br;
          }
          break;
        }
        case ValueKind::InstRet:
          CI.Op = SimOp::Ret;
          break;
        case ValueKind::InstCall:
          CI.Op = SimOp::Call;
          CI.Callee = cast<CallInst>(I)->getCallee();
          break;
        default:
          assert(false && "unhandled instruction kind in compiler");
        }
        CB.Body.push_back(std::move(CI));
      }
    }
  }

  unsigned numSlots() const { return NumSlots; }
  const std::vector<CompiledBlock> &blocks() const { return Blocks; }
  unsigned argSlot(unsigned I) const { return I; } // Args get the first slots.

private:
  std::map<const Value *, unsigned> Slots;
  unsigned NumSlots = 0;
  std::vector<CompiledBlock> Blocks;
};

} // namespace sim
} // namespace dae

//===----------------------------------------------------------------------===//
// Program
//===----------------------------------------------------------------------===//

Program::Program(const MachineConfig &Cfg, const Loader &L)
    : Cfg(Cfg), Load(L) {}

Program::~Program() = default;

const Program::Forms &Program::lookup(const Function &F) {
  Forms &Fm = Fns[&F];
  if (Cfg.Backend == SimBackend::Switch) {
    if (Fm.Switch)
      return Fm;
    Fm.Switch = std::make_unique<CompiledFunction>(F, Load, Cfg);
  } else {
    if (Fm.Bytecode)
      return Fm;
    Fm.Bytecode = bc::lower(F, Load, Cfg);
    if (Cfg.Backend == SimBackend::Native)
      Fm.Native = native::compile(*Fm.Bytecode);
  }
  // Callees too, so a run that looked up its entry functions beforehand
  // compiles nothing.
  for (const auto &BB : F)
    for (const auto &I : *BB)
      if (const auto *Call = dyn_cast<CallInst>(I.get()))
        lookup(*Call->getCallee());
  return Fm;
}

//===----------------------------------------------------------------------===//
// Interpreter
//===----------------------------------------------------------------------===//

Interpreter::Interpreter(const MachineConfig &Cfg, Memory &Mem,
                         const Loader &L)
    : View(Mem, L), Prog(Cfg, L) {
  if (Cfg.Backend == SimBackend::Threaded)
    Threaded = std::make_unique<ThreadedInterpreter>(Prog, Mem);
  else if (Cfg.Backend == SimBackend::Native)
    Native = std::make_unique<NativeInterpreter>(Prog, Mem);
}

Interpreter::~Interpreter() = default;

PhaseStats
Interpreter::interpret(const CompiledFunction &CF,
                       const std::vector<RuntimeValue> &Args,
                       RuntimeValue *RetOut, AccessTrace &Trace,
                       std::vector<const ir::Instruction *> *LoadSites) {
  PhaseStats S;
  std::vector<RuntimeValue> Env(CF.numSlots());
  for (unsigned I = 0; I != Args.size(); ++I)
    Env[CF.argSlot(I)] = Args[I];

  auto Get = [&](const OperandRef &R) -> const RuntimeValue & {
    return R.IsImm ? R.Imm : Env[R.Slot];
  };

  int Block = 0;
  int PrevBlock = -1;
  std::vector<RuntimeValue> PhiTemp;

  while (Block >= 0) {
    const CompiledBlock &CB = CF.blocks()[static_cast<unsigned>(Block)];

    // Phis read their inputs simultaneously on entry.
    if (!CB.Phis.empty()) {
      PhiTemp.clear();
      for (const CompiledInstr &CI : CB.Phis) {
        bool Found = false;
        for (unsigned J = 0; J != CI.PhiPredIndex.size(); ++J)
          if (static_cast<int>(CI.PhiPredIndex[J]) == PrevBlock) {
            PhiTemp.push_back(Get(CI.Ops[J]));
            Found = true;
            break;
          }
        assert(Found && "phi has no entry for the incoming edge");
        if (!Found)
          PhiTemp.push_back(RuntimeValue());
        S.Instructions++;
      }
      for (unsigned J = 0; J != CB.Phis.size(); ++J)
        Env[static_cast<unsigned>(CB.Phis[J].DstSlot)] = PhiTemp[J];
    }

    int Next = -1;
    for (const CompiledInstr &CI : CB.Body) {
      ++S.Instructions;
      S.ComputeCycles += CI.Cycles;

      switch (CI.Op) {
      // Integer Add/Sub/Mul wrap in two's complement like native code:
      // computed through uint64_t, as signed overflow is undefined in C++.
      case SimOp::Add:
        Env[static_cast<unsigned>(CI.DstSlot)].I = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(Get(CI.Ops[0]).I) +
            static_cast<std::uint64_t>(Get(CI.Ops[1]).I));
        break;
      case SimOp::Sub:
        Env[static_cast<unsigned>(CI.DstSlot)].I = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(Get(CI.Ops[0]).I) -
            static_cast<std::uint64_t>(Get(CI.Ops[1]).I));
        break;
      case SimOp::Mul:
        Env[static_cast<unsigned>(CI.DstSlot)].I = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(Get(CI.Ops[0]).I) *
            static_cast<std::uint64_t>(Get(CI.Ops[1]).I));
        break;
      case SimOp::SDiv:
        Env[static_cast<unsigned>(CI.DstSlot)].I =
            ir::sdivTotal(Get(CI.Ops[0]).I, Get(CI.Ops[1]).I);
        break;
      case SimOp::SRem:
        Env[static_cast<unsigned>(CI.DstSlot)].I =
            ir::sremTotal(Get(CI.Ops[0]).I, Get(CI.Ops[1]).I);
        break;
      case SimOp::And:
        Env[static_cast<unsigned>(CI.DstSlot)].I =
            Get(CI.Ops[0]).I & Get(CI.Ops[1]).I;
        break;
      case SimOp::Or:
        Env[static_cast<unsigned>(CI.DstSlot)].I =
            Get(CI.Ops[0]).I | Get(CI.Ops[1]).I;
        break;
      case SimOp::Xor:
        Env[static_cast<unsigned>(CI.DstSlot)].I =
            Get(CI.Ops[0]).I ^ Get(CI.Ops[1]).I;
        break;
      case SimOp::Shl:
        Env[static_cast<unsigned>(CI.DstSlot)].I = static_cast<std::int64_t>(
            static_cast<std::uint64_t>(Get(CI.Ops[0]).I)
            << (static_cast<std::uint64_t>(Get(CI.Ops[1]).I) & 63));
        break;
      case SimOp::AShr:
        Env[static_cast<unsigned>(CI.DstSlot)].I =
            Get(CI.Ops[0]).I >>
            (static_cast<std::uint64_t>(Get(CI.Ops[1]).I) & 63);
        break;
      case SimOp::FAdd:
        Env[static_cast<unsigned>(CI.DstSlot)].D =
            Get(CI.Ops[0]).D + Get(CI.Ops[1]).D;
        break;
      case SimOp::FSub:
        Env[static_cast<unsigned>(CI.DstSlot)].D =
            Get(CI.Ops[0]).D - Get(CI.Ops[1]).D;
        break;
      case SimOp::FMul:
        Env[static_cast<unsigned>(CI.DstSlot)].D =
            Get(CI.Ops[0]).D * Get(CI.Ops[1]).D;
        break;
      case SimOp::FDiv:
        Env[static_cast<unsigned>(CI.DstSlot)].D =
            Get(CI.Ops[0]).D / Get(CI.Ops[1]).D;
        break;
      case SimOp::CmpEQ:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).I == Get(CI.Ops[1]).I);
        break;
      case SimOp::CmpNE:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).I != Get(CI.Ops[1]).I);
        break;
      case SimOp::CmpSLT:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).I < Get(CI.Ops[1]).I);
        break;
      case SimOp::CmpSLE:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).I <= Get(CI.Ops[1]).I);
        break;
      case SimOp::CmpSGT:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).I > Get(CI.Ops[1]).I);
        break;
      case SimOp::CmpSGE:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).I >= Get(CI.Ops[1]).I);
        break;
      case SimOp::CmpFLT:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).D < Get(CI.Ops[1]).D);
        break;
      case SimOp::CmpFLE:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).D <= Get(CI.Ops[1]).D);
        break;
      case SimOp::CmpFGT:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).D > Get(CI.Ops[1]).D);
        break;
      case SimOp::CmpFGE:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).D >= Get(CI.Ops[1]).D);
        break;
      case SimOp::CmpFEQ:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).D == Get(CI.Ops[1]).D);
        break;
      case SimOp::CmpFNE:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(Get(CI.Ops[0]).D != Get(CI.Ops[1]).D);
        break;
      case SimOp::Select:
        Env[static_cast<unsigned>(CI.DstSlot)] =
            Get(CI.Ops[0]).I != 0 ? Get(CI.Ops[1]) : Get(CI.Ops[2]);
        break;
      case SimOp::SIToFP:
        Env[static_cast<unsigned>(CI.DstSlot)].D =
            static_cast<double>(Get(CI.Ops[0]).I);
        break;
      case SimOp::FPToSI:
        Env[static_cast<unsigned>(CI.DstSlot)].I =
            static_cast<std::int64_t>(Get(CI.Ops[0]).D);
        break;
      case SimOp::PtrCast:
        Env[static_cast<unsigned>(CI.DstSlot)].I = Get(CI.Ops[0]).I;
        break;
      case SimOp::Gep: { // Wraps like Add/Sub/Mul, through uint64_t.
        std::uint64_t Linear = 0;
        for (unsigned J = 1; J != CI.Ops.size(); ++J)
          Linear = Linear * static_cast<std::uint64_t>(
                                J > 1 ? CI.GepDims[J - 1] : 1) +
                   static_cast<std::uint64_t>(Get(CI.Ops[J]).I);
        Env[static_cast<unsigned>(CI.DstSlot)] =
            RuntimeValue::ofInt(static_cast<std::int64_t>(
                static_cast<std::uint64_t>(Get(CI.Ops[0]).I) +
                Linear * static_cast<std::uint64_t>(CI.GepElemSize)));
        break;
      }
      case SimOp::LoadI:
      case SimOp::LoadF: {
        std::uint64_t Addr = static_cast<std::uint64_t>(Get(CI.Ops[0]).I);
        ++S.Loads;
        Trace.push(AccessTrace::Kind::Load, Addr);
        if (LoadSites)
          LoadSites->push_back(CI.I);
        RuntimeValue Out;
        if (CI.Op == SimOp::LoadF)
          Out.D = View.loadF64(Addr);
        else
          Out.I = View.loadI64(Addr);
        Env[static_cast<unsigned>(CI.DstSlot)] = Out;
        break;
      }
      case SimOp::StoreI:
      case SimOp::StoreF: {
        std::uint64_t Addr = static_cast<std::uint64_t>(Get(CI.Ops[1]).I);
        const RuntimeValue &V = Get(CI.Ops[0]);
        ++S.Stores;
        Trace.push(AccessTrace::Kind::Store, Addr);
        if (CI.Op == SimOp::StoreF)
          View.storeF64(Addr, V.D);
        else
          View.storeI64(Addr, V.I);
        break;
      }
      case SimOp::Prefetch: {
        std::uint64_t Addr = static_cast<std::uint64_t>(Get(CI.Ops[0]).I);
        ++S.Prefetches;
        Trace.push(AccessTrace::Kind::Prefetch, Addr);
        break;
      }
      case SimOp::Br:
        Next = CI.BlockA;
        break;
      case SimOp::CondBr:
        Next = Get(CI.Ops[0]).I != 0 ? CI.BlockA : CI.BlockB;
        break;
      case SimOp::Ret:
        if (RetOut && !CI.Ops.empty())
          *RetOut = Get(CI.Ops[0]);
        Next = -1;
        break;
      case SimOp::Call: {
        std::vector<RuntimeValue> CallArgs;
        CallArgs.reserve(CI.Ops.size());
        for (const OperandRef &Op : CI.Ops)
          CallArgs.push_back(Get(Op));
        RuntimeValue Ret;
        PhaseStats Sub = interpret(*Prog.lookup(*CI.Callee).Switch, CallArgs,
                                   &Ret, Trace, LoadSites);
        S += Sub;
        if (CI.DstSlot >= 0)
          Env[static_cast<unsigned>(CI.DstSlot)] = Ret;
        break;
      }
      case SimOp::Phi:
        assert(false && "phi reached the dispatch loop");
        break;
      }

      if (isTerminatorOp(CI.Op))
        break;
    }
    PrevBlock = Block;
    Block = Next;
  }
  return S;
}

PhaseStats
Interpreter::runTraced(const Function &F, const std::vector<RuntimeValue> &Args,
                       AccessTrace &Trace, RuntimeValue *RetOut,
                       std::vector<const ir::Instruction *> *LoadSites) {
  if (LoadSites && (Threaded || Native))
    throw std::invalid_argument(
        "load sites are recorded by the switch backend only");
  if (Threaded)
    return Threaded->runTraced(F, Args, Trace, RetOut);
  if (Native)
    return Native->runTraced(F, Args, Trace, RetOut);
  assert(Args.size() == F.getNumArgs() && "argument count mismatch");
  return interpret(*Prog.lookup(F).Switch, Args, RetOut, Trace, LoadSites);
}
