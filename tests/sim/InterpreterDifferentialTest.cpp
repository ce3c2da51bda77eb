//===- tests/sim/InterpreterDifferentialTest.cpp - IR vs host semantics ----===//
//
// Part of daecc. Distributed under the MIT license.
//
// Differential testing of the interpreter: seeded random straight-line
// programs over the full instruction set are executed both by the Task IR
// interpreter and by a host-side evaluator walking the same IR; results
// must agree bit-for-bit. Covers binops (integer and float), comparisons,
// selects, and casts — the arithmetic core the workload tests only sample.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "sim/Interpreter.h"
#include "support/Casting.h"
#include "support/MathUtil.h"

#include <gtest/gtest.h>
#include <map>

using namespace dae;
using namespace dae::ir;

namespace {

/// Host-side evaluation of the same value graph.
struct HostEval {
  std::map<const Value *, sim::RuntimeValue> Env;

  sim::RuntimeValue get(const Value *V) {
    if (const auto *CI = dyn_cast<ConstantInt>(V))
      return sim::RuntimeValue::ofInt(CI->getValue());
    if (const auto *CF = dyn_cast<ConstantFloat>(V))
      return sim::RuntimeValue::ofFloat(CF->getValue());
    return Env.at(V);
  }

  void eval(const Instruction *I) {
    if (const auto *Bin = dyn_cast<BinaryInst>(I)) {
      sim::RuntimeValue L = get(Bin->getLHS()), R = get(Bin->getRHS());
      sim::RuntimeValue Out;
      switch (Bin->getOpcode()) {
      case BinOp::Add: Out.I = L.I + R.I; break;
      case BinOp::Sub: Out.I = L.I - R.I; break;
      case BinOp::Mul: Out.I = L.I * R.I; break;
      case BinOp::SDiv: Out.I = R.I ? L.I / R.I : 0; break;
      case BinOp::SRem: Out.I = R.I ? L.I % R.I : 0; break;
      case BinOp::And: Out.I = L.I & R.I; break;
      case BinOp::Or: Out.I = L.I | R.I; break;
      case BinOp::Xor: Out.I = L.I ^ R.I; break;
      case BinOp::Shl:
        Out.I = static_cast<std::int64_t>(static_cast<std::uint64_t>(L.I)
                                          << (R.I & 63));
        break;
      case BinOp::AShr: Out.I = L.I >> (R.I & 63); break;
      case BinOp::FAdd: Out.D = L.D + R.D; break;
      case BinOp::FSub: Out.D = L.D - R.D; break;
      case BinOp::FMul: Out.D = L.D * R.D; break;
      case BinOp::FDiv: Out.D = L.D / R.D; break;
      }
      Env[I] = Out;
    } else if (const auto *Cmp = dyn_cast<CmpInst>(I)) {
      sim::RuntimeValue L = get(Cmp->getLHS()), R = get(Cmp->getRHS());
      bool B = false;
      switch (Cmp->getPredicate()) {
      case CmpPred::EQ: B = L.I == R.I; break;
      case CmpPred::NE: B = L.I != R.I; break;
      case CmpPred::SLT: B = L.I < R.I; break;
      case CmpPred::SLE: B = L.I <= R.I; break;
      case CmpPred::SGT: B = L.I > R.I; break;
      case CmpPred::SGE: B = L.I >= R.I; break;
      case CmpPred::FLT: B = L.D < R.D; break;
      case CmpPred::FLE: B = L.D <= R.D; break;
      case CmpPred::FGT: B = L.D > R.D; break;
      case CmpPred::FGE: B = L.D >= R.D; break;
      case CmpPred::FEQ: B = L.D == R.D; break;
      case CmpPred::FNE: B = L.D != R.D; break;
      }
      Env[I] = sim::RuntimeValue::ofInt(B);
    } else if (const auto *Sel = dyn_cast<SelectInst>(I)) {
      Env[I] = get(Sel->getCondition()).I ? get(Sel->getTrueValue())
                                          : get(Sel->getFalseValue());
    } else if (const auto *Cast = dyn_cast<CastInst>(I)) {
      sim::RuntimeValue V = get(Cast->getSource());
      sim::RuntimeValue Out;
      switch (Cast->getOpcode()) {
      case CastOp::SIToFP: Out.D = static_cast<double>(V.I); break;
      case CastOp::FPToSI: Out.I = static_cast<std::int64_t>(V.D); break;
      case CastOp::PtrToInt:
      case CastOp::IntToPtr: Out.I = V.I; break;
      }
      Env[I] = Out;
    }
  }
};

class InterpDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(InterpDifferential, RandomStraightLineProgram) {
  SplitMixRng Rng(GetParam() * 2654435761u + 17);
  Module M;
  auto *Out = M.createGlobal("Out", 16);
  Function *F =
      M.createFunction("p", Type::Void, {Type::Int64, Type::Float64});
  IRBuilder B(M, F->createBlock("entry"));

  std::vector<Value *> Ints{F->getArg(0), M.getInt(3), M.getInt(-7)};
  std::vector<Value *> Floats{F->getArg(1), M.getFloat(0.75),
                              M.getFloat(-2.5)};
  std::vector<const Instruction *> Order;

  auto PickI = [&]() { return Ints[Rng.nextBelow(Ints.size())]; };
  auto PickF = [&]() { return Floats[Rng.nextBelow(Floats.size())]; };

  for (int Step = 0; Step != 40; ++Step) {
    Value *V = nullptr;
    switch (Rng.nextBelow(6)) {
    case 0: {
      BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Mul, BinOp::SDiv,
                     BinOp::SRem, BinOp::And, BinOp::Or, BinOp::Xor,
                     BinOp::Shl, BinOp::AShr};
      V = B.createBinOp(Ops[Rng.nextBelow(10)], PickI(), PickI());
      Ints.push_back(V);
      break;
    }
    case 1: {
      BinOp Ops[] = {BinOp::FAdd, BinOp::FSub, BinOp::FMul, BinOp::FDiv};
      V = B.createBinOp(Ops[Rng.nextBelow(4)], PickF(), PickF());
      Floats.push_back(V);
      break;
    }
    case 2: {
      CmpPred Ps[] = {CmpPred::EQ, CmpPred::NE, CmpPred::SLT, CmpPred::SLE,
                      CmpPred::SGT, CmpPred::SGE};
      V = B.createCmp(Ps[Rng.nextBelow(6)], PickI(), PickI());
      Ints.push_back(V);
      break;
    }
    case 3:
      V = B.createSelect(PickI(), PickI(), PickI());
      Ints.push_back(V);
      break;
    case 4:
      V = B.createCast(CastOp::SIToFP, PickI());
      Floats.push_back(V);
      break;
    default:
      V = B.createCast(CastOp::FPToSI, PickF());
      Ints.push_back(V);
      break;
    }
    Order.push_back(cast<Instruction>(V));
  }
  Value *FinalI = Ints.back();
  Value *FinalF = Floats.back();
  B.createStore(FinalI, B.createGep1D(Out, B.getInt(0), 8));
  B.createStore(FinalF, B.createGep1D(Out, B.getInt(1), 8));
  B.createRet();

  // Host evaluation.
  sim::RuntimeValue ArgI = sim::RuntimeValue::ofInt(
      static_cast<std::int64_t>(Rng.next() % 2001) - 1000);
  sim::RuntimeValue ArgF = sim::RuntimeValue::ofFloat(Rng.nextDouble() * 8 - 4);
  HostEval Host;
  Host.Env[F->getArg(0)] = ArgI;
  Host.Env[F->getArg(1)] = ArgF;
  for (const Instruction *I : Order)
    Host.eval(I);

  // Interpreter evaluation.
  sim::MachineConfig Cfg;
  sim::Memory Mem;
  sim::Loader L(M);
  sim::Interpreter Interp(Cfg, Mem, L);
  sim::AccessTrace Trace;
  Interp.runTraced(*F, {ArgI, ArgF}, Trace);

  EXPECT_EQ(Mem.loadI64(L.baseOf("Out")), Host.get(FinalI).I);
  double HostF = Host.get(FinalF).D;
  double GotF = Mem.loadF64(L.baseOf("Out") + 8);
  if (std::isnan(HostF))
    EXPECT_TRUE(std::isnan(GotF));
  else
    EXPECT_DOUBLE_EQ(GotF, HostF);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterpDifferential, ::testing::Range(0u, 32u));

} // namespace
