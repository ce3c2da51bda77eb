//===- ir/Verifier.cpp - Structural IR checks -----------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/Casting.h"
#include "support/Format.h"

#include <algorithm>
#include <set>

using namespace dae;
using namespace dae::ir;

namespace {

class VerifierImpl {
public:
  explicit VerifierImpl(const Function &F) : F(F) {}

  std::vector<std::string> run() {
    collectDefs();
    for (const auto &BB : F)
      checkBlock(*BB);
    return std::move(Problems);
  }

private:
  void error(const std::string &Msg) {
    Problems.push_back("in @" + F.getName() + ": " + Msg);
  }

  void collectDefs() {
    for (const auto &Arg : F.args())
      FuncValues.insert(Arg.get());
    for (const auto &BB : F)
      for (const auto &I : *BB)
        FuncValues.insert(I.get());
  }

  bool isLocalOrConstant(const Value *V) const {
    if (isa<ConstantInt, ConstantFloat, GlobalVariable>(V))
      return true;
    return FuncValues.count(V) != 0;
  }

  void checkBlock(const BasicBlock &BB) {
    if (BB.empty()) {
      error("block '" + BB.getName() + "' is empty");
      return;
    }
    if (!BB.getTerminator())
      error("block '" + BB.getName() + "' lacks a terminator");

    bool SeenNonPhi = false;
    for (const auto &IPtr : BB) {
      const Instruction *I = IPtr.get();
      if (I->isTerminator() && I != BB.back())
        error("terminator in the middle of block '" + BB.getName() + "'");
      if (isa<PhiInst>(I)) {
        if (SeenNonPhi)
          error("phi after non-phi in block '" + BB.getName() + "'");
      } else {
        SeenNonPhi = true;
      }
      checkInstruction(*I, BB);
    }
  }

  void expectType(const Instruction &I, const Value *V, Type Ty,
                  const char *What) {
    if (V->getType() != Ty)
      error(strfmt("%s of '%s' has type %s, expected %s", What,
                   printInstruction(I).c_str(), typeName(V->getType()),
                   typeName(Ty)));
  }

  void checkInstruction(const Instruction &I, const BasicBlock &BB) {
    for (const Value *Op : I.operands())
      if (!isLocalOrConstant(Op))
        error("operand of '" + printInstruction(I) +
              "' defined outside the function");

    switch (I.getKind()) {
    case ValueKind::InstBinary: {
      const auto &B = *cast<BinaryInst>(&I);
      Type Want = isFloatBinOp(B.getOpcode()) ? Type::Float64 : Type::Int64;
      expectType(I, B.getLHS(), Want, "lhs");
      expectType(I, B.getRHS(), Want, "rhs");
      break;
    }
    case ValueKind::InstCmp: {
      const auto &C = *cast<CmpInst>(&I);
      if (C.getLHS()->getType() != C.getRHS()->getType())
        error("cmp operand types differ in '" + printInstruction(I) + "'");
      break;
    }
    case ValueKind::InstSelect: {
      const auto &S = *cast<SelectInst>(&I);
      expectType(I, S.getCondition(), Type::Int64, "condition");
      if (S.getTrueValue()->getType() != S.getFalseValue()->getType())
        error("select arm types differ in '" + printInstruction(I) + "'");
      break;
    }
    case ValueKind::InstLoad:
      expectType(I, cast<LoadInst>(&I)->getPointer(), Type::Ptr, "pointer");
      break;
    case ValueKind::InstStore:
      expectType(I, cast<StoreInst>(&I)->getPointer(), Type::Ptr, "pointer");
      break;
    case ValueKind::InstPrefetch:
      expectType(I, cast<PrefetchInst>(&I)->getPointer(), Type::Ptr,
                 "pointer");
      break;
    case ValueKind::InstGep: {
      const auto &G = *cast<GepInst>(&I);
      expectType(I, G.getBase(), Type::Ptr, "base");
      for (unsigned J = 0; J != G.getNumIndices(); ++J)
        expectType(I, G.getIndex(J), Type::Int64, "index");
      break;
    }
    case ValueKind::InstPhi:
      checkPhi(*cast<PhiInst>(&I), BB);
      break;
    case ValueKind::InstBr: {
      const auto &Br = *cast<BrInst>(&I);
      if (Br.isConditional())
        expectType(I, Br.getCondition(), Type::Int64, "condition");
      for (unsigned J = 0; J != Br.getNumSuccessors(); ++J)
        if (!Br.getSuccessor(J) ||
            Br.getSuccessor(J)->getParent() != &F)
          error("branch in '" + BB.getName() +
                "' targets a block outside the function");
      break;
    }
    case ValueKind::InstRet: {
      const auto &R = *cast<RetInst>(&I);
      if (R.hasReturnValue() && F.getReturnType() == Type::Void)
        error("ret with value in void function");
      if (!R.hasReturnValue() && F.getReturnType() != Type::Void)
        error("void ret in non-void function");
      break;
    }
    case ValueKind::InstCall: {
      const auto &C = *cast<CallInst>(&I);
      const Function *Callee = C.getCallee();
      for (unsigned J = 0; J != C.getNumArgs(); ++J)
        expectType(I, C.getArg(J), Callee->getArg(J)->getType(), "argument");
      break;
    }
    default:
      break;
    }
  }

  void checkPhi(const PhiInst &Phi, const BasicBlock &BB) {
    std::vector<BasicBlock *> Preds = BB.predecessors();
    if (Phi.getNumIncoming() != Preds.size()) {
      error(strfmt("phi in '%s' has %u incoming entries but the block has "
                   "%zu predecessors",
                   BB.getName().c_str(), Phi.getNumIncoming(), Preds.size()));
      return;
    }
    for (unsigned J = 0; J != Phi.getNumIncoming(); ++J) {
      BasicBlock *In = Phi.getIncomingBlock(J);
      if (std::find(Preds.begin(), Preds.end(), In) == Preds.end())
        error("phi in '" + BB.getName() + "' names non-predecessor '" +
              (In ? In->getName() : "<null>") + "'");
      if (Phi.getIncomingValue(J)->getType() != Phi.getType())
        error("phi incoming type mismatch in '" + BB.getName() + "'");
    }
  }

  const Function &F;
  std::set<const Value *> FuncValues;
  std::vector<std::string> Problems;
};

} // namespace

std::vector<std::string> ir::verifyFunction(const Function &F) {
  return VerifierImpl(F).run();
}
