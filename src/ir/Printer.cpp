//===- ir/Printer.cpp - Textual IR printer --------------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"

#include "ir/Module.h"
#include "support/Casting.h"
#include "support/Format.h"

using namespace dae;
using namespace dae::ir;

std::string ir::printOperand(const Value &V) {
  if (const auto *CI = dyn_cast<ConstantInt>(&V))
    return std::to_string(CI->getValue());
  if (const auto *CF = dyn_cast<ConstantFloat>(&V))
    return strfmt("%g", CF->getValue());
  if (isa<GlobalVariable>(&V))
    return "@" + V.getName();
  if (const auto *A = dyn_cast<Argument>(&V))
    return V.getName().empty() ? strfmt("arg%u", A->getIndex()) : V.getName();
  return V.getName().empty() ? "%?" : V.getName();
}

std::string ir::printInstruction(const Instruction &I) {
  std::string Res;
  if (I.getType() != Type::Void)
    Res += printOperand(I) + " = ";

  switch (I.getKind()) {
  case ValueKind::InstBinary: {
    const auto &B = *cast<BinaryInst>(&I);
    Res += strfmt("%s %s, %s", binOpName(B.getOpcode()),
                  printOperand(*B.getLHS()).c_str(),
                  printOperand(*B.getRHS()).c_str());
    break;
  }
  case ValueKind::InstCmp: {
    const auto &C = *cast<CmpInst>(&I);
    Res += strfmt("cmp %s %s, %s", cmpPredName(C.getPredicate()),
                  printOperand(*C.getLHS()).c_str(),
                  printOperand(*C.getRHS()).c_str());
    break;
  }
  case ValueKind::InstSelect: {
    const auto &S = *cast<SelectInst>(&I);
    Res += strfmt("select %s, %s, %s",
                  printOperand(*S.getCondition()).c_str(),
                  printOperand(*S.getTrueValue()).c_str(),
                  printOperand(*S.getFalseValue()).c_str());
    break;
  }
  case ValueKind::InstCast: {
    const auto &C = *cast<CastInst>(&I);
    Res += strfmt("%s %s", castOpName(C.getOpcode()),
                  printOperand(*C.getSource()).c_str());
    break;
  }
  case ValueKind::InstLoad: {
    const auto &L = *cast<LoadInst>(&I);
    Res += strfmt("load %s, %s", typeName(L.getType()),
                  printOperand(*L.getPointer()).c_str());
    break;
  }
  case ValueKind::InstStore: {
    const auto &S = *cast<StoreInst>(&I);
    Res += strfmt("store %s, %s", printOperand(*S.getValue()).c_str(),
                  printOperand(*S.getPointer()).c_str());
    break;
  }
  case ValueKind::InstPrefetch: {
    const auto &P = *cast<PrefetchInst>(&I);
    Res += strfmt("prefetch %s", printOperand(*P.getPointer()).c_str());
    break;
  }
  case ValueKind::InstGep: {
    const auto &G = *cast<GepInst>(&I);
    Res += strfmt("gep %s", printOperand(*G.getBase()).c_str());
    for (unsigned J = 0; J != G.getNumIndices(); ++J)
      Res += strfmt("[%s]", printOperand(*G.getIndex(J)).c_str());
    Res += strfmt(" elem=%lld", static_cast<long long>(G.getElemSize()));
    if (G.getNumIndices() > 1) {
      Res += " dims=[";
      const auto &Dims = G.getDimSizes();
      for (unsigned J = 0; J != Dims.size(); ++J)
        Res += (J ? "," : "") + std::to_string(Dims[J]);
      Res += "]";
    }
    break;
  }
  case ValueKind::InstPhi: {
    const auto &P = *cast<PhiInst>(&I);
    Res += "phi ";
    for (unsigned J = 0; J != P.getNumIncoming(); ++J)
      Res += strfmt("%s[%s, %s]", J ? ", " : "",
                    printOperand(*P.getIncomingValue(J)).c_str(),
                    P.getIncomingBlock(J)->getName().c_str());
    break;
  }
  case ValueKind::InstBr: {
    const auto &B = *cast<BrInst>(&I);
    if (B.isConditional())
      Res += strfmt("br %s, %s, %s", printOperand(*B.getCondition()).c_str(),
                    B.getTrueDest()->getName().c_str(),
                    B.getFalseDest()->getName().c_str());
    else
      Res += strfmt("br %s", B.getTrueDest()->getName().c_str());
    break;
  }
  case ValueKind::InstRet: {
    const auto &R = *cast<RetInst>(&I);
    Res += R.hasReturnValue()
               ? "ret " + printOperand(*R.getReturnValue())
               : std::string("ret");
    break;
  }
  case ValueKind::InstCall: {
    const auto &C = *cast<CallInst>(&I);
    Res += "call @" + C.getCallee()->getName() + "(";
    for (unsigned J = 0; J != C.getNumArgs(); ++J)
      Res += (J ? ", " : "") + printOperand(*C.getArg(J));
    Res += ")";
    break;
  }
  default:
    Res += "<unknown>";
  }
  return Res;
}

std::string ir::printFunction(Function &F) {
  F.renumberValues();
  std::string Res =
      strfmt("%s @%s(", F.isTask() ? "task" : "func", F.getName().c_str());
  for (unsigned I = 0; I != F.getNumArgs(); ++I) {
    Argument *A = F.getArg(I);
    Res += strfmt("%s%s %s", I ? ", " : "", typeName(A->getType()),
                  printOperand(*A).c_str());
  }
  Res += ") {\n";
  for (const auto &BB : F) {
    Res += BB->getName() + ":\n";
    for (const auto &I : *BB)
      Res += "  " + printInstruction(*I) + "\n";
  }
  Res += "}\n";
  return Res;
}
