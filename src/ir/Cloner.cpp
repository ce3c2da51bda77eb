//===- ir/Cloner.cpp - Function deep copy ---------------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Cloner.h"

#include "ir/Function.h"
#include "support/Casting.h"

using namespace dae;
using namespace dae::ir;

namespace {

Value *mapValue(const ValueMap &VM, Value *V) {
  auto It = VM.find(V);
  if (It != VM.end())
    return It->second;
  // Constants and globals are shared; instructions and arguments must have
  // been cloned already (blocks are visited in layout order, which for
  // builder-generated code is a def-before-use order modulo phis).
  assert((isa<ConstantInt, ConstantFloat, GlobalVariable>(V)) &&
         "operand not cloned before use; check block layout order");
  return V;
}

BasicBlock *mapBlock(const std::map<const BasicBlock *, BasicBlock *> &BM,
                     BasicBlock *BB) {
  auto It = BM.find(BB);
  assert(It != BM.end() && "branch target not cloned");
  return It->second;
}

} // namespace

std::unique_ptr<Instruction> ir::cloneInstruction(
    const Instruction &I, const ValueMap &VM,
    const std::map<const BasicBlock *, BasicBlock *> &BlockMap) {
  auto Op = [&](unsigned Idx) { return mapValue(VM, I.getOperand(Idx)); };

  switch (I.getKind()) {
  case ValueKind::InstBinary:
    return std::make_unique<BinaryInst>(cast<BinaryInst>(&I)->getOpcode(),
                                        Op(0), Op(1));
  case ValueKind::InstCmp:
    return std::make_unique<CmpInst>(cast<CmpInst>(&I)->getPredicate(), Op(0),
                                     Op(1));
  case ValueKind::InstSelect:
    return std::make_unique<SelectInst>(Op(0), Op(1), Op(2));
  case ValueKind::InstCast:
    return std::make_unique<CastInst>(cast<CastInst>(&I)->getOpcode(), Op(0));
  case ValueKind::InstLoad:
    return std::make_unique<LoadInst>(I.getType(), Op(0));
  case ValueKind::InstStore:
    return std::make_unique<StoreInst>(Op(0), Op(1));
  case ValueKind::InstPrefetch:
    return std::make_unique<PrefetchInst>(Op(0));
  case ValueKind::InstGep: {
    const auto &G = *cast<GepInst>(&I);
    std::vector<Value *> Indices;
    for (unsigned J = 0; J != G.getNumIndices(); ++J)
      Indices.push_back(mapValue(VM, G.getIndex(J)));
    return std::make_unique<GepInst>(Op(0), std::move(Indices),
                                     G.getDimSizes(), G.getElemSize());
  }
  case ValueKind::InstPhi: {
    const auto &P = *cast<PhiInst>(&I);
    auto NewPhi = std::make_unique<PhiInst>(P.getType());
    for (unsigned J = 0; J != P.getNumIncoming(); ++J)
      NewPhi->addIncoming(mapValue(VM, P.getIncomingValue(J)),
                          mapBlock(BlockMap, P.getIncomingBlock(J)));
    return NewPhi;
  }
  case ValueKind::InstBr: {
    const auto &B = *cast<BrInst>(&I);
    if (B.isConditional())
      return std::make_unique<BrInst>(Op(0),
                                      mapBlock(BlockMap, B.getTrueDest()),
                                      mapBlock(BlockMap, B.getFalseDest()));
    return std::make_unique<BrInst>(mapBlock(BlockMap, B.getTrueDest()));
  }
  case ValueKind::InstRet: {
    const auto &R = *cast<RetInst>(&I);
    if (R.hasReturnValue())
      return std::make_unique<RetInst>(Op(0));
    return std::make_unique<RetInst>();
  }
  case ValueKind::InstCall: {
    const auto &C = *cast<CallInst>(&I);
    std::vector<Value *> Args;
    for (unsigned J = 0; J != C.getNumArgs(); ++J)
      Args.push_back(mapValue(VM, C.getArg(J)));
    return std::make_unique<CallInst>(C.getCallee(), std::move(Args),
                                      C.getType());
  }
  default:
    assert(false && "unknown instruction kind in cloner");
    return nullptr;
  }
}

std::unique_ptr<Function> ir::cloneFunction(const Function &F,
                                            std::string NewName,
                                            ValueMap *MapOut) {
  std::vector<Type> ParamTys;
  for (const auto &A : F.args())
    ParamTys.push_back(A->getType());
  auto Clone = std::make_unique<Function>(std::move(NewName),
                                          F.getReturnType(), ParamTys);
  Clone->setTask(F.isTask());
  Clone->setNoInline(F.isNoInline());

  ValueMap VM;
  for (unsigned I = 0; I != F.getNumArgs(); ++I)
    VM[F.getArg(I)] = Clone->getArg(I);

  std::map<const BasicBlock *, BasicBlock *> BlockMap;
  for (const auto &BB : F)
    BlockMap[BB.get()] = Clone->createBlock(BB->getName());

  // Pass 1: clone non-phi instructions; create empty placeholder phis so
  // forward references resolve.
  std::vector<std::pair<const PhiInst *, PhiInst *>> PendingPhis;
  for (const auto &BB : F) {
    BasicBlock *NewBB = BlockMap[BB.get()];
    for (const auto &I : *BB) {
      if (const auto *P = dyn_cast<PhiInst>(I.get())) {
        auto NewPhi = std::make_unique<PhiInst>(P->getType());
        PendingPhis.emplace_back(P, NewPhi.get());
        VM[P] = NewPhi.get();
        NewBB->append(std::move(NewPhi));
        continue;
      }
      // Non-phi operands always reference values that dominate them, but a
      // back-edge can still make an operand a not-yet-cloned phi; handle by
      // deferring operand remap of phis only (above). All other operands of a
      // well-formed function are cloned before their uses in RPO order;
      // source order suffices because blocks are in layout order and defs
      // precede uses within a block, while cross-block uses may only target
      // earlier blocks or phis.
      auto NewI = cloneInstruction(*I, VM, BlockMap);
      VM[I.get()] = NewI.get();
      NewBB->append(std::move(NewI));
    }
  }

  // Pass 2: fill in phi incoming lists.
  for (auto &[OldPhi, NewPhi] : PendingPhis)
    for (unsigned J = 0; J != OldPhi->getNumIncoming(); ++J)
      NewPhi->addIncoming(mapValue(VM, OldPhi->getIncomingValue(J)),
                          mapBlock(BlockMap, OldPhi->getIncomingBlock(J)));

  if (MapOut)
    *MapOut = std::move(VM);
  return Clone;
}
