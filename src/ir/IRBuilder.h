//===- ir/IRBuilder.h - Convenience instruction factory ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cursor-style builder in the LLVM mold. Workload builders and the access
/// phase generators use it to emit code; it performs no folding (the constant
/// folder is a pass) so tests can see exactly what was asked for.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_IR_IRBUILDER_H
#define DAECC_IR_IRBUILDER_H

#include "ir/Module.h"

#include <functional>
#include <memory>
#include <string>

namespace dae {
namespace ir {

/// Appends instructions at the end of the current insertion block.
class IRBuilder {
public:
  explicit IRBuilder(Module &M) : M(M) {}
  IRBuilder(Module &M, BasicBlock *BB) : M(M), Block(BB) {}

  BasicBlock *getInsertBlock() const { return Block; }
  void setInsertBlock(BasicBlock *BB) { Block = BB; }

  ConstantInt *getInt(std::int64_t V) { return M.getInt(V); }
  ConstantFloat *getFloat(double V) { return M.getFloat(V); }

  Value *createBinOp(BinOp Op, Value *L, Value *R);
  Value *createAdd(Value *L, Value *R) { return createBinOp(BinOp::Add, L, R); }
  Value *createSub(Value *L, Value *R) { return createBinOp(BinOp::Sub, L, R); }
  Value *createMul(Value *L, Value *R) { return createBinOp(BinOp::Mul, L, R); }
  Value *createSDiv(Value *L, Value *R) {
    return createBinOp(BinOp::SDiv, L, R);
  }
  Value *createSRem(Value *L, Value *R) {
    return createBinOp(BinOp::SRem, L, R);
  }
  Value *createAnd(Value *L, Value *R) { return createBinOp(BinOp::And, L, R); }
  Value *createXor(Value *L, Value *R) { return createBinOp(BinOp::Xor, L, R); }
  Value *createShl(Value *L, Value *R) { return createBinOp(BinOp::Shl, L, R); }
  Value *createAShr(Value *L, Value *R) {
    return createBinOp(BinOp::AShr, L, R);
  }
  Value *createFAdd(Value *L, Value *R) {
    return createBinOp(BinOp::FAdd, L, R);
  }
  Value *createFSub(Value *L, Value *R) {
    return createBinOp(BinOp::FSub, L, R);
  }
  Value *createFMul(Value *L, Value *R) {
    return createBinOp(BinOp::FMul, L, R);
  }
  Value *createFDiv(Value *L, Value *R) {
    return createBinOp(BinOp::FDiv, L, R);
  }

  Value *createCmp(CmpPred P, Value *L, Value *R);
  Value *createSelect(Value *Cond, Value *TVal, Value *FVal);
  Value *createCast(CastOp Op, Value *V);

  LoadInst *createLoad(Type Ty, Value *Ptr);
  StoreInst *createStore(Value *Val, Value *Ptr);
  PrefetchInst *createPrefetch(Value *Ptr);

  /// One-dimensional GEP: Base + Idx * ElemSize.
  GepInst *createGep1D(Value *Base, Value *Idx, std::int64_t ElemSize);
  /// Two-dimensional GEP over a row-major [*, Cols] array.
  GepInst *createGep2D(Value *Base, Value *Row, Value *Col, std::int64_t Cols,
                       std::int64_t ElemSize);
  GepInst *createGep(Value *Base, std::vector<Value *> Indices,
                     std::vector<std::int64_t> DimSizes, std::int64_t ElemSize);

  PhiInst *createPhi(Type Ty);
  BrInst *createBr(BasicBlock *Dest);
  BrInst *createCondBr(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB);
  RetInst *createRet();
  RetInst *createRet(Value *V);
  CallInst *createCall(Function *Callee, std::vector<Value *> Args);

private:
  Instruction *insert(std::unique_ptr<Instruction> I);

  Module &M;
  BasicBlock *Block = nullptr;
};

/// Emits a canonical counted loop:
///   for (iv = Begin; iv < End; iv += Step) Body(iv)
/// Creates header/body/latch/exit blocks, leaves the builder positioned in
/// the exit block, and returns the induction phi. \p BodyFn is invoked with
/// the builder positioned inside the body block.
PhiInst *emitCountedLoop(IRBuilder &B, Value *Begin, Value *End, Value *Step,
                         const std::string &NamePrefix,
                         const std::function<void(IRBuilder &, Value *)> &BodyFn);

} // namespace ir
} // namespace dae

#endif // DAECC_IR_IRBUILDER_H
