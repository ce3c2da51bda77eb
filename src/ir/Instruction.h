//===- ir/Instruction.h - Task IR instructions ------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Task IR instruction set. It mirrors the subset of LLVM IR the paper's
/// transformation manipulates: integer/float arithmetic, comparisons,
/// selects, casts, loads/stores, the x86 builtin prefetch (section 3.1), a
/// multi-dimensional GEP that keeps array shape visible to the polyhedral
/// stage, phis, branches, returns, and direct calls (which must be inlined
/// before an access phase may be generated — section 5.2.2 step 1).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_IR_INSTRUCTION_H
#define DAECC_IR_INSTRUCTION_H

#include "ir/Value.h"
#include "support/Casting.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace dae {
namespace ir {

class BasicBlock;
class Function;

/// Base class of all Task IR instructions. Owns nothing; operand use lists
/// are maintained through setOperand/appendOperand/dropAllOperands.
class Instruction : public Value {
public:
  ~Instruction() override;

  BasicBlock *getParent() const { return Parent; }
  void setParent(BasicBlock *BB) { Parent = BB; }

  /// Function containing this instruction, or null if detached.
  Function *getFunction() const;

  unsigned getNumOperands() const {
    return static_cast<unsigned>(Operands.size());
  }
  Value *getOperand(unsigned I) const {
    assert(I < Operands.size() && "operand index out of range");
    return Operands[I];
  }
  void setOperand(unsigned I, Value *V);
  const std::vector<Value *> &operands() const { return Operands; }

  /// Releases every operand use; required before deleting the instruction.
  void dropAllOperands();

  /// True for br/ret.
  bool isTerminator() const {
    return getKind() == ValueKind::InstBr || getKind() == ValueKind::InstRet;
  }

  /// True if removing this instruction (given it has no users) changes
  /// program behaviour: stores, prefetches, calls, and terminators.
  bool hasSideEffects() const;

  static bool classof(const Value *V) {
    return V->getKind() >= ValueKind::InstBinary &&
           V->getKind() <= ValueKind::InstCall;
  }

protected:
  Instruction(ValueKind K, Type T) : Value(K, T) {}

  void appendOperand(Value *V);

private:
  BasicBlock *Parent = nullptr;
  std::vector<Value *> Operands;
};

/// Two-operand arithmetic/logic.
enum class BinOp {
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
};

/// True for the floating-point opcodes.
bool isFloatBinOp(BinOp Op);
/// Printable opcode mnemonic.
const char *binOpName(BinOp Op);

/// SDiv's semantics, total over int64: a zero divisor gives 0, and a divisor
/// of -1 gives the wrapping negation (INT64_MIN sdiv -1 is INT64_MIN) where
/// x86's idiv would trap. The switch and threaded loops and the constant
/// folder compute SDiv with this; the native JIT's stencil matches it.
inline std::int64_t sdivTotal(std::int64_t L, std::int64_t R) {
  if (R == 0)
    return 0;
  if (R == -1)
    return static_cast<std::int64_t>(0 - static_cast<std::uint64_t>(L));
  return L / R;
}

/// SRem's semantics: 0 for the divisors 0 and -1, L % R otherwise.
inline std::int64_t sremTotal(std::int64_t L, std::int64_t R) {
  return R == 0 || R == -1 ? 0 : L % R;
}

class BinaryInst : public Instruction {
public:
  BinaryInst(BinOp Op, Value *L, Value *R)
      : Instruction(ValueKind::InstBinary,
                    isFloatBinOp(Op) ? Type::Float64 : Type::Int64),
        Op(Op) {
    appendOperand(L);
    appendOperand(R);
  }

  BinOp getOpcode() const { return Op; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstBinary;
  }

private:
  BinOp Op;
};

/// Comparison predicates; integer predicates are signed.
enum class CmpPred { EQ, NE, SLT, SLE, SGT, SGE, FLT, FLE, FGT, FGE, FEQ, FNE };

const char *cmpPredName(CmpPred P);

/// Produces 0/1 in an i64.
class CmpInst : public Instruction {
public:
  CmpInst(CmpPred P, Value *L, Value *R)
      : Instruction(ValueKind::InstCmp, Type::Int64), Pred(P) {
    appendOperand(L);
    appendOperand(R);
  }

  CmpPred getPredicate() const { return Pred; }
  Value *getLHS() const { return getOperand(0); }
  Value *getRHS() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstCmp;
  }

private:
  CmpPred Pred;
};

/// select(cond != 0 ? tval : fval).
class SelectInst : public Instruction {
public:
  SelectInst(Value *Cond, Value *TVal, Value *FVal)
      : Instruction(ValueKind::InstSelect, TVal->getType()) {
    appendOperand(Cond);
    appendOperand(TVal);
    appendOperand(FVal);
  }

  Value *getCondition() const { return getOperand(0); }
  Value *getTrueValue() const { return getOperand(1); }
  Value *getFalseValue() const { return getOperand(2); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstSelect;
  }
};

/// Conversions between the scalar types.
enum class CastOp { SIToFP, FPToSI, PtrToInt, IntToPtr };

const char *castOpName(CastOp Op);

class CastInst : public Instruction {
public:
  CastInst(CastOp Op, Value *V)
      : Instruction(ValueKind::InstCast, resultType(Op)), Op(Op) {
    appendOperand(V);
  }

  CastOp getOpcode() const { return Op; }
  Value *getSource() const { return getOperand(0); }

  static Type resultType(CastOp Op) {
    switch (Op) {
    case CastOp::SIToFP:
      return Type::Float64;
    case CastOp::FPToSI:
      return Type::Int64;
    case CastOp::PtrToInt:
      return Type::Int64;
    case CastOp::IntToPtr:
      return Type::Ptr;
    }
    return Type::Void;
  }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstCast;
  }

private:
  CastOp Op;
};

/// Reads ValueTy from the address operand.
class LoadInst : public Instruction {
public:
  LoadInst(Type ValueTy, Value *Ptr)
      : Instruction(ValueKind::InstLoad, ValueTy) {
    assert(Ptr->getType() == Type::Ptr && "load from non-pointer");
    appendOperand(Ptr);
  }

  Value *getPointer() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstLoad;
  }
};

/// Writes the value operand to the address operand.
class StoreInst : public Instruction {
public:
  StoreInst(Value *Val, Value *Ptr)
      : Instruction(ValueKind::InstStore, Type::Void) {
    assert(Ptr->getType() == Type::Ptr && "store to non-pointer");
    appendOperand(Val);
    appendOperand(Ptr);
  }

  Value *getValue() const { return getOperand(0); }
  Value *getPointer() const { return getOperand(1); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstStore;
  }
};

/// Non-binding software prefetch of the address operand; never faults, never
/// stalls retirement (section 3.1 of the paper).
class PrefetchInst : public Instruction {
public:
  explicit PrefetchInst(Value *Ptr)
      : Instruction(ValueKind::InstPrefetch, Type::Void) {
    assert(Ptr->getType() == Type::Ptr && "prefetch of non-pointer");
    appendOperand(Ptr);
  }

  Value *getPointer() const { return getOperand(0); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstPrefetch;
  }
};

/// Multi-dimensional address computation:
///   addr = base + ElemSize * (((i0 * Dim1 + i1) * Dim2 + i2) ... )
/// Dim sizes are static so the polyhedral stage can reason about array shape,
/// playing the role of LLVM's delinearized SCEV in the paper.
class GepInst : public Instruction {
public:
  GepInst(Value *Base, std::vector<Value *> Indices,
          std::vector<std::int64_t> DimSizes, std::int64_t ElemSize)
      : Instruction(ValueKind::InstGep, Type::Ptr),
        DimSizes(std::move(DimSizes)), ElemSize(ElemSize) {
    assert(Base->getType() == Type::Ptr && "GEP base must be a pointer");
    assert(Indices.size() == this->DimSizes.size() &&
           "one dim size per index (outermost may be 0)");
    assert(ElemSize > 0 && "element size must be positive");
    appendOperand(Base);
    for (Value *I : Indices)
      appendOperand(I);
  }

  Value *getBase() const { return getOperand(0); }
  unsigned getNumIndices() const { return getNumOperands() - 1; }
  Value *getIndex(unsigned I) const { return getOperand(I + 1); }
  const std::vector<std::int64_t> &getDimSizes() const { return DimSizes; }
  std::int64_t getElemSize() const { return ElemSize; }

  /// Byte stride of index \p I: ElemSize * product of the inner dim sizes.
  std::int64_t getIndexStride(unsigned I) const {
    std::int64_t Stride = ElemSize;
    for (unsigned J = I + 1; J < DimSizes.size(); ++J)
      Stride *= DimSizes[J];
    return Stride;
  }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstGep;
  }

private:
  std::vector<std::int64_t> DimSizes;
  std::int64_t ElemSize;
};

/// SSA phi. Incoming blocks are parallel to operands.
class PhiInst : public Instruction {
public:
  explicit PhiInst(Type T) : Instruction(ValueKind::InstPhi, T) {}

  void addIncoming(Value *V, BasicBlock *BB) {
    appendOperand(V);
    Incoming.push_back(BB);
  }

  unsigned getNumIncoming() const {
    return static_cast<unsigned>(Incoming.size());
  }
  Value *getIncomingValue(unsigned I) const { return getOperand(I); }
  BasicBlock *getIncomingBlock(unsigned I) const { return Incoming[I]; }
  void setIncomingBlock(unsigned I, BasicBlock *BB) { Incoming[I] = BB; }

  /// Value flowing in from \p BB; asserts that BB is an incoming block.
  Value *getIncomingValueForBlock(const BasicBlock *BB) const;
  /// Index of \p BB among the incoming blocks, or -1.
  int getBlockIndex(const BasicBlock *BB) const;
  /// Removes the incoming pair at index \p I.
  void removeIncoming(unsigned I);

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstPhi;
  }

private:
  friend class Instruction;
  std::vector<BasicBlock *> Incoming;
};

/// Conditional or unconditional branch.
class BrInst : public Instruction {
public:
  /// Unconditional.
  explicit BrInst(BasicBlock *Dest)
      : Instruction(ValueKind::InstBr, Type::Void), TrueDest(Dest),
        FalseDest(nullptr) {}

  /// Conditional on Cond != 0.
  BrInst(Value *Cond, BasicBlock *TrueBB, BasicBlock *FalseBB)
      : Instruction(ValueKind::InstBr, Type::Void), TrueDest(TrueBB),
        FalseDest(FalseBB) {
    appendOperand(Cond);
  }

  bool isConditional() const { return getNumOperands() == 1; }
  Value *getCondition() const {
    assert(isConditional() && "unconditional branch has no condition");
    return getOperand(0);
  }
  BasicBlock *getTrueDest() const { return TrueDest; }
  BasicBlock *getFalseDest() const { return FalseDest; }
  void setTrueDest(BasicBlock *BB) { TrueDest = BB; }
  void setFalseDest(BasicBlock *BB) { FalseDest = BB; }

  unsigned getNumSuccessors() const { return isConditional() ? 2 : 1; }
  BasicBlock *getSuccessor(unsigned I) const {
    assert(I < getNumSuccessors() && "successor index out of range");
    return I == 0 ? TrueDest : FalseDest;
  }

  /// Turns a conditional branch into an unconditional one to \p Dest.
  void makeUnconditional(BasicBlock *Dest);

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstBr;
  }

private:
  BasicBlock *TrueDest;
  BasicBlock *FalseDest;
};

/// Function return, with an optional value.
class RetInst : public Instruction {
public:
  RetInst() : Instruction(ValueKind::InstRet, Type::Void) {}
  explicit RetInst(Value *V) : Instruction(ValueKind::InstRet, Type::Void) {
    if (V)
      appendOperand(V);
  }

  bool hasReturnValue() const { return getNumOperands() == 1; }
  Value *getReturnValue() const {
    assert(hasReturnValue() && "void return has no value");
    return getOperand(0);
  }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstRet;
  }
};

/// Direct call. The paper requires all calls inside a task to be inlinable;
/// the inliner (passes/Inliner) eliminates these before access generation.
class CallInst : public Instruction {
public:
  CallInst(Function *Callee, std::vector<Value *> Args, Type RetTy);

  Function *getCallee() const { return Callee; }
  unsigned getNumArgs() const { return getNumOperands(); }
  Value *getArg(unsigned I) const { return getOperand(I); }

  static bool classof(const Value *V) {
    return V->getKind() == ValueKind::InstCall;
  }

private:
  Function *Callee;
};

} // namespace ir
} // namespace dae

#endif // DAECC_IR_INSTRUCTION_H
