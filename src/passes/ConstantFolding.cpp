//===- passes/ConstantFolding.cpp - Constant folding ----------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Function.h"
#include "ir/Module.h"
#include "passes/Passes.h"
#include "support/Casting.h"

#include <optional>
#include <vector>

using namespace dae;
using namespace dae::ir;

namespace {

std::optional<std::int64_t> foldIntBinOp(BinOp Op, std::int64_t L,
                                         std::int64_t R) {
  // Add/Sub/Mul wrap through uint64_t like every backend; division by 0 is
  // left to run (it gives 0 at run time).
  const std::uint64_t UL = static_cast<std::uint64_t>(L),
                      UR = static_cast<std::uint64_t>(R);
  switch (Op) {
  case BinOp::Add:
    return static_cast<std::int64_t>(UL + UR);
  case BinOp::Sub:
    return static_cast<std::int64_t>(UL - UR);
  case BinOp::Mul:
    return static_cast<std::int64_t>(UL * UR);
  case BinOp::SDiv:
    if (R == 0)
      return std::nullopt;
    return sdivTotal(L, R);
  case BinOp::SRem:
    if (R == 0)
      return std::nullopt;
    return sremTotal(L, R);
  case BinOp::And:
    return L & R;
  case BinOp::Or:
    return L | R;
  case BinOp::Xor:
    return L ^ R;
  case BinOp::Shl:
    if (R < 0 || R > 63)
      return std::nullopt;
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(L) << R);
  case BinOp::AShr:
    if (R < 0 || R > 63)
      return std::nullopt;
    return L >> R;
  default:
    return std::nullopt;
  }
}

std::optional<std::int64_t> foldCmp(CmpPred P, std::int64_t L,
                                    std::int64_t R) {
  switch (P) {
  case CmpPred::EQ:
    return L == R;
  case CmpPred::NE:
    return L != R;
  case CmpPred::SLT:
    return L < R;
  case CmpPred::SLE:
    return L <= R;
  case CmpPred::SGT:
    return L > R;
  case CmpPred::SGE:
    return L >= R;
  default:
    return std::nullopt;
  }
}

} // namespace

bool passes::runConstantFolding(Function &F) {
  Module *M = F.getParent();
  if (!M)
    return false;

  bool EverChanged = false;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F) {
      std::vector<Instruction *> Worklist;
      for (const auto &I : *BB)
        Worklist.push_back(I.get());

      for (Instruction *I : Worklist) {
        Value *Replacement = nullptr;

        if (auto *Bin = dyn_cast<BinaryInst>(I)) {
          auto *L = dyn_cast<ConstantInt>(Bin->getLHS());
          auto *R = dyn_cast<ConstantInt>(Bin->getRHS());
          if (L && R) {
            if (auto V =
                    foldIntBinOp(Bin->getOpcode(), L->getValue(), R->getValue()))
              Replacement = M->getInt(*V);
          } else if (R && !isFloatBinOp(Bin->getOpcode())) {
            // Identity simplifications: x+0, x-0, x*1, x<<0, x|0, x^0.
            std::int64_t C = R->getValue();
            BinOp Op = Bin->getOpcode();
            if ((C == 0 && (Op == BinOp::Add || Op == BinOp::Sub ||
                            Op == BinOp::Or || Op == BinOp::Xor ||
                            Op == BinOp::Shl || Op == BinOp::AShr)) ||
                (C == 1 && (Op == BinOp::Mul || Op == BinOp::SDiv)))
              Replacement = Bin->getLHS();
            else if (C == 0 && Op == BinOp::Mul)
              Replacement = M->getInt(0);
          } else if (L && !isFloatBinOp(Bin->getOpcode())) {
            std::int64_t C = L->getValue();
            BinOp Op = Bin->getOpcode();
            if (C == 0 && (Op == BinOp::Add || Op == BinOp::Or ||
                           Op == BinOp::Xor))
              Replacement = Bin->getRHS();
            else if (C == 1 && Op == BinOp::Mul)
              Replacement = Bin->getRHS();
            else if (C == 0 && Op == BinOp::Mul)
              Replacement = M->getInt(0);
          }
        } else if (auto *Cmp = dyn_cast<CmpInst>(I)) {
          auto *L = dyn_cast<ConstantInt>(Cmp->getLHS());
          auto *R = dyn_cast<ConstantInt>(Cmp->getRHS());
          if (L && R)
            if (auto V = foldCmp(Cmp->getPredicate(), L->getValue(),
                                 R->getValue()))
              Replacement = M->getInt(*V);
        } else if (auto *Sel = dyn_cast<SelectInst>(I)) {
          if (auto *C = dyn_cast<ConstantInt>(Sel->getCondition()))
            Replacement =
                C->getValue() != 0 ? Sel->getTrueValue() : Sel->getFalseValue();
        } else if (auto *Phi = dyn_cast<PhiInst>(I)) {
          if (Phi->getNumIncoming() == 1)
            Replacement = Phi->getIncomingValue(0);
        }

        if (Replacement && Replacement != I) {
          I->replaceAllUsesWith(Replacement);
          Changed = true;
          EverChanged = true;
        }
      }
    }
    if (Changed)
      runDCE(F);
  }
  return EverChanged;
}
