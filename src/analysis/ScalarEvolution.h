//===- analysis/ScalarEvolution.h - Affine expression analysis --*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Plays the role of LLVM's Scalar Evolution pass in the paper (section 5):
/// "analyzes loop-oriented expressions and captures how scalars evolve as
/// loops iterate. Based on the expressions provided ... we compute linear
/// functions to describe the access pattern of each memory instruction, when
/// possible." A value is affine when it can be written
///
///   c0 + sum_i (ci * IV_i) + sum_p (dp * Param_p)
///
/// with integer coefficients, loop induction variables IV_i, and task
/// parameters Param_p (integer arguments of the task function). Values that
/// cannot be written this way (loads, data-dependent selects, products of
/// variables, bit manipulation) are classified non-affine, which routes the
/// enclosing task to the skeleton access generator.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_ANALYSIS_SCALAREVOLUTION_H
#define DAECC_ANALYSIS_SCALAREVOLUTION_H

#include "analysis/LoopInfo.h"

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace dae {
namespace ir {
class Value;
class Argument;
class GepInst;
class Function;
class Instruction;
} // namespace ir

namespace analysis {

/// A linear function of loop IVs and task parameters.
struct AffineExpr {
  std::int64_t Const = 0;
  /// Coefficient per loop (keyed by the loop whose IV appears).
  std::map<const Loop *, std::int64_t> IVCoeffs;
  /// Coefficient per parameter (integer task argument).
  std::map<const ir::Value *, std::int64_t> ParamCoeffs;

  bool isConstant() const { return IVCoeffs.empty() && ParamCoeffs.empty(); }

  AffineExpr operator+(const AffineExpr &R) const;
  AffineExpr operator-(const AffineExpr &R) const;
  AffineExpr scaled(std::int64_t Factor) const;
  bool operator==(const AffineExpr &R) const {
    return Const == R.Const && IVCoeffs == R.IVCoeffs &&
           ParamCoeffs == R.ParamCoeffs;
  }

  /// Human-readable rendering, e.g. "3*i + N + 7".
  std::string str() const;
};

/// An analyzed memory access: the instruction, its array, and one affine
/// index expression per array dimension.
struct AffineAccess {
  const ir::Instruction *MemInst = nullptr; ///< load / store / prefetch
  const ir::GepInst *Gep = nullptr;
  ir::Value *Base = nullptr; ///< global or pointer argument
  std::vector<AffineExpr> Indices;
  std::vector<std::int64_t> DimSizes; ///< from the GEP (outermost may be 0)
  std::int64_t ElemSize = 0;
  bool IsWrite = false;

  /// Set of parameters appearing in any index expression. Accesses with the
  /// same (Base, dims, param signature) form a class in the sense of the
  /// paper's "blocks of the same array" optimization (section 5.1, item 3).
  std::vector<const ir::Value *> paramSignature() const;
};

/// Affine bounds of one loop in a nest: Lower <= IV < Upper.
struct AffineLoopBounds {
  const Loop *L = nullptr;
  AffineExpr Lower; ///< Inclusive.
  AffineExpr Upper; ///< Exclusive.
};

/// Scalar-evolution queries over one function.
class ScalarEvolution {
public:
  ScalarEvolution(const ir::Function &F, const LoopInfo &LI);

  /// Affine form of \p V, or nullopt when V is not affine.
  std::optional<AffineExpr> getAffine(const ir::Value *V);

  /// Analyzes the address of a load/store/prefetch instruction. Requires the
  /// pointer operand to be a GEP whose base is a global or pointer argument
  /// and all of whose indices are affine.
  std::optional<AffineAccess> getAccess(const ir::Instruction *MemInst);

  /// Affine bounds of \p L (start and exclusive bound both affine, step 1).
  std::optional<AffineLoopBounds> getLoopBounds(const Loop *L);

  const LoopInfo &getLoopInfo() const { return LI; }

private:
  std::optional<AffineExpr> computeAffine(const ir::Value *V, unsigned Depth);

  const ir::Function &F;
  const LoopInfo &LI;
  std::map<const ir::Value *, std::optional<AffineExpr>> Cache;
};

} // namespace analysis
} // namespace dae

#endif // DAECC_ANALYSIS_SCALAREVOLUTION_H
