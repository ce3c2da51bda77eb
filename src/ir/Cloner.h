//===- ir/Cloner.h - Function deep copy -------------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deep-copies a function, producing a private clone whose locals are fully
/// privatized — step 2 of the paper's skeleton algorithm (section 5.2.2) and
/// the substrate for the inliner.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_IR_CLONER_H
#define DAECC_IR_CLONER_H

#include <map>
#include <memory>
#include <string>

namespace dae {
namespace ir {

class Function;
class Value;

/// Mapping from original values to their clones (arguments, instructions).
using ValueMap = std::map<const Value *, Value *>;

/// Returns a deep copy of \p F named \p NewName. If \p MapOut is non-null it
/// receives the original-to-clone value mapping. Constants and globals are
/// shared, everything else is copied. The clone is not yet registered in a
/// module.
std::unique_ptr<Function> cloneFunction(const Function &F,
                                        std::string NewName,
                                        ValueMap *MapOut = nullptr);

/// Clones one instruction with operands remapped through \p VM (values absent
/// from the map are shared, which is correct for constants/globals/args).
/// Phi incoming *blocks* are remapped through \p BlockMap.
class BasicBlock;
std::unique_ptr<class Instruction>
cloneInstruction(const Instruction &I, const ValueMap &VM,
                 const std::map<const BasicBlock *, BasicBlock *> &BlockMap);

} // namespace ir
} // namespace dae

#endif // DAECC_IR_CLONER_H
