//===- ir/Verifier.h - Structural IR checks ---------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structural well-formedness checks run after every transformation in the
/// test suite: terminators present, phi incoming lists match predecessors,
/// operand types check out, no cross-function operands, and every use is
/// defined in the same function.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_IR_VERIFIER_H
#define DAECC_IR_VERIFIER_H

#include <string>
#include <vector>

namespace dae {
namespace ir {

class Function;

/// Returns the list of problems found in \p F (empty means well-formed).
std::vector<std::string> verifyFunction(const Function &F);

} // namespace ir
} // namespace dae

#endif // DAECC_IR_VERIFIER_H
