//===- ir/Printer.h - Textual IR printer ------------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Renders Task IR as text for debugging and golden tests. The format is a
/// stripped-down LLVM assembly dialect; there is intentionally no parser —
/// programs are built through IRBuilder.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_IR_PRINTER_H
#define DAECC_IR_PRINTER_H

#include <string>

namespace dae {
namespace ir {

class Function;
class Instruction;
class Value;

/// Renders one instruction (no trailing newline).
std::string printInstruction(const Instruction &I);
/// Renders the operand form of a value (constant literal, @global, %name).
std::string printOperand(const Value &V);
/// Renders an entire function. Assigns names to unnamed values first.
std::string printFunction(Function &F);

} // namespace ir
} // namespace dae

#endif // DAECC_IR_PRINTER_H
