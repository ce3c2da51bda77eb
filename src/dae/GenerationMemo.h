//===- dae/GenerationMemo.h - Inert generation memo -------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Has no effect; deleted in the next benchmark revision. Every caller
/// generates access phases with generateAccessPhase directly.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_DAE_GENERATIONMEMO_H
#define DAECC_DAE_GENERATIONMEMO_H

#include "dae/AccessGenerator.h"

namespace dae {

/// Has no effect; deleted in the next benchmark revision.
class GenerationMemo {
public:
  /// Forwards to generateAccessPhase.
  AccessPhaseResult generate(ir::Module &M, ir::Function &Task,
                             const DaeOptions &Opts,
                             pm::FunctionAnalysisManager &FAM) {
    return generateAccessPhase(M, Task, Opts, FAM);
  }
};

} // namespace dae

#endif // DAECC_DAE_GENERATIONMEMO_H
