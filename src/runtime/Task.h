//===- runtime/Task.h - Task and run profile types --------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A task instance pairs the execute function with its (optional) access
/// function and concrete arguments — the two "versions, or phases, of each
/// computation task" of section 3.1. Executing a run under the simulator
/// yields a RunProfile: per task, the frequency-decomposed profile of each
/// phase, from which the evaluator prices any DVFS schedule analytically.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_RUNTIME_TASK_H
#define DAECC_RUNTIME_TASK_H

#include "sim/Interpreter.h"
#include "sim/PhaseStats.h"

#include <vector>

namespace dae {

namespace ir {
class Function;
}

namespace runtime {

/// One dynamic task instance.
struct Task {
  const ir::Function *Execute = nullptr;
  const ir::Function *Access = nullptr; ///< Null => coupled execution.
  std::vector<sim::RuntimeValue> Args;
  /// Dependency wave: the runtime barriers between waves (fork-join style),
  /// so tasks of wave w+1 only start after every wave-w task finished.
  unsigned Wave = 0;
};

/// Measured profile of one executed task.
struct TaskProfile {
  sim::PhaseStats Access;  ///< All zeros when the task ran coupled.
  sim::PhaseStats Execute;
  unsigned Core = 0;
  bool HasAccess = false;
  unsigned Wave = 0;
};

/// Profile of a whole run.
struct RunProfile {
  std::vector<TaskProfile> Tasks;
  unsigned NumCores = 1;
  /// Runtime bookkeeping per task (core-clocked cycles): dequeue, steal
  /// attempts, phase hand-off. Contributes to the O.S.I. bucket.
  double PerTaskOverheadCycles = 250.0;

  /// Host wall-clock seconds spent in the functional (value-producing) pass
  /// of this run, summed over its tasks' interpreter calls — pure telemetry
  /// for backend throughput reporting (the `interp` block in bench JSON);
  /// not a simulated quantity, and excluded from determinism comparisons.
  double FunctionalSeconds = 0.0;

  /// Sum of a statistic across tasks.
  sim::PhaseStats totalAccess() const {
    sim::PhaseStats S;
    for (const TaskProfile &T : Tasks)
      S += T.Access;
    return S;
  }
  sim::PhaseStats totalExecute() const {
    sim::PhaseStats S;
    for (const TaskProfile &T : Tasks)
      S += T.Execute;
    return S;
  }
};

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_TASK_H
