//===- runtime/Runtime.h - DAE task runtime ---------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The task-based runtime of section 3.1: per-core work-stealing deques,
/// access phase executed immediately before the execute phase on the same
/// core, per-phase DVFS applied by the evaluator afterwards. Simulation
/// runs once per scheme; the frequency dimension is priced analytically from
/// the collected profiles (see sim/PhaseStats.h).
///
/// The engine runs on the calling thread, task by task in schedule order:
/// each task's phases execute functionally into access traces, which are
/// replayed through the run's private cache hierarchy before the next task
/// is picked (see DESIGN.md, "Simulation engine"). Host parallelism comes
/// from running independent simulations concurrently (harness::JobPool).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_RUNTIME_RUNTIME_H
#define DAECC_RUNTIME_RUNTIME_H

#include "runtime/Task.h"
#include "sim/CacheSim.h"
#include "sim/MachineConfig.h"
#include "sim/Memory.h"

namespace dae {

namespace ir {
class Module;
}

namespace runtime {

/// Cache-line-granular record of one simulated phase, collected during the
/// timing replay when the caller asks for it (the DAE correctness oracle and
/// the profile-guided refinement loop; see verify/Differential.h). Lines are
/// byte addresses divided by RunCapture::LineBytes. Its size follows the
/// phase's distinct lines, not its events: the replay filters repeats as it
/// records (runtime/Replay.h), and execute() radix-sorts them
/// (support/RadixSort.h), dedupes and trims.
struct PhaseCapture {
  /// Unique lines touched by the phase, sorted ascending.
  std::vector<std::uint64_t> Lines;
  /// One entry per DRAM-missing demand *load*, in replay order —
  /// multiplicity is meaningful. Prefetches are excluded (not demand
  /// misses), and so are store (RFO) misses: a prefetch-only access phase
  /// cannot cover a write allocation, so they are not part of the coverage
  /// population (see verify/Differential.h).
  std::vector<std::uint64_t> MissLines;
};

/// Per-task capture, indexed like the Tasks vector passed to execute().
struct TaskCapture {
  bool HasAccess = false;
  PhaseCapture Access, Execute;
};

/// Whole-run capture. Purely observational: requesting one changes no
/// simulated outcome (asserted by SnapshotTest's golden profiles).
struct RunCapture {
  /// Line granularity of every Lines/MissLines entry. Set by execute() to
  /// the (validated, power-of-two) L1 line size — the same granularity the
  /// cache model indexes sets with, so capture lines and simulated lines
  /// can never disagree.
  std::uint64_t LineBytes = 64;
  std::vector<TaskCapture> Tasks;
};

/// One task's retained traces and functional-pass stats, kept past the
/// run's own timing replay so a multi-core timeline (runtime/Timeline.h) can
/// re-replay them against a *shared* hierarchy later. Functional stats are
/// the pre-replay profile of each phase — instruction counts and
/// interpreter-charged compute cycles, before any cache hit cycles or memory
/// stalls — i.e. exactly the frequency-scalable work the timeline spreads
/// across the phase's trace events.
///
/// The replay also records each event's L1 outcome: bit I % 64 of word
/// I / 64 of a phase's L1Hits is set when its event I hit the core's L1
/// (ceil(events / 64) words). A core's L1 sees only that core's accesses,
/// so in a one-core run these are the outcomes the timeline's core would
/// compute again; it reads them instead (runtime/Timeline.h).
struct TaskTraces {
  bool HasAccess = false;
  sim::AccessTrace Access, Execute;
  sim::PhaseStats FunctionalAccess, FunctionalExecute;
  std::vector<std::uint64_t> AccessL1Hits, ExecuteL1Hits;
};

/// Whole-run trace retention, requested via execute()'s Traces out-param.
/// Purely observational: the replay consumes each trace exactly as without
/// retention, and records the L1 bits beside it. Each task's traces and bits
/// are then copied here at their exact size (capacity == size), while the
/// run's two trace buffers go on to the next task as in a run that retains
/// nothing, so no retained byte is growth slack. Retained traces are freed
/// with their RunTraces (harness::runMixes frees one scheme's traces once
/// that scheme's last interleave has read them). Entries are in replay
/// schedule order, index-aligned with the returned RunProfile::Tasks.
struct RunTraces {
  std::vector<TaskTraces> Tasks;
  /// The L1 geometry the L1Hits bits were recorded under (execute() sets
  /// the run's MachineConfig::L1); the timeline rejects bits from another.
  sim::CacheConfig L1{0, 0};
};

/// Executes task sets over the simulated machine.
class TaskRuntime {
public:
  /// \p Mem must already hold the workload's initialized data (see
  /// sim::Loader); caches start cold per run. Throws std::invalid_argument
  /// when \p Cfg has no cores: no task could ever be scheduled.
  TaskRuntime(const sim::MachineConfig &Cfg, sim::Memory &Mem,
              const sim::Loader &Loader);

  /// Runs \p Tasks to completion with work stealing. When \p RunAccess is
  /// false, access phases are skipped even if present (coupled execution of
  /// the same binaries). Returns the per-task profiles. When \p Capture is
  /// non-null it is filled with one TaskCapture per input task (original
  /// order), recording the cache lines each phase touched and demand-missed.
  /// When \p Traces is non-null, every task's traces, functional stats and
  /// L1 outcomes are copied there (replay order, exact size) before the next
  /// task overwrites them — the input a multi-core contention timeline
  /// interleaves later.
  RunProfile execute(const std::vector<Task> &Tasks, bool RunAccess = true,
                     RunCapture *Capture = nullptr,
                     RunTraces *Traces = nullptr);

private:
  const sim::MachineConfig &Cfg;
  sim::Memory &Mem;
  const sim::Loader &Loader;
};

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_RUNTIME_H
