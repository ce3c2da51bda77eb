//===- runtime/Runtime.cpp - DAE task runtime --------------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The simulation engine. One run executes on the calling thread, task by
// task, in the runtime's schedule order: per dependency wave, the greedy
// scheduler (the core with the smallest simulated time runs next, popping
// its own deque or stealing from the back of the longest one) picks a task;
// one tracing Interpreter runs its access phase (if any) and its execute
// phase, recording each phase's memory accesses into an AccessTrace; and
// replayTrace streams those traces through the per-core L1/L2 and the
// shared LLC (runtime/Replay.h) before the next pick.
//
// Cache outcomes feed timing only, never values, and same-wave tasks are
// independent by the runtime's contract, so running them in schedule order
// rather than index order changes no value, trace, profile or capture (see
// ScheduleOrderTest). Host-side parallelism lives one level up: independent
// runs go to harness::JobPool (--jobs).
//
//===----------------------------------------------------------------------===//

#include "runtime/Runtime.h"

#include "ir/Function.h"
#include "runtime/Replay.h"
#include "sim/AccessTrace.h"
#include "sim/Interpreter.h"
#include "support/RadixSort.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <map>
#include <utility>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

TaskRuntime::TaskRuntime(const MachineConfig &Cfg, Memory &Mem,
                         const sim::Loader &L)
    : Cfg(Cfg), Mem(Mem), Loader(L) {}

RunProfile TaskRuntime::execute(const std::vector<Task> &Tasks, bool RunAccess,
                                RunCapture *Capture, RunTraces *Traces) {
  const unsigned NumCores = Cfg.NumCores;

  if (Capture) {
    // Capture granularity is the (validated) L1 line size — the same
    // granularity the cache model indexes sets with, so oracle lines and
    // simulated lines can never disagree.
    Capture->LineBytes = Cfg.L1.LineBytes;
    Capture->Tasks.assign(Tasks.size(), TaskCapture());
  }
  if (Traces) {
    Traces->L1 = Cfg.L1;
    Traces->Tasks.reserve(Traces->Tasks.size() + Tasks.size());
  }

  // Compile every task function (and transitive callees) up front, so
  // compilation stays outside the functional-pass timer.
  Interpreter Interp(Cfg, Mem, Loader);
  for (const Task &T : Tasks) {
    Interp.program().lookup(*T.Execute);
    if (RunAccess && T.Access)
      Interp.program().lookup(*T.Access);
  }

  RunProfile Profile;
  Profile.NumCores = NumCores;
  Profile.Tasks.reserve(Tasks.size());

  // Group into dependency waves; the runtime barriers between them.
  std::map<unsigned, std::vector<const Task *>> Waves;
  for (const Task &T : Tasks)
    Waves[T.Wave].push_back(&T);

  const ReplayCostModel Costs(Cfg);
  CacheHierarchy Caches(Cfg, NumCores);
  const unsigned LineShift = lineShiftOf(Cfg.L1.LineBytes);
  std::vector<double> CoreTimeNs(NumCores, 0.0);
  // The run's two trace buffers, TT.Access and TT.Execute: every task records
  // into them and the next task reuses their capacity. A run that retains
  // its traces copies each task's out at its exact size.
  TaskTraces TT;

  for (auto &[WaveId, WaveTasks] : Waves) {
    std::vector<std::deque<const Task *>> Queues(NumCores);
    for (std::size_t I = 0; I != WaveTasks.size(); ++I)
      Queues[I % NumCores].push_back(WaveTasks[I]);

    for (std::size_t Left = WaveTasks.size(); Left != 0; --Left) {
      // The core with the smallest simulated time runs next. Ordering uses
      // fmax; the evaluator reprices per policy afterwards.
      unsigned Core = 0;
      for (unsigned C = 1; C != NumCores; ++C)
        if (CoreTimeNs[C] < CoreTimeNs[Core])
          Core = C;

      const Task *Chosen;
      if (!Queues[Core].empty()) {
        Chosen = Queues[Core].front();
        Queues[Core].pop_front();
      } else {
        unsigned Victim = 0;
        for (unsigned C = 1; C != NumCores; ++C)
          if (Queues[C].size() > Queues[Victim].size())
            Victim = C;
        assert(!Queues[Victim].empty() && "wave lost a task");
        Chosen = Queues[Victim].back();
        Queues[Victim].pop_back();
      }
      const Task &T = *Chosen;

      // Functional pass: values and access traces.
      TT.HasAccess = RunAccess && T.Access;
      TT.Access.clear();
      TT.Execute.clear();
      if (!TT.HasAccess) {
        TT.FunctionalAccess = PhaseStats();
        TT.AccessL1Hits.clear();
      }
      auto Start = std::chrono::steady_clock::now();
      if (TT.HasAccess)
        TT.FunctionalAccess = Interp.runTraced(*T.Access, T.Args, TT.Access);
      TT.FunctionalExecute = Interp.runTraced(*T.Execute, T.Args, TT.Execute);
      Profile.FunctionalSeconds +=
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        Start)
              .count();

      // Timing pass: replay the traces on the chosen core.
      TaskCapture *Cap = Capture ? &Capture->Tasks[Chosen - Tasks.data()]
                                 : nullptr;
      TaskProfile TP;
      TP.Core = Core;
      TP.Wave = WaveId;
      if (TT.HasAccess) {
        TP.HasAccess = true;
        TP.Access = TT.FunctionalAccess;
        if (Cap)
          Cap->HasAccess = true;
        replayTrace(TT.Access, Caches, Core, Costs, TP.Access,
                    Cap ? &Cap->Access : nullptr, LineShift,
                    Traces ? &TT.AccessL1Hits : nullptr);
      }
      TP.Execute = TT.FunctionalExecute;
      replayTrace(TT.Execute, Caches, Core, Costs, TP.Execute,
                  Cap ? &Cap->Execute : nullptr, LineShift,
                  Traces ? &TT.ExecuteL1Hits : nullptr);

      // Retain the traces and their L1 outcomes for a later multi-core
      // timeline. Retention is observational: the replay above already
      // happened. The copy holds exactly the recorded events and bits, and
      // TT keeps its buffers for the next task.
      if (Traces)
        Traces->Tasks.push_back(TT);

      CoreTimeNs[Core] += TP.Access.timeNs(Cfg.fmax()) +
                          TP.Execute.timeNs(Cfg.fmax()) +
                          Profile.PerTaskOverheadCycles / Cfg.fmax();
      Profile.Tasks.push_back(std::move(TP));
    }

    // Barrier: every core advances to the wave's completion time.
    double WaveEnd = *std::max_element(CoreTimeNs.begin(), CoreTimeNs.end());
    for (double &Time : CoreTimeNs)
      Time = WaveEnd;
  }
  assert(Profile.Tasks.size() == Tasks.size() && "lost tasks");

  if (Capture) {
    // The replay's filter leaves repeats behind. A phase's lines lie within
    // the run's memory footprint, so a radix sort orders them in a few
    // linear passes. A capture may outlive the run by a while (the oracle
    // holds a suite app's captures until its last scheme run), so it keeps
    // no spare capacity either.
    std::vector<std::uint64_t> Scratch;
    for (TaskCapture &TC : Capture->Tasks) {
      for (PhaseCapture *PC : {&TC.Access, &TC.Execute}) {
        radixSort(PC->Lines, Scratch);
        PC->Lines.erase(std::unique(PC->Lines.begin(), PC->Lines.end()),
                        PC->Lines.end());
        PC->Lines.shrink_to_fit();
        PC->MissLines.shrink_to_fit();
      }
    }
  }
  return Profile;
}
