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

#include <algorithm>
#include <cassert>
#include <chrono>
#include <deque>
#include <map>

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

  // Compile every task function (and transitive callees) up front, so
  // compilation stays outside the functional-pass timer.
  CompiledProgram Program(Cfg, Loader);
  for (const Task &T : Tasks) {
    Program.add(*T.Execute);
    if (T.Access)
      Program.add(*T.Access);
  }
  Interpreter Interp(Cfg, Mem, Loader, &Program);

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
  TracePool &Pool = TracePool::global();

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
      TaskTraces TT;
      auto Start = std::chrono::steady_clock::now();
      if (RunAccess && T.Access) {
        TT.HasAccess = true;
        TT.Access.acquireFrom(Pool);
        TT.FunctionalAccess = Interp.runTraced(*T.Access, T.Args, TT.Access);
      }
      TT.Execute.acquireFrom(Pool);
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
                    Cap ? &Cap->Access : nullptr, LineShift);
      }
      TP.Execute = TT.FunctionalExecute;
      replayTrace(TT.Execute, Caches, Core, Costs, TP.Execute,
                  Cap ? &Cap->Execute : nullptr, LineShift);

      // Retain the traces for a later multi-core timeline, or recycle them.
      // Retention is observational: the replay above already happened.
      if (Traces) {
        Traces->Tasks.push_back(std::move(TT));
      } else {
        if (TT.HasAccess)
          TT.Access.releaseTo(Pool);
        TT.Execute.releaseTo(Pool);
      }

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
    for (TaskCapture &TC : Capture->Tasks) {
      for (PhaseCapture *PC : {&TC.Access, &TC.Execute}) {
        std::sort(PC->Lines.begin(), PC->Lines.end());
        PC->Lines.erase(std::unique(PC->Lines.begin(), PC->Lines.end()),
                        PC->Lines.end());
      }
    }
  }
  return Profile;
}
