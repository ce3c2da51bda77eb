//===- tests/runtime/DeterminismTest.cpp - Engine determinism -------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The engine's core guarantees: RunProfiles do not depend on the order in
// which same-wave tasks run (the schedule order, which changes with
// NumCores), on whether the oracle capture is on or traces are retained
// (whose L1 bits are a fresh L1's walk), or on the --jobs value of
// the suite engine; and a DAE scheme run with its access phases suppressed
// is the CAE run, so the oracle's verdicts taken from the scheme runs equal
// the two-run checker's. Every comparison here is exact (EXPECT_EQ on
// doubles included) — any divergence is a bug, not noise.
//
//===----------------------------------------------------------------------===//

#include "dae/AccessProfile.h"
#include "dae/ProfileGuidedRefinement.h"
#include "harness/Harness.h"
#include "ir/Function.h"
#include "pm/AnalysisManager.h"
#include "runtime/Runtime.h"
#include "sim/CacheSim.h"
#include "verify/DifferentialChecker.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <set>
#include <string>
#include <vector>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

void expectStatsEqual(const PhaseStats &A, const PhaseStats &B,
                      const char *What, size_t TaskIdx) {
  EXPECT_EQ(A.Instructions, B.Instructions) << What << " task " << TaskIdx;
  EXPECT_EQ(A.ComputeCycles, B.ComputeCycles) << What << " task " << TaskIdx;
  EXPECT_EQ(A.StallNs, B.StallNs) << What << " task " << TaskIdx;
  EXPECT_EQ(A.Loads, B.Loads) << What << " task " << TaskIdx;
  EXPECT_EQ(A.Stores, B.Stores) << What << " task " << TaskIdx;
  EXPECT_EQ(A.Prefetches, B.Prefetches) << What << " task " << TaskIdx;
  EXPECT_EQ(A.L1Hits, B.L1Hits) << What << " task " << TaskIdx;
  EXPECT_EQ(A.L2Hits, B.L2Hits) << What << " task " << TaskIdx;
  EXPECT_EQ(A.LLCHits, B.LLCHits) << What << " task " << TaskIdx;
  EXPECT_EQ(A.MemAccesses, B.MemAccesses) << What << " task " << TaskIdx;
}

void expectProfilesEqual(const RunProfile &A, const RunProfile &B) {
  EXPECT_EQ(A.NumCores, B.NumCores);
  ASSERT_EQ(A.Tasks.size(), B.Tasks.size());
  for (size_t I = 0; I != A.Tasks.size(); ++I) {
    const TaskProfile &TA = A.Tasks[I];
    const TaskProfile &TB = B.Tasks[I];
    EXPECT_EQ(TA.Core, TB.Core) << "task " << I;
    EXPECT_EQ(TA.Wave, TB.Wave) << "task " << I;
    EXPECT_EQ(TA.HasAccess, TB.HasAccess) << "task " << I;
    expectStatsEqual(TA.Access, TB.Access, "access", I);
    expectStatsEqual(TA.Execute, TB.Execute, "execute", I);
  }
}

void expectCapturesEqual(const RunCapture &A, const RunCapture &B) {
  EXPECT_EQ(A.LineBytes, B.LineBytes);
  ASSERT_EQ(A.Tasks.size(), B.Tasks.size());
  for (size_t I = 0; I != A.Tasks.size(); ++I) {
    EXPECT_EQ(A.Tasks[I].HasAccess, B.Tasks[I].HasAccess) << "task " << I;
    EXPECT_EQ(A.Tasks[I].Access.Lines, B.Tasks[I].Access.Lines)
        << "access lines, task " << I;
    EXPECT_EQ(A.Tasks[I].Access.MissLines, B.Tasks[I].Access.MissLines)
        << "access misses, task " << I;
    EXPECT_EQ(A.Tasks[I].Execute.Lines, B.Tasks[I].Execute.Lines)
        << "execute lines, task " << I;
    EXPECT_EQ(A.Tasks[I].Execute.MissLines, B.Tasks[I].Execute.MissLines)
        << "execute misses, task " << I;
  }
}

void expectDiffEqual(const verify::DifferentialResult &A,
                     const verify::DifferentialResult &B,
                     const std::string &What) {
  EXPECT_EQ(A.MemoryMatch, B.MemoryMatch) << What;
  EXPECT_EQ(A.OutputsMatch, B.OutputsMatch) << What;
  EXPECT_EQ(A.BaselineExecMisses, B.BaselineExecMisses) << What;
  EXPECT_EQ(A.CoveredMisses, B.CoveredMisses) << What;
  EXPECT_EQ(A.StrictCoveredMisses, B.StrictCoveredMisses) << What;
  EXPECT_EQ(A.PrefetchedLines, B.PrefetchedLines) << What;
  EXPECT_EQ(A.UnusedPrefetchedLines, B.UnusedPrefetchedLines) << What;
  EXPECT_EQ(A.DecoupledTasks, B.DecoupledTasks) << What;
  EXPECT_EQ(A.TotalTasks, B.TotalTasks) << What;
}

void expectVerifyEqual(const harness::DaeVerifyResult &A,
                       const harness::DaeVerifyResult &B,
                       const std::string &What) {
  EXPECT_EQ(A.Ran, B.Ran) << What;
  EXPECT_EQ(A.AuditPure, B.AuditPure) << What;
  EXPECT_EQ(A.AuditViolations, B.AuditViolations) << What;
  expectDiffEqual(A.Diff, B.Diff, What);
}

/// Every field of a refinement outcome except the audit's, which the
/// callers compare where both sides ran it.
void expectRefinementEqual(const harness::ProfileGuidedResult &A,
                           const harness::ProfileGuidedResult &B,
                           const std::string &What) {
  EXPECT_EQ(A.Ran, B.Ran) << What;
  expectDiffEqual(A.Before, B.Before, What + " before");
  expectDiffEqual(A.After, B.After, What + " after");
  EXPECT_EQ(A.RefinedTasks, B.RefinedTasks) << What;
  EXPECT_EQ(A.Actions, B.Actions) << What;
  EXPECT_EQ(A.EdpBefore, B.EdpBefore) << What;
  EXPECT_EQ(A.EdpAfter, B.EdpAfter) << What;
}

/// The workload's task list with the Manual-DAE access phases attached when
/// \p Manual, coupled (the CAE task set) otherwise.
std::vector<Task> taskSet(const workloads::Workload &W, bool Manual) {
  std::vector<Task> Tasks = W.Tasks;
  for (Task &T : Tasks) {
    auto It = W.ManualAccess.find(T.Execute);
    T.Access = Manual && It != W.ManualAccess.end() ? It->second : nullptr;
  }
  return Tasks;
}

/// Same byte layout as the harness's output snapshots.
std::vector<std::uint8_t> outputBytes(const workloads::Workload &W,
                                      Memory &Mem, const Loader &L) {
  std::vector<std::uint8_t> Bytes;
  for (size_t G = 0; G != W.OutputGlobals.size(); ++G) {
    std::uint64_t Base = L.baseOf(W.OutputGlobals[G]);
    for (std::uint64_t Off = 0; Off != W.OutputSizes[G]; Off += 8) {
      std::int64_t V = Mem.loadI64(Base + Off);
      for (int B = 0; B != 8; ++B)
        Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * B)));
    }
  }
  return Bytes;
}

/// True when some wave of \p P ran its tasks out of index order. Tasks are
/// dealt round-robin to the cores' queues, so a wave runs in index order
/// exactly when its picks visit the cores round-robin.
bool ranOutOfIndexOrder(const RunProfile &P) {
  size_t InWave = 0;
  for (size_t I = 0; I != P.Tasks.size(); ++I) {
    InWave = I && P.Tasks[I].Wave == P.Tasks[I - 1].Wave ? InWave + 1 : 0;
    if (P.Tasks[I].Core != InWave % P.NumCores)
      return true;
  }
  return false;
}

/// Runs \p Tasks on a fresh memory image of \p W with \p Cores cores.
RunProfile runOnCores(const workloads::Workload &W, const Loader &L,
                      const std::vector<Task> &Tasks, unsigned Cores,
                      Memory &Mem) {
  MachineConfig Cfg;
  Cfg.NumCores = Cores;
  W.Init(Mem, L);
  TaskRuntime RT(Cfg, Mem, L);
  return RT.execute(Tasks);
}

/// Same-wave tasks are independent by the runtime's contract, and the engine
/// relies on it: the functional pass runs them in schedule order, which
/// depends on NumCores (at one core it is index order). For each paper
/// workload, the CAE and Manual-DAE task sets must leave the same memory
/// image and output bytes at every core count.
class ScheduleOrderTest : public ::testing::TestWithParam<const char *> {};

TEST_P(ScheduleOrderTest, ValuesIndependentOfCoreCount) {
  auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
  Loader L(*W->M);
  for (bool Manual : {false, true}) {
    std::vector<Task> Tasks = taskSet(*W, Manual);
    std::uint64_t RefHash = 0;
    std::vector<std::uint8_t> RefOut;
    for (unsigned Cores : {1u, 3u, 4u, 8u}) {
      Memory Mem;
      RunProfile P = runOnCores(*W, L, Tasks, Cores, Mem);
      ASSERT_EQ(P.Tasks.size(), Tasks.size());
      std::vector<std::uint8_t> Out = outputBytes(*W, Mem, L);
      if (Cores == 1) {
        EXPECT_FALSE(ranOutOfIndexOrder(P));
        RefHash = Mem.imageHash();
        RefOut = std::move(Out);
        continue;
      }
      EXPECT_EQ(Mem.imageHash(), RefHash)
          << (Manual ? "manual" : "cae") << ", " << Cores << " cores";
      EXPECT_EQ(Out, RefOut)
          << (Manual ? "manual" : "cae") << ", " << Cores << " cores";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ScheduleOrderTest,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

/// Keeps the comparison above meaningful: a multi-core run does execute
/// same-wave tasks out of index order. LU's test-scale waves (up to 9 tasks
/// of uneven length) reorder at 3 and 4 cores. A wave can leave index order
/// only when it holds at least two more tasks than cores and its tasks
/// differ in length.
TEST(ScheduleOrder, MultiCoreRunsReorderWaves) {
  auto W = workloads::buildByName("lu", workloads::Scale::Test);
  Loader L(*W->M);
  for (unsigned Cores : {3u, 4u}) {
    Memory Mem;
    EXPECT_TRUE(ranOutOfIndexOrder(runOnCores(*W, L, W->Tasks, Cores, Mem)))
        << Cores << " cores";
  }
}

/// The oracle capture is observational: for each paper workload, the
/// Manual-DAE task set (both replay paths and both capture phases per task)
/// profiles identically with the capture on and off, and two captured runs
/// capture identical line and miss sets. Each phase's capture holds exactly
/// the lines of its trace, sorted and unique, as a run that also retains
/// its traces shows.
class CaptureDeterminismTest : public ::testing::TestWithParam<const char *> {
};

TEST_P(CaptureDeterminismTest, CaptureIsObservational) {
  auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
  Loader L(*W->M);
  std::vector<Task> Tasks = taskSet(*W, /*Manual=*/true);

  auto Run = [&](RunCapture *Cap) {
    MachineConfig Cfg;
    Memory Mem;
    W->Init(Mem, L);
    TaskRuntime RT(Cfg, Mem, L);
    return RT.execute(Tasks, /*RunAccess=*/true, Cap);
  };

  RunCapture First, Second;
  RunProfile Captured = Run(&First);
  expectProfilesEqual(Captured, Run(nullptr));
  expectProfilesEqual(Captured, Run(&Second));
  expectCapturesEqual(First, Second);
  ASSERT_EQ(First.Tasks.size(), Tasks.size());

  // Retained traces come in replay order, which at one core is wave by
  // wave, each wave in index order.
  MachineConfig OneCore;
  OneCore.NumCores = 1;
  Memory Mem;
  W->Init(Mem, L);
  TaskRuntime RT(OneCore, Mem, L);
  RunCapture Cap;
  RunTraces Traces;
  RunProfile P = RT.execute(Tasks, /*RunAccess=*/true, &Cap, &Traces);
  std::vector<size_t> Order(Tasks.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&Tasks](size_t A, size_t B) {
    return Tasks[A].Wave < Tasks[B].Wave;
  });
  auto TraceLines = [&Cap](const AccessTrace &Tr) {
    std::vector<std::uint64_t> Lines;
    for (std::uint64_t Event : Tr.events())
      Lines.push_back(AccessTrace::addrOf(Event) / Cap.LineBytes);
    std::sort(Lines.begin(), Lines.end());
    Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
    return Lines;
  };
  ASSERT_EQ(Traces.Tasks.size(), Tasks.size());
  for (size_t K = 0; K != Order.size(); ++K) {
    const size_t T = Order[K];
    ASSERT_EQ(P.Tasks[K].Wave, Tasks[T].Wave) << "replay position " << K;
    const TaskCapture &TC = Cap.Tasks[T];
    const TaskTraces &TT = Traces.Tasks[K];
    EXPECT_EQ(TC.HasAccess, TT.HasAccess) << "task " << T;
    EXPECT_EQ(TC.Access.Lines, TraceLines(TT.Access)) << "access, task " << T;
    EXPECT_EQ(TC.Execute.Lines, TraceLines(TT.Execute))
        << "execute, task " << T;
    // A phase's lines do not depend on the core count.
    EXPECT_EQ(TC.Access.Lines, First.Tasks[T].Access.Lines) << "task " << T;
    EXPECT_EQ(TC.Execute.Lines, First.Tasks[T].Execute.Lines) << "task " << T;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CaptureDeterminismTest,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

/// The L1 bits a one-core run retains, the co-run timeline's input, are a
/// fresh L1's walk over the run's phases in replay order (each task's access
/// trace, then its execute trace), with the capture on and off; retaining
/// them changes no profile; and every retained trace and bit vector is an
/// exact-size copy (capacity == size), empty for a task without an access
/// phase.
TEST(RetainedL1HitsTest, OneCoreRunBitsAreAFreshL1Walk) {
  auto W = workloads::buildByName("cholesky", workloads::Scale::Test);
  Loader L(*W->M);
  std::vector<Task> Tasks = taskSet(*W, /*Manual=*/true);
  // Every third task runs coupled, so tasks without an access phase follow
  // tasks with one through the run's reused trace buffers.
  for (size_t I = 0; I < Tasks.size(); I += 3)
    Tasks[I].Access = nullptr;
  MachineConfig Cfg;
  Cfg.NumCores = 1;
  auto Run = [&](RunCapture *Cap, RunTraces *Traces) {
    Memory Mem;
    W->Init(Mem, L);
    TaskRuntime RT(Cfg, Mem, L);
    return RT.execute(Tasks, /*RunAccess=*/true, Cap, Traces);
  };
  const RunProfile Plain = Run(nullptr, nullptr);

  for (bool WithCapture : {false, true}) {
    SCOPED_TRACE(WithCapture ? "captured" : "not captured");
    RunCapture Cap;
    RunTraces Traces;
    expectProfilesEqual(Run(WithCapture ? &Cap : nullptr, &Traces), Plain);
    EXPECT_TRUE(Traces.L1 == Cfg.L1);
    ASSERT_EQ(Traces.Tasks.size(), Tasks.size());

    Cache L1(Cfg.L1);
    auto Walk = [&L1](const AccessTrace &Tr) {
      std::vector<std::uint64_t> Words((Tr.size() + 63) / 64, 0);
      for (std::size_t I = 0; I != Tr.size(); ++I)
        if (L1.access(AccessTrace::addrOf(Tr.events()[I])))
          Words[I / 64] |= 1ull << (I % 64);
      return Words;
    };
    size_t WithAccess = 0;
    for (size_t T = 0; T != Traces.Tasks.size(); ++T) {
      const TaskTraces &TT = Traces.Tasks[T];
      WithAccess += TT.HasAccess;
      if (TT.HasAccess) {
        EXPECT_EQ(TT.AccessL1Hits, Walk(TT.Access)) << "access, task " << T;
      } else {
        EXPECT_TRUE(TT.Access.empty()) << "task " << T;
        EXPECT_TRUE(TT.AccessL1Hits.empty()) << "task " << T;
      }
      EXPECT_EQ(TT.ExecuteL1Hits, Walk(TT.Execute)) << "execute, task " << T;
      // Retained traces and bits are exact copies: no growth slack.
      for (const AccessTrace *Tr : {&TT.Access, &TT.Execute})
        EXPECT_EQ(Tr->events().capacity(), Tr->size()) << "task " << T;
      for (const std::vector<std::uint64_t> *Bits :
           {&TT.AccessL1Hits, &TT.ExecuteL1Hits})
        EXPECT_EQ(Bits->capacity(), Bits->size()) << "task " << T;
    }
    EXPECT_GT(WithAccess, 0u);
    EXPECT_LT(WithAccess, Tasks.size());
    EXPECT_GT(L1.hits(), 0u);
    EXPECT_GT(L1.misses(), 0u);
  }
}

/// Runs all seven apps at test scale through runSuite.
std::vector<harness::AppResult> runSuiteAt(unsigned Jobs, bool Oracle) {
  MachineConfig Cfg;
  auto Ws = workloads::buildAll(workloads::Scale::Test);
  std::vector<harness::SuiteItem> Items;
  for (auto &W : Ws)
    Items.push_back({W.get(), nullptr});
  harness::SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.DaeVerify = Oracle;
  SC.DaeProfileGuided = Oracle;
  return harness::runSuite(Items, Cfg, SC);
}

/// Profiles, Table 1 rows, priced Figure 3 rows and output snapshots of two
/// suite runs, app by app.
void expectSuitesEqual(const std::vector<harness::AppResult> &Seq,
                       const std::vector<harness::AppResult> &Par) {
  ASSERT_EQ(Seq.size(), Par.size());
  MachineConfig Cfg;
  for (size_t I = 0; I != Seq.size(); ++I) {
    const harness::AppResult &A = Seq[I];
    const harness::AppResult &B = Par[I];
    EXPECT_EQ(A.Name, B.Name) << "suite order must follow item order";
    EXPECT_TRUE(A.OutputsMatch) << A.Name;
    EXPECT_TRUE(B.OutputsMatch) << B.Name;
    expectProfilesEqual(A.Cae, B.Cae);
    expectProfilesEqual(A.Manual, B.Manual);
    expectProfilesEqual(A.Auto, B.Auto);
    EXPECT_EQ(A.CaeOutputs, B.CaeOutputs) << A.Name;
    EXPECT_EQ(A.ManualOutputs, B.ManualOutputs) << A.Name;
    EXPECT_EQ(A.AutoOutputs, B.AutoOutputs) << A.Name;
    EXPECT_EQ(A.Row.AffineLoops, B.Row.AffineLoops) << A.Name;
    EXPECT_EQ(A.Row.TotalLoops, B.Row.TotalLoops) << A.Name;
    EXPECT_EQ(A.Row.NumTasks, B.Row.NumTasks) << A.Name;
    EXPECT_EQ(A.Row.AccessTimePercent, B.Row.AccessTimePercent) << A.Name;
    EXPECT_EQ(A.Row.AccessTimeUs, B.Row.AccessTimeUs) << A.Name;
    for (double Latency : {500.0, 0.0}) {
      harness::Fig3Row RA = harness::priceFig3(A, Cfg, Latency);
      harness::Fig3Row RB = harness::priceFig3(B, Cfg, Latency);
      for (int M = 0; M != 3; ++M) {
        EXPECT_EQ(RA.CaeOpt[M], RB.CaeOpt[M]) << A.Name;
        EXPECT_EQ(RA.ManualMinMax[M], RB.ManualMinMax[M]) << A.Name;
        EXPECT_EQ(RA.ManualOpt[M], RB.ManualOpt[M]) << A.Name;
        EXPECT_EQ(RA.AutoMinMax[M], RB.AutoMinMax[M]) << A.Name;
        EXPECT_EQ(RA.AutoOpt[M], RB.AutoOpt[M]) << A.Name;
      }
    }
  }
}

/// Suite-level: the full Figure 3 pipeline over all seven apps on the job
/// pool (--jobs=4) must be bit-identical to the sequential reference
/// (--jobs=1): profiles, Table 1 rows, priced Figure 3 rows, and the raw
/// output snapshots of every scheme.
TEST(SuiteDeterminismTest, JobPoolMatchesSequentialReference) {
  expectSuitesEqual(runSuiteAt(1, false), runSuiteAt(4, false));
}

/// The same with the oracle and refinement on: each app's verdicts come from
/// its scheme runs, and refinement runs inside whichever job finishes the
/// app's last run while other apps' simulations proceed. Every verdict
/// field must match the sequential reference.
TEST(SuiteDeterminismTest, OracleVerdictsMatchSequentialReference) {
  std::vector<harness::AppResult> Seq = runSuiteAt(1, true);
  std::vector<harness::AppResult> Par = runSuiteAt(4, true);
  expectSuitesEqual(Seq, Par);
  ASSERT_EQ(Seq.size(), Par.size());
  for (size_t I = 0; I != Seq.size(); ++I) {
    const harness::AppResult &A = Seq[I];
    const harness::AppResult &B = Par[I];
    EXPECT_TRUE(A.AutoVerify.Ran && A.AutoPg.Ran) << A.Name;
    expectVerifyEqual(A.ManualVerify, B.ManualVerify, A.Name + " manual");
    expectVerifyEqual(A.AutoVerify, B.AutoVerify, A.Name + " auto");
    expectRefinementEqual(A.AutoPg, B.AutoPg, A.Name + " refinement");
    EXPECT_EQ(A.AutoPg.AuditPure, B.AutoPg.AuditPure) << A.Name;
    EXPECT_EQ(A.AutoPg.AuditViolations, B.AutoPg.AuditViolations) << A.Name;
  }
}

//===----------------------------------------------------------------------===//
// Oracle reuse: the suite's verdicts come from its scheme runs
//===----------------------------------------------------------------------===//

/// \p W's task list with the Auto DAE phases of \p Generation (one result
/// per task function, in taskFunctions() order) attached.
std::vector<Task> autoTaskSet(const workloads::Workload &W,
                              const std::vector<AccessPhaseResult> &Gen) {
  std::vector<ir::Function *> Fns = W.taskFunctions();
  std::vector<Task> Tasks = W.Tasks;
  for (Task &T : Tasks) {
    T.Access = nullptr;
    for (size_t GI = 0; GI != Fns.size(); ++GI)
      if (Fns[GI] == T.Execute)
        T.Access = Gen[GI].AccessFn;
  }
  return Tasks;
}

verify::CapturedRun capturedRun(const workloads::Workload &W, const Loader &L,
                                const std::vector<Task> &Tasks,
                                bool RunAccess) {
  MachineConfig Cfg;
  Memory Mem;
  W.Init(Mem, L);
  TaskRuntime RT(Cfg, Mem, L);
  verify::CapturedRun Run;
  Run.Profile = RT.execute(Tasks, RunAccess, &Run.Capture);
  Run.ImageHash = Mem.imageHash();
  Run.Outputs = outputBytes(W, Mem, L);
  return Run;
}

verify::DifferentialChecker checkerFor(const workloads::Workload &W,
                                       const MachineConfig &Cfg,
                                       const Loader &L) {
  verify::DifferentialSpec Spec;
  Spec.Init = W.Init;
  Spec.OutputGlobals = W.OutputGlobals;
  Spec.OutputSizes = W.OutputSizes;
  return verify::DifferentialChecker(Cfg, L, std::move(Spec));
}

/// The fact the reuse rests on: the three scheme task lists differ only in
/// Task::Access, and a run with access phases suppressed never runs one, so
/// the Manual and Auto lists run that way are the CAE run — same profile,
/// capture, memory image and outputs.
class OracleReuseTest : public ::testing::TestWithParam<const char *> {};

TEST_P(OracleReuseTest, SuppressedDaeRunsAreTheCaeRun) {
  auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
  MachineConfig Cfg;
  harness::AppResult R = harness::runApp(*W, Cfg);
  Loader L(*W->M);
  verify::CapturedRun Cae =
      capturedRun(*W, L, taskSet(*W, /*Manual=*/false), /*RunAccess=*/true);
  const std::vector<Task> Dae[2] = {taskSet(*W, /*Manual=*/true),
                                    autoTaskSet(*W, R.Generation)};
  for (const std::vector<Task> &Tasks : Dae) {
    verify::CapturedRun Run = capturedRun(*W, L, Tasks, /*RunAccess=*/false);
    expectProfilesEqual(Run.Profile, Cae.Profile);
    expectCapturesEqual(Run.Capture, Cae.Capture);
    EXPECT_EQ(Run.ImageHash, Cae.ImageHash);
    EXPECT_EQ(Run.Outputs, Cae.Outputs);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, OracleReuseTest,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

/// With refinement on, the Auto verdict's differential is refinement's After
/// (the final Auto run against the CAE run), field by field, for every app.
TEST(OracleReuseTest, AutoVerdictIsRefinementsAfter) {
  for (const harness::AppResult &R : runSuiteAt(1, /*Oracle=*/true)) {
    ASSERT_TRUE(R.AutoVerify.Ran && R.AutoPg.Ran) << R.Name;
    expectDiffEqual(R.AutoVerify.Diff, R.AutoPg.After, R.Name);
  }
}

/// The profile-guided loop on a fresh instance of a workload, driven by the
/// two-run checker: generate, check the Auto scheme, refine from the
/// checker's observations, check again.
harness::ProfileGuidedResult checkerRefinement(workloads::Workload &W,
                                               const MachineConfig &Cfg) {
  pm::FunctionAnalysisManager FAM;
  std::vector<ir::Function *> Fns = W.taskFunctions();
  std::vector<AccessPhaseResult> Gen;
  for (ir::Function *F : Fns)
    Gen.push_back(generateAccessPhase(*W.M, *F, W.Opts, FAM));
  Loader L(*W.M);
  verify::DifferentialChecker Checker = checkerFor(W, Cfg, L);
  runtime::EvalConfig MinMax = harness::minMaxConfig(Cfg, 0.0);

  harness::ProfileGuidedResult R;
  R.Ran = true;
  std::vector<Task> Tasks = autoTaskSet(W, Gen);
  std::vector<TaskObservation> Obs;
  RunProfile Before;
  R.Before = Checker.check(Tasks, &Obs, &Before);
  R.EdpBefore = runtime::evaluate(Before, Cfg, MinMax).EdpJs;

  AccessProfile Profile;
  for (size_t I = 0; I != Tasks.size(); ++I)
    if (Tasks[I].Access)
      Profile.record(
          taskContentFingerprint(*const_cast<ir::Function *>(Tasks[I].Execute),
                                 FAM),
          Obs[I]);
  RefinementConfig RC;
  RC.PhaseSplitFootprintBytes = Cfg.L2.SizeBytes;
  std::set<const ir::Instruction *> Cold;
  for (ir::Function *F : Fns) {
    TaskProfileData D;
    if (Profile.lookup(taskContentFingerprint(*F, FAM), D) &&
        D.overshoot() > RC.OvershootBudget) {
      Cold = harness::profileColdLoads(W, Cfg);
      if (!Cold.empty())
        RC.ColdLoads = &Cold;
      break;
    }
  }
  ProfileGuidedRefinementPass Pass(*W.M, Profile, W.Opts, RC);
  for (size_t GI = 0; GI != Fns.size(); ++GI)
    Pass.noteBaseline(Fns[GI], Gen[GI]);
  for (ir::Function *F : Fns)
    Pass.run(*F, FAM);
  R.RefinedTasks = Pass.numRefined();
  for (size_t GI = 0; GI != Fns.size(); ++GI)
    if (const AccessPhaseResult *RR = Pass.refinedResult(Fns[GI])) {
      Gen[GI] = *RR;
      R.Actions.push_back(Fns[GI]->getName() + ": " + RR->RefinementNote);
    }

  RunProfile After;
  R.After = Checker.check(autoTaskSet(W, Gen), nullptr, &After);
  R.EdpAfter = runtime::evaluate(After, Cfg, MinMax).EdpJs;
  return R;
}

/// runSuite's oracle and refinement verdicts, derived from its scheme runs,
/// equal what the two-run checker returns on the same final task lists (and,
/// for refinement, what the loop driven by the checker decides on a fresh
/// instance), field by field.
TEST(OracleReuseTest, SuiteVerdictsEqualTheCheckersVerdicts) {
  const char *Apps[] = {"lu", "cholesky", "fft", "lbm", "libq", "cigar", "cg"};
  MachineConfig Cfg;
  std::vector<std::unique_ptr<workloads::Workload>> Ws;
  std::vector<harness::SuiteItem> Items;
  for (const char *App : Apps) {
    Ws.push_back(workloads::buildByName(App, workloads::Scale::Test));
    Items.push_back({Ws.back().get(), nullptr});
  }
  harness::SuiteConfig SC;
  SC.DaeVerify = true;
  SC.DaeProfileGuided = true;
  std::vector<harness::AppResult> Results = harness::runSuite(Items, Cfg, SC);
  ASSERT_EQ(Results.size(), Ws.size());

  for (size_t I = 0; I != Ws.size(); ++I) {
    const workloads::Workload &W = *Ws[I];
    const harness::AppResult &R = Results[I];
    Loader L(*W.M);
    verify::DifferentialChecker Checker = checkerFor(W, Cfg, L);
    ASSERT_TRUE(R.ManualVerify.Ran && R.AutoVerify.Ran) << R.Name;
    expectDiffEqual(R.ManualVerify.Diff, Checker.check(taskSet(W, true)),
                    R.Name + " manual");
    expectDiffEqual(R.AutoVerify.Diff,
                    Checker.check(autoTaskSet(W, R.Generation)),
                    R.Name + " auto");

    auto Fresh = workloads::buildByName(Apps[I], workloads::Scale::Test);
    expectRefinementEqual(R.AutoPg, checkerRefinement(*Fresh, Cfg),
                          R.Name + " refinement");
  }
}

} // namespace
