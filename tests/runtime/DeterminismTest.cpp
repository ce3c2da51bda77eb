//===- tests/runtime/DeterminismTest.cpp - Engine determinism -------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The engine's core guarantees: RunProfiles do not depend on the order in
// which same-wave tasks run (the schedule order, which changes with
// NumCores), on whether the oracle capture is on, or on the --jobs value of
// the suite engine. Every comparison here is exact (EXPECT_EQ on doubles
// included) — any divergence is a bug, not noise.
//
//===----------------------------------------------------------------------===//

#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "runtime/Runtime.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <memory>
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
/// capture identical line and miss sets.
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
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, CaptureDeterminismTest,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

/// Suite-level: the full Figure 3 pipeline over all seven apps on the job
/// pool (--jobs=4, shared generation memo) must be bit-identical to the
/// sequential reference (--jobs=1, no memo): profiles, Table 1 rows, priced
/// Figure 3 rows, and the raw output snapshots of every scheme.
TEST(SuiteDeterminismTest, JobPoolMatchesSequentialReference) {
  auto RunAt = [](unsigned Jobs, bool UseMemo) {
    MachineConfig Cfg;
    auto Ws = workloads::buildAll(workloads::Scale::Test);
    std::vector<harness::SuiteItem> Items;
    for (auto &W : Ws)
      Items.push_back({W.get(), nullptr});
    GenerationMemo Memo;
    harness::SuiteConfig SC;
    SC.Jobs = Jobs;
    SC.Memo = UseMemo ? &Memo : nullptr;
    return harness::runSuite(Items, Cfg, SC);
  };
  std::vector<harness::AppResult> Seq = RunAt(1, false);
  std::vector<harness::AppResult> Par = RunAt(4, true);

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

} // namespace
