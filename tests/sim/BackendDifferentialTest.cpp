//===- tests/sim/BackendDifferentialTest.cpp - Cross-backend differential --===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Differential testing of the functional execution backends
// (MachineConfig::Backend): the reference switch interpreter, the
// register-allocated direct-threaded bytecode backend, and the native
// codegen backend must produce bit-identical observables on every paper
// workload — RunProfiles (every PhaseStats field, EXPECT_EQ on doubles
// included), ordered AccessTraces, final memory images, and output
// snapshots — across scheme (CAE, Manual DAE, Auto DAE) and host thread
// count. Any divergence is a backend bug, not noise: both lowerings are
// required to count the same instructions per cost class, preserve
// memory-model callback order, and reproduce the exact RuntimeValue write
// patterns of the switch interpreter.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "runtime/Runtime.h"
#include "sim/AccessTrace.h"
#include "sim/Interpreter.h"
#include "sim/Memory.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

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

/// End-to-end: each paper workload through the full harness (CAE, Manual
/// DAE, Auto DAE) under every backend. Profiles and raw output snapshots
/// must match bit for bit.
class BackendHarnessDifferential
    : public ::testing::TestWithParam<const char *> {};

TEST_P(BackendHarnessDifferential, SchemesMatchAcrossBackends) {
  auto RunWith = [&](SimBackend Backend) {
    MachineConfig Cfg;
    Cfg.Backend = Backend;
    auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
    return harness::runApp(*W, Cfg);
  };
  harness::AppResult Ref = RunWith(SimBackend::Switch);
  EXPECT_TRUE(Ref.OutputsMatch) << "switch";
  for (SimBackend Backend : {SimBackend::Threaded, SimBackend::Native}) {
    if (!simBackendBuilt(Backend))
      continue;
    harness::AppResult Got = RunWith(Backend);
    EXPECT_TRUE(Got.OutputsMatch) << simBackendName(Backend);
    expectProfilesEqual(Ref.Cae, Got.Cae);
    expectProfilesEqual(Ref.Manual, Got.Manual);
    expectProfilesEqual(Ref.Auto, Got.Auto);
    EXPECT_EQ(Ref.CaeOutputs, Got.CaeOutputs) << simBackendName(Backend);
    EXPECT_EQ(Ref.ManualOutputs, Got.ManualOutputs) << simBackendName(Backend);
    EXPECT_EQ(Ref.AutoOutputs, Got.AutoOutputs) << simBackendName(Backend);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BackendHarnessDifferential,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

/// Runtime-level: the Manual-DAE task set (both phases per task) executed by
/// TaskRuntime under both backends must leave bit-identical memory images in
/// addition to identical profiles — imageHash covers every byte the
/// functional pass wrote, not just the declared output globals.
class BackendRuntimeDifferential
    : public ::testing::TestWithParam<const char *> {};

TEST_P(BackendRuntimeDifferential, ProfilesAndMemoryImagesMatch) {
  auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
  Loader L(*W->M);
  std::vector<Task> Tasks = W->Tasks;
  for (Task &T : Tasks) {
    auto It = W->ManualAccess.find(T.Execute);
    if (It != W->ManualAccess.end())
      T.Access = It->second;
  }

  auto RunWith = [&](SimBackend Backend, std::uint64_t *HashOut) {
    MachineConfig Cfg;
    Cfg.Backend = Backend;
    Memory Mem;
    W->Init(Mem, L);
    TaskRuntime RT(Cfg, Mem, L);
    RunProfile P = RT.execute(Tasks, /*RunAccess=*/true);
    *HashOut = Mem.imageHash();
    return P;
  };

  std::uint64_t RefHash = 0;
  RunProfile Ref = RunWith(SimBackend::Switch, &RefHash);
  for (SimBackend Backend : {SimBackend::Threaded, SimBackend::Native}) {
    if (!simBackendBuilt(Backend))
      continue;
    std::uint64_t GotHash = 0;
    RunProfile Got = RunWith(Backend, &GotHash);
    expectProfilesEqual(Ref, Got);
    EXPECT_EQ(RefHash, GotHash) << simBackendName(Backend);
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BackendRuntimeDifferential,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

/// Interpreter-level: runTraced under both backends must record the same
/// ordered access-event stream (kind + byte address per event), return the
/// same cache-independent PhaseStats, and leave the same memory image. This
/// pins the exact event order the runtime's trace replay depends on — a
/// reordered (even if complete) trace would change cache timing.
class BackendTraceDifferential
    : public ::testing::TestWithParam<const char *> {};

TEST_P(BackendTraceDifferential, AccessTracesMatch) {
  auto RunWith = [&](SimBackend Backend, std::vector<AccessTrace> *Traces,
                     std::vector<PhaseStats> *Stats) {
    MachineConfig Cfg;
    Cfg.Backend = Backend;
    auto W = workloads::buildByName(GetParam(), workloads::Scale::Test);
    Loader L(*W->M);
    Memory Mem;
    W->Init(Mem, L);
    Interpreter Interp(Cfg, Mem, L);
    for (const Task &T : W->Tasks)
      Interp.program().lookup(*T.Execute);
    for (const Task &T : W->Tasks) {
      Traces->emplace_back();
      Stats->push_back(Interp.runTraced(*T.Execute, T.Args, Traces->back()));
    }
    return Mem.imageHash();
  };

  std::vector<AccessTrace> RefTraces;
  std::vector<PhaseStats> RefStats;
  std::uint64_t RefHash = RunWith(SimBackend::Switch, &RefTraces, &RefStats);
  for (SimBackend Backend : {SimBackend::Threaded, SimBackend::Native}) {
    if (!simBackendBuilt(Backend))
      continue;
    std::vector<AccessTrace> GotTraces;
    std::vector<PhaseStats> GotStats;
    std::uint64_t GotHash = RunWith(Backend, &GotTraces, &GotStats);

    EXPECT_EQ(RefHash, GotHash) << simBackendName(Backend);
    ASSERT_EQ(RefTraces.size(), GotTraces.size());
    for (size_t I = 0; I != RefTraces.size(); ++I) {
      expectStatsEqual(RefStats[I], GotStats[I], simBackendName(Backend), I);
      EXPECT_EQ(RefTraces[I].events(), GotTraces[I].events())
          << simBackendName(Backend) << " trace of task " << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, BackendTraceDifferential,
                         ::testing::Values("lu", "cholesky", "fft", "lbm",
                                           "libq", "cigar", "cg"));

} // namespace
