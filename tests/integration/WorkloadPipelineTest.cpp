//===- tests/integration/WorkloadPipelineTest.cpp - End-to-end tests ------===//
//
// Part of daecc. Distributed under the MIT license.
//
// Full-pipeline checks per workload at Test scale: access generation picks
// the expected strategy, all three schemes (CAE / Manual / Auto DAE) produce
// bit-identical outputs (the access phase is a pure prefetch), and the DAE
// profiles show the expected structure (prefetch traffic in the access
// phase, fewer execute-phase memory stalls than CAE).
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "analysis/TaskAnalysis.h"
#include "ir/Printer.h"

#include <gtest/gtest.h>

using namespace dae;
using namespace dae::harness;
using namespace dae::workloads;

namespace {

sim::MachineConfig testMachine() {
  sim::MachineConfig Cfg;
  return Cfg;
}

struct PipelineCase {
  const char *Name;
  analysis::TaskClass ExpectedStrategy;
};

// Without a printer gtest dumps the struct's bytes (pointer and padding) into
// the listed (and so ctest's) test name, which then differs on every run.
void PrintTo(const PipelineCase &C, std::ostream *OS) { *OS << C.Name; }

class WorkloadPipelineTest : public ::testing::TestWithParam<PipelineCase> {};

TEST_P(WorkloadPipelineTest, EndToEnd) {
  PipelineCase C = GetParam();
  auto W = buildByName(C.Name, Scale::Test);
  ASSERT_TRUE(W) << "unknown workload " << C.Name;
  sim::MachineConfig Cfg = testMachine();

  AppResult R = runApp(*W, Cfg);

  // Every task function must receive an access phase of the right kind.
  ASSERT_FALSE(R.Generation.empty());
  for (const AccessPhaseResult &G : R.Generation) {
    EXPECT_TRUE(G.succeeded()) << W->Name << ": " << G.Notes;
    EXPECT_EQ(G.Strategy, C.ExpectedStrategy) << W->Name << ": " << G.Notes;
  }

  // The access phase is a speculative prefetch: results must be identical
  // across CAE, Manual DAE, and Auto DAE.
  EXPECT_TRUE(R.OutputsMatch) << W->Name;

  // Profiles sane: every task ran; DAE runs carry access-phase stats.
  EXPECT_EQ(R.Cae.Tasks.size(), W->Tasks.size());
  EXPECT_EQ(R.Auto.Tasks.size(), W->Tasks.size());
  sim::PhaseStats AutoAccess = R.Auto.totalAccess();
  EXPECT_GT(AutoAccess.Prefetches, 0u) << W->Name;
  EXPECT_GT(AutoAccess.Instructions, 0u) << W->Name;

  // Prefetching must actually reduce execute-phase DRAM traffic vs CAE.
  sim::PhaseStats CaeExec = R.Cae.totalExecute();
  sim::PhaseStats AutoExec = R.Auto.totalExecute();
  EXPECT_LT(AutoExec.MemAccesses, CaeExec.MemAccesses + 1) << W->Name;

  // Table 1 row is populated.
  EXPECT_EQ(R.Row.NumTasks, W->Tasks.size());
  EXPECT_GT(R.Row.AccessTimePercent, 0.0);
  EXPECT_GT(R.Row.AccessTimeUs, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadPipelineTest,
    ::testing::Values(
        PipelineCase{"lu", analysis::TaskClass::Affine},
        PipelineCase{"cholesky", analysis::TaskClass::Affine},
        PipelineCase{"fft", analysis::TaskClass::Skeleton},
        PipelineCase{"lbm", analysis::TaskClass::Skeleton},
        PipelineCase{"libq", analysis::TaskClass::Skeleton},
        PipelineCase{"cigar", analysis::TaskClass::Skeleton},
        PipelineCase{"cg", analysis::TaskClass::Skeleton}),
    [](const ::testing::TestParamInfo<PipelineCase> &Info) {
      return std::string(Info.param.Name);
    });

TEST(HarnessTest, Fig3PricingIsNormalized) {
  auto W = buildByName("libq", Scale::Test);
  sim::MachineConfig Cfg = testMachine();
  AppResult R = runApp(*W, Cfg);
  Fig3Row Row = priceFig3(R, Cfg, /*TransitionNs=*/500.0);
  // All values are ratios to CAE@fmax; they must be positive and bounded.
  for (const double *Cfg3 :
       {Row.CaeOpt, Row.ManualMinMax, Row.ManualOpt, Row.AutoMinMax,
        Row.AutoOpt})
    for (int I = 0; I != 3; ++I) {
      EXPECT_GT(Cfg3[I], 0.05);
      EXPECT_LT(Cfg3[I], 5.0);
    }
}

TEST(HarnessTest, Fig4SeriesCoversLadder) {
  auto W = buildByName("cholesky", Scale::Test);
  sim::MachineConfig Cfg = testMachine();
  AppResult R = runApp(*W, Cfg);
  auto Series = priceFig4(R, Cfg, Scheme::Auto, 500.0);
  ASSERT_EQ(Series.size(), Cfg.FrequenciesGHz.size());
  // Task (execute) time must shrink monotonically with frequency for the
  // compute-bound Cholesky.
  for (size_t I = 1; I < Series.size(); ++I)
    EXPECT_LT(Series[I].TaskSec, Series[I - 1].TaskSec * 1.001);
  // Prefetch time is pinned at fmin, hence constant across the sweep.
  for (size_t I = 1; I < Series.size(); ++I)
    EXPECT_NEAR(Series[I].PrefetchSec, Series[0].PrefetchSec,
                1e-12 + Series[0].PrefetchSec * 1e-9);
}

} // namespace

namespace {

TEST(ProfileGuidedTest, ColdLoadsShrinkAccessPhaseAndPreserveOutputs) {
  sim::MachineConfig Cfg;
  // Baseline auto DAE.
  auto W1 = buildByName("cg", Scale::Test);
  AppResult Base = runApp(*W1, Cfg);
  ASSERT_TRUE(Base.OutputsMatch);

  // Profile-guided: the X gather misses a lot (kept); Cases-like resident
  // streams drop out. Access-phase instruction count must not grow, and
  // results stay identical.
  auto W2 = buildByName("cg", Scale::Test);
  auto Cold = profileColdLoads(*W2, Cfg, /*MissRateThreshold=*/0.02);
  dae::DaeOptions Opts = W2->Opts;
  Opts.ColdLoads = &Cold;
  AppResult Guided = runApp(*W2, Cfg, &Opts);
  EXPECT_TRUE(Guided.OutputsMatch);
  EXPECT_LE(Guided.Auto.totalAccess().Prefetches,
            Base.Auto.totalAccess().Prefetches);
  EXPECT_LE(Guided.Auto.totalAccess().Instructions,
            Base.Auto.totalAccess().Instructions);
}

TEST(ProfileGuidedTest, AllColdLoadsStillYieldValidAccessPhase) {
  // Degenerate profile: every load is "cold". The skeleton still emits a
  // structurally valid (possibly empty) access phase and results hold.
  sim::MachineConfig Cfg;
  auto W = buildByName("libq", Scale::Test);
  std::set<const ir::Instruction *> Cold;
  for (const auto &F : W->M->functions())
    for (const auto &BB : *F)
      for (const auto &I : *BB)
        Cold.insert(I.get());
  dae::DaeOptions Opts = W->Opts;
  Opts.ColdLoads = &Cold;
  AppResult R = runApp(*W, Cfg, &Opts);
  EXPECT_TRUE(R.OutputsMatch);
  EXPECT_EQ(R.Auto.totalAccess().Prefetches, 0u);
}

} // namespace
