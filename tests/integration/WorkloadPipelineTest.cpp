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
#include "support/MathUtil.h"

#include <gtest/gtest.h>

#include <iterator>
#include <utility>

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
  // So is Prefetch energy: the access phases draw fmin's power whatever the
  // execute frequency.
  for (size_t I = 1; I < Series.size(); ++I)
    EXPECT_NEAR(Series[I].PrefetchJ, Series[0].PrefetchJ,
                Series[0].PrefetchJ * 1e-12);
}

void expectSameFig3Row(const Fig3Row &A, const Fig3Row &B) {
  EXPECT_EQ(A.Name, B.Name);
  for (int M = 0; M != 3; ++M) {
    EXPECT_EQ(A.CaeOpt[M], B.CaeOpt[M]) << A.Name;
    EXPECT_EQ(A.ManualMinMax[M], B.ManualMinMax[M]) << A.Name;
    EXPECT_EQ(A.ManualOpt[M], B.ManualOpt[M]) << A.Name;
    EXPECT_EQ(A.AutoMinMax[M], B.AutoMinMax[M]) << A.Name;
    EXPECT_EQ(A.AutoOpt[M], B.AutoOpt[M]) << A.Name;
  }
}

// Every paper section comes from one suite run through paperFigures. Each
// must be exactly what the pricing calls give, and the latency sweep's
// 500 ns and 0 ns rows exactly the geomeans of Figure 3's two sections —
// an agreement separate drivers, each with its own suite run, never checked.
TEST(HarnessTest, PaperFiguresAgreeWithThePricingCalls) {
  auto Workloads = buildAll(Scale::Test);
  std::vector<SuiteItem> Items;
  for (auto &W : Workloads)
    Items.push_back({W.get(), nullptr});
  sim::MachineConfig Cfg = testMachine();
  std::vector<AppResult> Results = runSuite(Items, Cfg, SuiteConfig());
  ASSERT_EQ(Results.size(), 7u);
  PaperFigures F = paperFigures(Results, Cfg);

  ASSERT_EQ(F.Table1.size(), Results.size());
  ASSERT_EQ(F.Fig3At500.size(), Results.size());
  ASSERT_EQ(F.Fig3At0.size(), Results.size());
  for (size_t I = 0; I != Results.size(); ++I) {
    const Table1Row &Got = F.Table1[I], &Want = Results[I].Row;
    EXPECT_EQ(Got.Name, Want.Name);
    EXPECT_EQ(Got.AffineLoops, Want.AffineLoops);
    EXPECT_EQ(Got.TotalLoops, Want.TotalLoops);
    EXPECT_EQ(Got.NumTasks, Want.NumTasks);
    EXPECT_EQ(Got.AccessTimePercent, Want.AccessTimePercent);
    EXPECT_EQ(Got.AccessTimeUs, Want.AccessTimeUs);
    expectSameFig3Row(F.Fig3At500[I], priceFig3(Results[I], Cfg, 500.0));
    expectSameFig3Row(F.Fig3At0[I], priceFig3(Results[I], Cfg, 0.0));
  }

  const double Latencies[] = {0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0,
                              4000.0};
  ASSERT_EQ(F.Latency.size(), std::size(Latencies));
  for (size_t I = 0; I != F.Latency.size(); ++I)
    EXPECT_EQ(F.Latency[I].Ns, Latencies[I]);
  for (auto [Point, Rows] : {std::pair{&F.Latency[3], &F.Fig3At500},
                             std::pair{&F.Latency[0], &F.Fig3At0}}) {
    std::vector<double> Man, Auto, AutoTime;
    for (const Fig3Row &R : *Rows) {
      Man.push_back(R.ManualOpt[2]);
      Auto.push_back(R.AutoOpt[2]);
      AutoTime.push_back(R.AutoOpt[0]);
    }
    EXPECT_EQ(Point->ManualOptEdp, geometricMean(Man)) << Point->Ns;
    EXPECT_EQ(Point->AutoOptEdp, geometricMean(Auto)) << Point->Ns;
    EXPECT_EQ(Point->AutoOptTime, geometricMean(AutoTime)) << Point->Ns;
  }

  ASSERT_EQ(F.Fig4.size(), 9u);
  size_t Next = 0;
  for (const char *App : {"Cholesky", "FFT", "LibQ"})
    for (Scheme Which : {Scheme::Cae, Scheme::Manual, Scheme::Auto}) {
      const Fig4Series &S = F.Fig4[Next++];
      EXPECT_EQ(S.App, App);
      EXPECT_EQ(S.Which, Which) << App;
      ASSERT_EQ(S.Points.size(), Cfg.FrequenciesGHz.size()) << App;
      for (size_t I = 0; I != S.Points.size(); ++I)
        EXPECT_EQ(S.Points[I].FreqGHz, Cfg.FrequenciesGHz[I]) << App;
    }
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
