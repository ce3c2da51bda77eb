//===- tests/claims/ClaimsTest.cpp - The paper's claims, at full scale ----===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The paper's headline shapes (DESIGN.md section 4), checked on the numbers
// the bench drivers print. The fixture runs the full-scale suite once
// through runSuite and paperFigures, exactly as fig3_dae_vs_cae does, and
// the default contention sweep once through runMixes, exactly as
// fig_contention does (8 cores; libq, cigar, cholesky and fft cycled to 1,
// 2, 4 and 8 ways). Every case reads those results; none simulates.
//
// Golden hashes pin bits; these cases pin what the bits mean. So a
// deliberate model change re-pins the goldens and keeps these passing.
// Where the reproduction deviates from the paper, the case pins the
// measured deviation and names it in EXPERIMENTS.md "Known deviations".
// Bands hold the claim, never the measurement: a case that fails is a
// finding, and its band is not widened to make it pass.
//
// The binary is one ctest test: every case shares the fixture's one suite
// run and one sweep.
//
//===----------------------------------------------------------------------===//

#include "analysis/TaskAnalysis.h"
#include "harness/Harness.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace dae;
using namespace dae::harness;

namespace {

unsigned fixtureJobs() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

std::vector<AppResult> runFullSuite(workloads::Scale S,
                                    const sim::MachineConfig &Cfg,
                                    std::vector<std::unique_ptr<
                                        workloads::Workload>> &Owned) {
  Owned = workloads::buildAll(S);
  std::vector<SuiteItem> Items;
  for (auto &W : Owned)
    Items.push_back({W.get(), nullptr});
  SuiteConfig SC;
  SC.Jobs = fixtureJobs();
  return runSuite(Items, Cfg, SC);
}

/// One width of the contention sweep, normalized to CAE at fmax.
struct SweepPoint {
  double Ondemand, Conservative, DaeMinMax, DaeOracle;
};

class PaperClaims : public ::testing::Test {
protected:
  static void SetUpTestSuite() {
    const sim::MachineConfig Cfg;
    Full = runFullSuite(workloads::Scale::Full, Cfg, FullWorkloads);
    Figs = paperFigures(Full, Cfg);
    Test = runFullSuite(workloads::Scale::Test, Cfg, TestWorkloads);

    sim::MachineConfig MixCfg;
    MixCfg.NumCores = 8;
    const std::vector<std::string> Names = {"libq", "cigar", "cholesky",
                                            "fft"};
    std::map<std::string, std::unique_ptr<workloads::Workload>> Owned;
    std::vector<std::vector<workloads::Workload *>> Mixes;
    for (unsigned W : Ways) {
      std::vector<workloads::Workload *> Mix;
      for (unsigned I = 0; I != W; ++I) {
        std::unique_ptr<workloads::Workload> &Wl =
            Owned[Names[I % Names.size()]];
        if (!Wl)
          Wl = workloads::buildByName(Names[I % Names.size()],
                                      workloads::Scale::Full);
        Mix.push_back(Wl.get());
      }
      Mixes.push_back(std::move(Mix));
    }
    MixConfig MC;
    MC.Jobs = fixtureJobs();
    for (const MixResult &R : runMixes(Mixes, MixCfg, MC)) {
      const double Base = R.CaeMax.EdpJs;
      Sweep.push_back({R.CaeOndemand.EdpJs / Base,
                       R.CaeConservative.EdpJs / Base,
                       R.DaeMinMax.EdpJs / Base, R.DaeOracle.EdpJs / Base});
    }
  }

  static void TearDownTestSuite() {
    Full.clear();
    Test.clear();
    FullWorkloads.clear();
    TestWorkloads.clear();
    Sweep.clear();
  }

  static const LatencyPoint &latency(double Ns) {
    return *std::find_if(Figs.Latency.begin(), Figs.Latency.end(),
                         [Ns](const LatencyPoint &P) { return P.Ns == Ns; });
  }

  static const Fig3Row &fig3At500(const std::string &App) {
    return *std::find_if(Figs.Fig3At500.begin(), Figs.Fig3At500.end(),
                         [&App](const Fig3Row &R) { return R.Name == App; });
  }

  static constexpr unsigned Ways[] = {1, 2, 4, 8};
  static std::vector<std::unique_ptr<workloads::Workload>> FullWorkloads,
      TestWorkloads;
  static std::vector<AppResult> Full, Test;
  static PaperFigures Figs;
  static std::vector<SweepPoint> Sweep; ///< Indexed like Ways.
};

std::vector<std::unique_ptr<workloads::Workload>> PaperClaims::FullWorkloads;
std::vector<std::unique_ptr<workloads::Workload>> PaperClaims::TestWorkloads;
std::vector<AppResult> PaperClaims::Full;
std::vector<AppResult> PaperClaims::Test;
PaperFigures PaperClaims::Figs;
std::vector<SweepPoint> PaperClaims::Sweep;

constexpr int Edp = 2; ///< Fig3Row's [time, energy, edp] index.

// Every scheme of every app leaves the same outputs: the claims below price
// runs that computed the same thing.
TEST_F(PaperClaims, SchemesAgreeOnOutputs) {
  for (const AppResult &R : Full)
    EXPECT_TRUE(R.OutputsMatch) << R.Name;
}

// Headline: Auto DAE's Optimal-f geomean EDP gain, at 500 ns and at 0 ns.
// The paper's band is 20-30% with Auto a few points ahead of Manual. Here
// Auto reads 31.5% (Manual 33.5%) at 500 ns and 35.4% (36.1%) at 0 ns:
// just above the band, with Manual ahead (EXPERIMENTS.md "Known
// deviations", second item). Pinned to those values within half a point.
TEST_F(PaperClaims, AutoEdpGainIsNearTheHeadline) {
  const LatencyPoint &At500 = latency(500.0), &At0 = latency(0.0);
  const double Auto500 = (1.0 - At500.AutoOptEdp) * 100.0;
  const double Manual500 = (1.0 - At500.ManualOptEdp) * 100.0;
  const double Auto0 = (1.0 - At0.AutoOptEdp) * 100.0;
  const double Manual0 = (1.0 - At0.ManualOptEdp) * 100.0;
  EXPECT_NEAR(Auto500, 31.5, 0.5);
  EXPECT_NEAR(Manual500, 33.5, 0.5);
  EXPECT_NEAR(Auto0, 35.4, 0.5);
  EXPECT_NEAR(Manual0, 36.1, 0.5);
  // The deviation's sign and size: Manual ahead, by at most 3 points.
  EXPECT_GT(Manual500, Auto500);
  EXPECT_LE(Manual500 - Auto500, 3.0);
  EXPECT_GT(Manual0, Auto0);
  EXPECT_LE(Manual0 - Auto0, 3.0);
  // Free transitions only help.
  EXPECT_GT(Auto0, Auto500);
}

// DAE preserves performance: at most a 5% time penalty at 500 ns [0.975],
// and a speedup over CAE at fmax when transitions are free [0.934].
TEST_F(PaperClaims, AutoKeepsPerformance) {
  EXPECT_LE(latency(500.0).AutoOptTime, 1.05);
  EXPECT_LT(latency(0.0).AutoOptTime, 1.0);
}

// Memory-bound applications gain most: LibQ [0.231] and CG [0.563] have the
// two lowest Auto Optimal-f EDPs at 500 ns. The paper also names Cigar;
// under Auto it gains little [0.933] (EXPERIMENTS.md "Known deviations",
// third item), so it is not asserted to lead.
TEST_F(PaperClaims, MemoryBoundAppsLeadUnderAuto) {
  std::vector<Fig3Row> Rows = Figs.Fig3At500;
  ASSERT_GE(Rows.size(), 2u);
  std::sort(Rows.begin(), Rows.end(), [](const Fig3Row &A, const Fig3Row &B) {
    return A.AutoOpt[Edp] < B.AutoOpt[Edp];
  });
  EXPECT_EQ(Rows[0].Name, "LibQ");
  EXPECT_EQ(Rows[1].Name, "CG");
  EXPECT_NEAR(fig3At500("Cigar").AutoOpt[Edp], 0.933, 0.01);
}

// The LBM exception: coupled execution's Optimal-f EDP [0.746] beats Auto
// DAE's [0.761]. It holds for Auto only: Manual's LBM [0.668] beats both
// (EXPERIMENTS.md "Known deviations", fourth item).
TEST_F(PaperClaims, LbmFavoursCoupledOverAuto) {
  const Fig3Row &Lbm = fig3At500("LBM");
  EXPECT_LT(Lbm.CaeOpt[Edp], Lbm.AutoOpt[Edp]);
  EXPECT_LT(Lbm.ManualOpt[Edp], Lbm.CaeOpt[Edp]);
}

// Table 1's split: LU and Cholesky take the polyhedral (affine) path, every
// other application the skeleton path, at test scale as at full scale. The
// hull guard's decision is scale invariant (DESIGN.md section 2).
TEST_F(PaperClaims, AffineSkeletonSplitHoldsAtBothScales) {
  for (const std::vector<AppResult> *Results : {&Full, &Test}) {
    ASSERT_EQ(Results->size(), 7u);
    for (const AppResult &R : *Results) {
      const bool Affine = R.Name == "LU" || R.Name == "Cholesky";
      ASSERT_FALSE(R.Generation.empty()) << R.Name;
      for (const AccessPhaseResult &G : R.Generation)
        EXPECT_EQ(G.Strategy, Affine ? analysis::TaskClass::Affine
                                     : analysis::TaskClass::Skeleton)
            << R.Name << " (" << (Results == &Full ? "full" : "test")
            << " scale)";
    }
  }
}

// Section 6.1: per-task DVFS pays less as transitions get slower. Auto's
// geomean Optimal-f EDP rises at every step of the 0-4000 ns sweep [0.646
// -> 0.974] and stays a gain at 4 us.
TEST_F(PaperClaims, AutoEdpDegradesWithTransitionLatency) {
  ASSERT_EQ(Figs.Latency.size(), 7u);
  for (std::size_t I = 1; I != Figs.Latency.size(); ++I)
    EXPECT_GT(Figs.Latency[I].AutoOptEdp, Figs.Latency[I - 1].AutoOptEdp)
        << Figs.Latency[I].Ns << " ns";
  EXPECT_EQ(Figs.Latency.front().Ns, 0.0);
  EXPECT_EQ(Figs.Latency.back().Ns, 4000.0);
  EXPECT_LT(Figs.Latency.back().AutoOptEdp, 1.0);
}

// Figure 4: a DAE scheme's Prefetch bucket, time and energy, does not move
// with the execute frequency (the access phase is pinned at fmin), and its
// Task bucket is below CAE's at every equal frequency (the misses moved to
// the access phase).
TEST_F(PaperClaims, Fig4PrefetchIsFlatAndTaskShrinks) {
  std::map<std::string, const Fig4Series *> Cae;
  for (const Fig4Series &S : Figs.Fig4)
    if (S.Which == Scheme::Cae)
      Cae[S.App] = &S;
  ASSERT_EQ(Cae.size(), 3u);
  unsigned DaeSeries = 0;
  for (const Fig4Series &S : Figs.Fig4) {
    if (S.Which == Scheme::Cae)
      continue;
    ++DaeSeries;
    const Fig4Series &Base = *Cae.at(S.App);
    ASSERT_EQ(S.Points.size(), Base.Points.size()) << S.App;
    ASSERT_FALSE(S.Points.empty()) << S.App;
    for (std::size_t I = 0; I != S.Points.size(); ++I) {
      const Fig4Point &P = S.Points[I];
      EXPECT_GT(P.PrefetchSec, 0.0) << S.App;
      EXPECT_DOUBLE_EQ(P.PrefetchSec, S.Points.front().PrefetchSec)
          << S.App << " at " << P.FreqGHz << " GHz";
      EXPECT_DOUBLE_EQ(P.PrefetchJ, S.Points.front().PrefetchJ)
          << S.App << " at " << P.FreqGHz << " GHz";
      EXPECT_EQ(P.FreqGHz, Base.Points[I].FreqGHz);
      EXPECT_LT(P.TaskSec, Base.Points[I].TaskSec)
          << S.App << " at " << P.FreqGHz << " GHz";
    }
  }
  EXPECT_EQ(DaeSeries, 6u);
}

// The contention sweep: the per-phase EDP oracle beats the naive min/max
// split only under enough co-run pressure. It ties at 1-way [0.247], trails
// at 2-way [0.290 against 0.288], and wins at 4-way [0.663 against 0.717]
// and 8-way [0.787 against 0.882]. At 8-way both reactive governors beat it
// [ondemand 0.624, conservative 0.607]: DRAM queuing stretches wall time,
// utilization drops and the governors downclock a makespan that is
// memory-bound anyway. Both the 2-way gap and the 8-way governors deviate
// from the sweep's expected shape (EXPERIMENTS.md "Known deviations", last
// item).
TEST_F(PaperClaims, ContentionOracleWinsOnlyUnderPressure) {
  ASSERT_EQ(Sweep.size(), 4u);
  const SweepPoint &W1 = Sweep[0], &W2 = Sweep[1], &W4 = Sweep[2],
                   &W8 = Sweep[3];
  EXPECT_NEAR(W1.DaeOracle, W1.DaeMinMax, 5e-4);
  EXPECT_NEAR(W1.DaeOracle, 0.247, 0.005);
  EXPECT_GT(W2.DaeOracle, W2.DaeMinMax);
  EXPECT_LT(W2.DaeOracle - W2.DaeMinMax, 0.01);
  EXPECT_LT(W4.DaeOracle, W4.DaeMinMax);
  EXPECT_LT(W8.DaeOracle, W8.DaeMinMax);
  EXPECT_LT(W8.Ondemand, W8.DaeOracle);
  EXPECT_LT(W8.Conservative, W8.DaeOracle);
  for (const SweepPoint &P : Sweep)
    EXPECT_LT(P.DaeOracle, 1.0);
}

} // namespace
