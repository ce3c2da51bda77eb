//===- tests/dae/ProfileGuidedRefinementTest.cpp - PG feedback loop --------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The profile-guided DAE refinement loop (--dae-profile-guided): the
// planner's rules and gating, the end-to-end coverage lift on FFT (whose
// bit-reversal task is the canonical victim of 5.2.2's conditional pruning),
// purity/differential invariants across the whole suite, and identical
// refinement of structurally identical modules for every --jobs value.
//
//===----------------------------------------------------------------------===//

#include "dae/AccessProfile.h"
#include "harness/Harness.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

using namespace dae;
using namespace dae::harness;
using namespace dae::workloads;

namespace {

// --- planRefinement: rules and their GenerationTrace gating ---------------

TaskProfileData observed(std::uint64_t Misses, std::uint64_t Strict,
                         std::uint64_t Lines, std::uint64_t Unused) {
  TaskProfileData P;
  P.BaselineMisses = Misses;
  P.FootprintCoveredMisses = Misses;
  P.StrictCoveredMisses = Strict;
  P.PrefetchedLines = Lines;
  P.UnusedPrefetchedLines = Unused;
  P.Observations = 1;
  return P;
}

TEST(RefinementPlanner, KeepControlFlowNeedsARewrittenConditional) {
  RefinementConfig C;
  GenerationTrace T;
  T.SkeletonRan = true;
  T.CondsRewritten = 1;

  // Strict coverage 0.5 with a pruned conditional: restore it.
  TaskProfileData P = observed(10, 5, 10, 0);
  RefinementAction A = planRefinement(P, T, C);
  EXPECT_TRUE(A.KeepControlFlow);
  EXPECT_FALSE(A.PruneColdPrefetches);
  EXPECT_FALSE(A.SplitPhases);
  EXPECT_EQ(A.str(), "keep-control-flow");

  // Nothing was pruned: flipping SimplifyCfg cannot change the phase.
  T.CondsRewritten = 0;
  EXPECT_FALSE(planRefinement(P, T, C).any());

  // Coverage already at target: nothing to restore.
  T.CondsRewritten = 1;
  EXPECT_FALSE(planRefinement(observed(10, 10, 10, 0), T, C).any());

  // Affine-path tasks never pruned conditionals.
  GenerationTrace Affine;
  Affine.AffineRan = true;
  EXPECT_FALSE(planRefinement(P, Affine, C).any());
}

TEST(RefinementPlanner, PruneColdPrefetchesNeedsAProfiledColdSet) {
  RefinementConfig C;
  GenerationTrace T;
  T.SkeletonRan = true;

  // 40% of prefetched lines unused: overshoot 0.4 > the 0.05 budget.
  TaskProfileData P = observed(10, 10, 100, 40);
  EXPECT_FALSE(planRefinement(P, T, C).any())
      << "without a cold-load set there is nothing to prune";

  std::set<const ir::Instruction *> Cold{nullptr};
  C.ColdLoads = &Cold;
  RefinementAction A = planRefinement(P, T, C);
  EXPECT_TRUE(A.PruneColdPrefetches);
  EXPECT_EQ(A.str(), "prune-cold-prefetches");

  // Overshoot within budget: leave the phase alone.
  EXPECT_FALSE(planRefinement(observed(10, 10, 100, 2), T, C).any());
}

TEST(RefinementPlanner, SplitPhasesNeedsAMergedNestSpanningCacheLevels) {
  RefinementConfig C;
  C.PhaseSplitFootprintBytes = 64 * 1024;
  GenerationTrace T;
  T.AffineRan = true;
  T.MergeApplied = true;

  TaskProfileData P = observed(10, 10, 100, 0);
  P.ExecuteFootprintBytes = 128 * 1024;
  RefinementAction A = planRefinement(P, T, C);
  EXPECT_TRUE(A.SplitPhases);
  EXPECT_EQ(A.str(), "split-phases");

  // A footprint that fits the private cache has nothing to split.
  P.ExecuteFootprintBytes = 32 * 1024;
  EXPECT_FALSE(planRefinement(P, T, C).any());

  // No merge happened: MergeLoopNests=false cannot change the phase.
  P.ExecuteFootprintBytes = 128 * 1024;
  T.MergeApplied = false;
  EXPECT_FALSE(planRefinement(P, T, C).any());
}

TEST(RefinementPlanner, NoObservationsMeansNoAction) {
  RefinementConfig C;
  GenerationTrace T;
  T.SkeletonRan = true;
  T.CondsRewritten = 1;
  TaskProfileData Empty; // strictCoverage() == 1.0 but Observations == 0.
  EXPECT_FALSE(planRefinement(Empty, T, C).any());
}

TEST(RefinementPlanner, RefinedOptionsFlipExactlyThePlannedKnobs) {
  RefinementConfig C;
  std::set<const ir::Instruction *> Cold{nullptr};
  C.ColdLoads = &Cold;

  DaeOptions Base;
  RefinementAction A;
  A.KeepControlFlow = true;
  A.PruneColdPrefetches = true;
  A.SplitPhases = true;
  EXPECT_EQ(A.str(), "keep-control-flow,prune-cold-prefetches,split-phases");

  DaeOptions R = refinedOptions(Base, A, C);
  EXPECT_FALSE(R.SimplifyCfg);
  EXPECT_EQ(R.ColdLoads, &Cold);
  EXPECT_FALSE(R.MergeLoopNests);
  // Unrelated knobs ride along unchanged.
  EXPECT_EQ(R.UseConvexUnion, Base.UseConvexUnion);
  EXPECT_EQ(R.SplitClasses, Base.SplitClasses);

  RefinementAction None;
  DaeOptions Same = refinedOptions(Base, None, C);
  EXPECT_TRUE(Same.SimplifyCfg);
  EXPECT_EQ(Same.ColdLoads, nullptr);
  EXPECT_TRUE(Same.MergeLoopNests);
}

// --- End to end: FFT's pruned bit-reverse arm ------------------------------

TEST(ProfileGuidedRefinement, LiftsFftStrictCoverageWithoutOvershoot) {
  auto W = buildByName("fft", Scale::Test);
  ASSERT_TRUE(W);
  sim::MachineConfig Cfg;
  AppResult R = runApp(*W, Cfg, nullptr, /*DaeVerify=*/true,
                       /*DaeProfileGuided=*/true);

  const ProfileGuidedResult &Pg = R.AutoPg;
  ASSERT_TRUE(Pg.Ran);
  EXPECT_GE(Pg.RefinedTasks, 1u);
  ASSERT_FALSE(Pg.Actions.empty());
  EXPECT_EQ(Pg.Actions[0], "fft_bitrev: keep-control-flow");

  // The acceptance bar: strict coverage lifted to the CI gate's floor
  // without blowing the overshoot budget (<= 1.1x the unrefined phase).
  EXPECT_LT(Pg.Before.strictCoverage(), 0.95);
  EXPECT_GE(Pg.After.strictCoverage(), 0.95);
  EXPECT_LE(Pg.After.overshoot(), Pg.Before.overshoot() * 1.1 + 1e-9);

  // Refinement must never trade correctness: refined phases audit pure, the
  // differential stays bit-identical, and the three schemes still agree.
  EXPECT_TRUE(Pg.AuditPure) << "refined phase failed the purity audit";
  EXPECT_TRUE(Pg.After.pure());
  EXPECT_TRUE(R.AutoVerify.Ran);
  EXPECT_TRUE(R.AutoVerify.AuditPure);
  EXPECT_TRUE(R.AutoVerify.Diff.pure());
  EXPECT_TRUE(R.OutputsMatch);

  // Covering the swap arm's misses can only help the Min/Max EDP.
  EXPECT_GT(Pg.EdpBefore, 0.0);
  EXPECT_LE(Pg.EdpAfter, Pg.EdpBefore);

  // Provenance lands on the generation diagnostics.
  bool FoundProvenance = false;
  for (const AccessPhaseResult &G : R.Generation)
    if (G.ProfileRefined) {
      FoundProvenance = true;
      EXPECT_EQ(G.RefinementNote, "keep-control-flow");
    }
  EXPECT_TRUE(FoundProvenance);
}

TEST(ProfileGuidedRefinement, FlagOffTouchesNothing) {
  auto W = buildByName("fft", Scale::Test);
  ASSERT_TRUE(W);
  sim::MachineConfig Cfg;
  AppResult R = runApp(*W, Cfg);
  EXPECT_FALSE(R.AutoPg.Ran);
  EXPECT_EQ(R.AutoPg.RefinedTasks, 0u);
  for (const AccessPhaseResult &G : R.Generation)
    EXPECT_FALSE(G.ProfileRefined);
}

// --- Whole suite: refinement preserves the correctness invariants ----------

TEST(ProfileGuidedRefinement, EveryWorkloadStaysPureAndMeetsTheGate) {
  auto Workloads = buildAll(Scale::Test);
  std::vector<SuiteItem> Items;
  for (auto &W : Workloads)
    Items.push_back({W.get(), nullptr});

  SuiteConfig SC;
  SC.DaeVerify = true;
  SC.DaeProfileGuided = true;
  sim::MachineConfig Cfg;
  std::vector<AppResult> Results = runSuite(Items, Cfg, SC);

  ASSERT_EQ(Results.size(), Workloads.size());
  for (const AppResult &R : Results) {
    EXPECT_TRUE(R.OutputsMatch) << R.Name;
    ASSERT_TRUE(R.AutoPg.Ran) << R.Name;
    EXPECT_TRUE(R.AutoPg.AuditPure) << R.Name;
    EXPECT_TRUE(R.AutoPg.After.pure()) << R.Name;
    EXPECT_GE(R.AutoPg.After.strictCoverage(), 0.95) << R.Name;
    EXPECT_LE(R.AutoPg.After.overshoot(),
              R.AutoPg.Before.overshoot() * 1.1 + 1e-9)
        << R.Name;
    // The refined scheme is what --dae-verify then re-checks.
    EXPECT_TRUE(R.AutoVerify.Diff.pure()) << R.Name;
    EXPECT_GE(R.AutoVerify.Diff.strictCoverage(), 0.95) << R.Name;
  }
}

// --- Twin modules: each refines alike, whatever the job count --------------

TEST(ProfileGuidedRefinement, TwinInstancesRefineIdenticallyForAnyJobs) {
  struct Snapshot {
    std::vector<std::uint8_t> Outputs[2];
    double Strict[2], Overshoot[2], Edp[2];
  };
  std::vector<Snapshot> Runs;

  // Two structurally identical FFT instances each refine their own module.
  // Every --jobs value must agree bit-for-bit and both instances must carry
  // refinement provenance.
  for (unsigned Jobs : {1u, 2u, 4u}) {
    auto A = buildByName("fft", Scale::Test);
    auto B = buildByName("fft", Scale::Test);
    ASSERT_TRUE(A && B);
    std::vector<SuiteItem> Items = {{A.get(), nullptr}, {B.get(), nullptr}};

    SuiteConfig SC;
    SC.Jobs = Jobs;
    SC.DaeVerify = true;
    SC.DaeProfileGuided = true;
    sim::MachineConfig Cfg;
    std::vector<AppResult> Results = runSuite(Items, Cfg, SC);
    ASSERT_EQ(Results.size(), 2u);

    Snapshot S;
    for (int I = 0; I != 2; ++I) {
      const AppResult &R = Results[I];
      ASSERT_TRUE(R.AutoPg.Ran) << "instance " << I;
      EXPECT_GE(R.AutoPg.RefinedTasks, 1u) << "instance " << I;
      EXPECT_TRUE(R.AutoPg.AuditPure) << "instance " << I;
      EXPECT_TRUE(R.AutoPg.After.pure()) << "instance " << I;
      EXPECT_TRUE(R.AutoVerify.Diff.pure()) << "instance " << I;
      EXPECT_TRUE(R.OutputsMatch) << "instance " << I;

      // Both instances' regenerated phases carry provenance.
      bool Found = false;
      for (const AccessPhaseResult &G : R.Generation)
        if (G.ProfileRefined) {
          Found = true;
          EXPECT_EQ(G.RefinementNote, "keep-control-flow");
        }
      EXPECT_TRUE(Found) << "instance " << I << " lost provenance";

      S.Outputs[I] = R.AutoOutputs;
      S.Strict[I] = R.AutoPg.After.strictCoverage();
      S.Overshoot[I] = R.AutoPg.After.overshoot();
      S.Edp[I] = R.AutoPg.EdpAfter;
    }
    // The two instances are the same program: identical outputs and metrics.
    EXPECT_EQ(S.Outputs[0], S.Outputs[1]);
    EXPECT_EQ(S.Strict[0], S.Strict[1]);
    Runs.push_back(std::move(S));
  }

  // Bit-identical across every --jobs value.
  for (size_t R = 1; R != Runs.size(); ++R)
    for (int I = 0; I != 2; ++I) {
      EXPECT_EQ(Runs[R].Outputs[I], Runs[0].Outputs[I]) << "run " << R;
      EXPECT_EQ(Runs[R].Strict[I], Runs[0].Strict[I]) << "run " << R;
      EXPECT_EQ(Runs[R].Overshoot[I], Runs[0].Overshoot[I]) << "run " << R;
      EXPECT_EQ(Runs[R].Edp[I], Runs[0].Edp[I]) << "run " << R;
    }
}

} // namespace
