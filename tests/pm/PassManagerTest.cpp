//===- tests/pm/PassManagerTest.cpp - Pass/analysis manager tests ----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pass/analysis manager contract: analysis results are cached per
// (function, analysis); a mutating pass (empty PreservedAnalyses) drops the
// cache and forces recomputation; a no-op pass (all preserved) keeps cached
// results pointer-identical; invalidating LoopInfo cascades to the cached
// ScalarEvolution that references it; and fixpoint pipelines terminate —
// both by reaching a steady state and by the iteration cap.
//
//===----------------------------------------------------------------------===//

#include "analysis/LoopInfo.h"
#include "analysis/ScalarEvolution.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "passes/Passes.h"
#include "pm/Analyses.h"
#include "pm/Instrumentation.h"
#include "pm/Pass.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

using namespace dae;
using namespace dae::ir;

namespace {

/// A task with one counted loop and one load (enough for every analysis).
struct LoopFixture {
  Module M;
  Function *F;

  LoopFixture() {
    auto *G = M.createGlobal("g", 8192);
    F = M.createFunction("f", Type::Void, {Type::Int64});
    F->setTask(true);
    IRBuilder B(M, F->createBlock("entry"));
    emitCountedLoop(B, B.getInt(0), F->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
                      Value *P = B.createGep1D(G, I, 8);
                      B.createStore(B.createLoad(Type::Int64, P), P);
                    });
    B.createRet();
  }
};

/// Counts how often it computes, for cache assertions.
struct CountingAnalysis {
  struct Result {
    unsigned Serial = 0;
  };
  static inline pm::AnalysisKey Key;
  static const char *name() { return "counting"; }
  static std::vector<const pm::AnalysisKey *> dependencies() { return {}; }
  static inline unsigned Computes = 0;
  static Result run(Function &, pm::FunctionAnalysisManager &) {
    return Result{++Computes};
  }
};

/// Pass that touches nothing and says so.
struct NoOpPass : pm::FunctionPass {
  const char *name() const override { return "noop"; }
  pm::PreservedAnalyses run(Function &,
                            pm::FunctionAnalysisManager &) override {
    return pm::PreservedAnalyses::all();
  }
};

/// Pass that claims to have changed the function (preserving nothing).
struct ClobberPass : pm::FunctionPass {
  const char *name() const override { return "clobber"; }
  pm::PreservedAnalyses run(Function &,
                            pm::FunctionAnalysisManager &) override {
    return pm::PreservedAnalyses::none();
  }
};

/// Claims change forever: exercises the fixpoint iteration cap.
struct NeverConvergesPass : pm::FunctionPass {
  const char *name() const override { return "neverconverges"; }
  pm::PreservedAnalyses run(Function &,
                            pm::FunctionAnalysisManager &) override {
    return pm::PreservedAnalyses::none();
  }
};

TEST(AnalysisManagerTest, SecondQueryHitsTheCache) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  CountingAnalysis::Computes = 0;
  auto &R1 = FAM.getResult<CountingAnalysis>(*Fx.F);
  auto &R2 = FAM.getResult<CountingAnalysis>(*Fx.F);
  EXPECT_EQ(CountingAnalysis::Computes, 1u);
  EXPECT_EQ(&R1, &R2) << "cached result must be returned by reference";

  // Real analyses cache the same way.
  auto &LI1 = FAM.getResult<pm::LoopAnalysis>(*Fx.F);
  auto &LI2 = FAM.getResult<pm::LoopAnalysis>(*Fx.F);
  EXPECT_EQ(&LI1, &LI2);
  EXPECT_EQ(LI1.loops().size(), 1u);
}

TEST(AnalysisManagerTest, CachesPerFunction) {
  LoopFixture Fx1, Fx2;
  pm::FunctionAnalysisManager FAM;
  CountingAnalysis::Computes = 0;
  FAM.getResult<CountingAnalysis>(*Fx1.F);
  FAM.getResult<CountingAnalysis>(*Fx2.F);
  EXPECT_EQ(CountingAnalysis::Computes, 2u);
  FAM.getResult<CountingAnalysis>(*Fx1.F);
  EXPECT_EQ(CountingAnalysis::Computes, 2u);
}

TEST(AnalysisManagerTest, MutatingPassForcesRecompute) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  CountingAnalysis::Computes = 0;
  unsigned First = FAM.getResult<CountingAnalysis>(*Fx.F).Serial;

  pm::PassManager PM("test");
  PM.add<ClobberPass>();
  pm::PreservedAnalyses PA = PM.run(*Fx.F, FAM);
  EXPECT_FALSE(PA.areAllPreserved());

  unsigned Second = FAM.getResult<CountingAnalysis>(*Fx.F).Serial;
  EXPECT_EQ(CountingAnalysis::Computes, 2u);
  EXPECT_NE(First, Second);
}

TEST(AnalysisManagerTest, NoOpPassKeepsCachedLoopInfoPointerIdentical) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  analysis::LoopInfo *Before = &FAM.getResult<pm::LoopAnalysis>(*Fx.F);

  pm::PassManager PM("test");
  PM.add<NoOpPass>();
  pm::PreservedAnalyses PA = PM.run(*Fx.F, FAM);
  EXPECT_TRUE(PA.areAllPreserved());

  analysis::LoopInfo *After = &FAM.getResult<pm::LoopAnalysis>(*Fx.F);
  EXPECT_EQ(Before, After);
}

TEST(AnalysisManagerTest, SelectivePreservationKeepsOnlyTheClaimed) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  CountingAnalysis::Computes = 0;
  FAM.getResult<CountingAnalysis>(*Fx.F);
  analysis::LoopInfo *LI = &FAM.getResult<pm::LoopAnalysis>(*Fx.F);

  pm::PreservedAnalyses PA = pm::PreservedAnalyses::none();
  PA.preserve<pm::LoopAnalysis>();
  FAM.invalidate(*Fx.F, PA);

  EXPECT_EQ(&FAM.getResult<pm::LoopAnalysis>(*Fx.F), LI);
  FAM.getResult<CountingAnalysis>(*Fx.F);
  EXPECT_EQ(CountingAnalysis::Computes, 2u) << "unclaimed analysis recomputed";
}

TEST(AnalysisManagerTest, InvalidatingLoopInfoCascadesToScalarEvolution) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  analysis::ScalarEvolution *SE =
      &FAM.getResult<pm::ScalarEvolutionAnalysis>(*Fx.F);
  EXPECT_EQ(&SE->getLoopInfo(), FAM.getCachedResult<pm::LoopAnalysis>(*Fx.F))
      << "cached SE must reference the cached LoopInfo";

  // Preserve ScalarEvolution but not LoopInfo: the dependency edge must
  // drop SE anyway, or it would dangle.
  pm::PreservedAnalyses PA = pm::PreservedAnalyses::none();
  PA.preserve<pm::ScalarEvolutionAnalysis>();
  FAM.invalidate(*Fx.F, PA);
  EXPECT_EQ(FAM.getCachedResult<pm::ScalarEvolutionAnalysis>(*Fx.F), nullptr);
  EXPECT_EQ(FAM.getCachedResult<pm::LoopAnalysis>(*Fx.F), nullptr);
}

TEST(PassManagerTest, FixpointTerminatesOnRealCleanup) {
  Module M;
  auto *G = M.createGlobal("g", 8192);
  Function *F = M.createFunction("f", Type::Void, {Type::Int64});
  IRBuilder B(M, F->createBlock("entry"));
  // Foldable chain: the first sweep folds, the second sweep proves quiet.
  Value *Dead = B.createAdd(B.getInt(2), B.getInt(3));
  Value *Folded = B.createMul(Dead, B.getInt(1));
  B.createStore(Folded, B.createGep1D(G, B.getInt(0), 8));
  B.createRet();

  pm::FunctionAnalysisManager FAM;
  auto Pipeline = passes::buildO3Pipeline();
  Pipeline->run(*F, FAM);
  EXPECT_TRUE(verifyFunction(*F).empty());

  // Running the (idempotent) pipeline again changes nothing.
  pm::PreservedAnalyses PA = Pipeline->run(*F, FAM);
  EXPECT_TRUE(PA.areAllPreserved());
}

TEST(PassManagerTest, FixpointIterationCapStopsNonConvergingPipelines) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  pm::FixpointPassManager Fix("spin", /*MaxIterations=*/5);
  Fix.add<NeverConvergesPass>();
  pm::PreservedAnalyses PA = Fix.run(*Fx.F, FAM);
  EXPECT_FALSE(PA.areAllPreserved());
  EXPECT_EQ(Fix.lastIterations(), 5u);
}

TEST(PassManagerTest, FixpointStopsAfterOneCleanSweep) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  pm::FixpointPassManager Fix("clean");
  Fix.add<NoOpPass>();
  Fix.run(*Fx.F, FAM);
  EXPECT_EQ(Fix.lastIterations(), 1u);
}

TEST(PassManagerDeathTest, MalformedPipelineEnvFlagsExit2) {
  // Only "0" and "1" are valid. A first-character parse read "true" and
  // "yes" as off and "10" and "1x" as on, all silently.
  // pm::config() parses once per process: re-exec each child so it starts
  // from an unparsed configuration.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char *Var : {"DAECC_VERIFY_EACH", "DAECC_PRINT_AFTER_ALL"})
    for (const char *Bad : {"true", "yes", "10", "1x"}) {
      EXPECT_EXIT(
          {
            setenv(Var, Bad, 1);
            pm::config();
          },
          ::testing::ExitedWithCode(2),
          std::string("invalid ") + Var + " value")
          << Var << "=" << Bad;
    }
}

} // namespace
