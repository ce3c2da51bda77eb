//===- tests/pm/PassManagerTest.cpp - Pass/analysis manager tests ----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The pass/analysis manager contract: analysis results are cached per
// (function, analysis); a pass that reports a change drops the function's
// cache and forces recomputation, also when it runs inside a nested
// pipeline, so a recomputed ScalarEvolution references the current LoopInfo;
// a no-op pass keeps cached results pointer-identical; and fixpoint
// pipelines terminate — both by reaching a steady state and by the
// iteration cap.
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

#include <cstdint>
#include <cstdlib>
#include <memory>

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
  static inline unsigned Computes = 0;
  static Result run(Function &, pm::FunctionAnalysisManager &) {
    return Result{++Computes};
  }
};

/// Pass that touches nothing and says so.
struct NoOpPass : pm::FunctionPass {
  const char *name() const override { return "noop"; }
  bool run(Function &, pm::FunctionAnalysisManager &) override {
    return false;
  }
};

/// Pass that claims to have changed the function.
struct ClobberPass : pm::FunctionPass {
  const char *name() const override { return "clobber"; }
  bool run(Function &, pm::FunctionAnalysisManager &) override {
    return true;
  }
};

/// Claims change forever: exercises the fixpoint iteration cap.
struct NeverConvergesPass : pm::FunctionPass {
  const char *name() const override { return "neverconverges"; }
  bool run(Function &, pm::FunctionAnalysisManager &) override {
    return true;
  }
};

/// Claims a change on its first run only, so a fixpoint around it converges.
struct ChangesOncePass : pm::FunctionPass {
  bool Ran = false;
  const char *name() const override { return "changesonce"; }
  bool run(Function &, pm::FunctionAnalysisManager &) override {
    bool Changed = !Ran;
    Ran = true;
    return Changed;
  }
};

/// Reads ScalarEvolution and keeps the result it was handed.
struct ReadsScalarEvolutionPass : pm::FunctionPass {
  analysis::ScalarEvolution *Seen = nullptr;
  const char *name() const override { return "readsse"; }
  bool run(Function &F, pm::FunctionAnalysisManager &FAM) override {
    Seen = &FAM.getResult<pm::ScalarEvolutionAnalysis>(F);
    return false;
  }
};

/// Times \p Name ran since the last PipelineStats reset.
std::uint64_t passRuns(const char *Name) {
  return pm::PipelineStats::get().passes().at(Name).Runs;
}

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
  EXPECT_TRUE(PM.run(*Fx.F, FAM));

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
  EXPECT_FALSE(PM.run(*Fx.F, FAM));

  analysis::LoopInfo *After = &FAM.getResult<pm::LoopAnalysis>(*Fx.F);
  EXPECT_EQ(Before, After);
}

TEST(PassManagerTest, ChangeInNestedFixpointRecomputesScalarEvolution) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  pm::PipelineStats::get().reset();
  FAM.getResult<pm::ScalarEvolutionAnalysis>(*Fx.F);

  // The nested fixpoint changes F in its first sweep and caches a fresh SE
  // after the change; its second sweep is clean. The outer manager counts
  // the whole fixpoint as one changing pass, so the later reader must get
  // yet another SE, built on the LoopInfo the cache now holds.
  auto Fix = std::make_unique<pm::FixpointPassManager>("inner");
  Fix->add<ChangesOncePass>();
  Fix->add<ReadsScalarEvolutionPass>();
  auto Reader = std::make_unique<ReadsScalarEvolutionPass>();
  ReadsScalarEvolutionPass *Later = Reader.get();
  pm::PassManager PM("outer");
  PM.addPass(std::move(Fix));
  PM.addPass(std::move(Reader));
  EXPECT_TRUE(PM.run(*Fx.F, FAM));

  EXPECT_EQ(passRuns("changesonce"), 2u);
  EXPECT_EQ(
      pm::PipelineStats::get().analyses().at("scalarevolution").Computes, 3u)
      << "SE computed before the run, after the change, and after the "
         "nested pipeline";
  ASSERT_NE(Later->Seen, nullptr);
  EXPECT_EQ(&Later->Seen->getLoopInfo(),
            &FAM.getResult<pm::LoopAnalysis>(*Fx.F))
      << "the recomputed SE must reference the cached LoopInfo";
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
  EXPECT_FALSE(Pipeline->run(*F, FAM));
}

TEST(PassManagerTest, FixpointIterationCapStopsNonConvergingPipelines) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  pm::PipelineStats::get().reset();
  pm::FixpointPassManager Fix("spin", /*MaxIterations=*/5);
  Fix.add<NeverConvergesPass>();
  EXPECT_TRUE(Fix.run(*Fx.F, FAM));
  EXPECT_EQ(passRuns("neverconverges"), 5u);
}

TEST(PassManagerTest, FixpointStopsAfterOneCleanSweep) {
  LoopFixture Fx;
  pm::FunctionAnalysisManager FAM;
  pm::PipelineStats::get().reset();
  pm::FixpointPassManager Fix("clean");
  Fix.add<NoOpPass>();
  EXPECT_FALSE(Fix.run(*Fx.F, FAM));
  EXPECT_EQ(passRuns("noop"), 1u);
}

TEST(PassManagerDeathTest, MalformedPipelineEnvFlagsExit2) {
  // Only "0" and "1" are valid. A first-character parse read "true" and
  // "yes" as off and "10" and "1x" as on, all silently.
  // pm::config() parses once per process: re-exec each child so it starts
  // from an unparsed configuration.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  for (const char *Bad : {"true", "yes", "10", "1x"})
    EXPECT_EXIT(
        {
          setenv("DAECC_VERIFY_EACH", Bad, 1);
          pm::config();
        },
        ::testing::ExitedWithCode(2), "invalid DAECC_VERIFY_EACH value")
        << "DAECC_VERIFY_EACH=" << Bad;
}

} // namespace
