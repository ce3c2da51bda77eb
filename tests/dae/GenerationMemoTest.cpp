//===- tests/dae/GenerationMemoTest.cpp - Memoized generation ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The generation memo's contract: identical (task, options) pairs return the
// cached access phase; flipping a knob the generation consulted regenerates;
// flipping a knob the GenerationTrace proved irrelevant still hits. Each
// sweep uses a freshly built workload instance, exactly like the ablation
// drivers the memo exists for.
//
//===----------------------------------------------------------------------===//

#include "dae/GenerationMemo.h"
#include "ir/Printer.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

using namespace dae;

namespace {

std::vector<AccessPhaseResult> genAll(GenerationMemo &Memo,
                                      workloads::Workload &W,
                                      const DaeOptions &Opts) {
  std::vector<AccessPhaseResult> Rs;
  for (ir::Function *F : W.taskFunctions())
    Rs.push_back(Memo.generate(*W.M, *F, Opts));
  return Rs;
}

TEST(GenerationMemoTest, IdenticalOptionsHitTheCache) {
  GenerationMemo Memo;
  auto W1 = workloads::buildLu(workloads::Scale::Test);
  std::vector<AccessPhaseResult> R1 = genAll(Memo, *W1, W1->Opts);
  ASSERT_FALSE(R1.empty());
  GenerationMemo::Stats S1 = Memo.stats();
  EXPECT_EQ(S1.Hits, 0u);
  EXPECT_EQ(S1.Misses, R1.size());

  // A second, structurally identical workload instance with the same options
  // must be served entirely from the cache.
  auto W2 = workloads::buildLu(workloads::Scale::Test);
  std::vector<AccessPhaseResult> R2 = genAll(Memo, *W2, W2->Opts);
  GenerationMemo::Stats S2 = Memo.stats();
  EXPECT_EQ(S2.Hits, R1.size());
  EXPECT_EQ(S2.Misses, R1.size());

  ASSERT_EQ(R1.size(), R2.size());
  for (std::size_t I = 0; I != R1.size(); ++I) {
    ASSERT_TRUE(R1[I].succeeded());
    ASSERT_TRUE(R2[I].succeeded());
    EXPECT_EQ(R1[I].Strategy, R2[I].Strategy);
    EXPECT_EQ(R1[I].NOrig, R2[I].NOrig);
    EXPECT_EQ(R1[I].NConvUn, R2[I].NConvUn);
    EXPECT_EQ(R1[I].NumPrefetchNests, R2[I].NumPrefetchNests);
    EXPECT_EQ(R1[I].NumClasses, R2[I].NumClasses);
    // The transplanted copy must be structurally identical to the original.
    EXPECT_EQ(ir::printFunction(*R1[I].AccessFn),
              ir::printFunction(*R2[I].AccessFn));
  }
}

TEST(GenerationMemoTest, RelevantKnobRegenerates) {
  GenerationMemo Memo;
  auto W1 = workloads::buildLu(workloads::Scale::Test);
  std::size_t NumTasks = genAll(Memo, *W1, W1->Opts).size();

  // LU's tasks are affine; the hull-vs-range choice is consulted on every
  // generation, so flipping it must miss for every task.
  auto W2 = workloads::buildLu(workloads::Scale::Test);
  DaeOptions Range = W2->Opts;
  Range.UseConvexUnion = false;
  std::vector<AccessPhaseResult> R2 = genAll(Memo, *W2, Range);
  GenerationMemo::Stats S = Memo.stats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 2 * NumTasks);
  for (const AccessPhaseResult &R : R2)
    EXPECT_FALSE(R.UsedConvexUnion);
}

TEST(GenerationMemoTest, IrrelevantKnobsStillHit) {
  GenerationMemo Memo;
  auto W1 = workloads::buildLu(workloads::Scale::Test);
  std::size_t NumTasks = genAll(Memo, *W1, W1->Opts).size();

  // Raising the hull-slack threshold accepts exactly the same hulls on LU
  // (the default already accepts all of them), so every task hits.
  auto W2 = workloads::buildLu(workloads::Scale::Test);
  DaeOptions NoGuard = W2->Opts;
  NoGuard.HullSlackThreshold = 1 << 30;
  genAll(Memo, *W2, NoGuard);
  EXPECT_EQ(Memo.stats().Hits, NumTasks);

  // SimplifyCfg belongs to the skeleton path, which never engaged for LU's
  // affine tasks — flipping it is irrelevant too.
  auto W3 = workloads::buildLu(workloads::Scale::Test);
  DaeOptions CfgFlip = W3->Opts;
  CfgFlip.SimplifyCfg = !CfgFlip.SimplifyCfg;
  genAll(Memo, *W3, CfgFlip);
  GenerationMemo::Stats S = Memo.stats();
  EXPECT_EQ(S.Hits, 2 * NumTasks);
  EXPECT_EQ(S.Misses, NumTasks);
}

TEST(GenerationMemoTest, GenerousCapNeverEvicts) {
  // The memo keeps every entry for its lifetime: a second pass over a fresh
  // workload instance hits every task and adds no entries.
  GenerationMemo Memo;
  auto W1 = workloads::buildLu(workloads::Scale::Test);
  std::size_t NumTasks = genAll(Memo, *W1, W1->Opts).size();
  auto W2 = workloads::buildLu(workloads::Scale::Test);
  genAll(Memo, *W2, W2->Opts);
  GenerationMemo::Stats S = Memo.stats();
  EXPECT_EQ(S.Hits, NumTasks);
  EXPECT_EQ(Memo.entryCount(), NumTasks);
}

TEST(GenerationMemoTest, SkeletonTraceDrivesRelevance) {
  GenerationMemo Memo;
  auto W1 = workloads::buildByName("cg", workloads::Scale::Test);
  std::size_t NumTasks = genAll(Memo, *W1, W1->Opts).size();
  ASSERT_GT(NumTasks, 0u);

  // CG's skeleton rewrites no conditionals, so keeping them changes nothing
  // and the memo proves it: SimplifyCfg=false hits.
  auto W2 = workloads::buildByName("cg", workloads::Scale::Test);
  DaeOptions KeepCond = W2->Opts;
  KeepCond.SimplifyCfg = false;
  genAll(Memo, *W2, KeepCond);
  EXPECT_EQ(Memo.stats().Hits, NumTasks);

  // The task does store (y[] is written), so PrefetchWrites is consulted
  // and flipping it must regenerate.
  auto W3 = workloads::buildByName("cg", workloads::Scale::Test);
  DaeOptions Writes = W3->Opts;
  Writes.PrefetchWrites = true;
  genAll(Memo, *W3, Writes);
  GenerationMemo::Stats S = Memo.stats();
  EXPECT_EQ(S.Hits, NumTasks);
  EXPECT_EQ(S.Misses, 2 * NumTasks);
}

} // namespace
