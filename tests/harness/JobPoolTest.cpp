//===- tests/harness/JobPoolTest.cpp - Suite job pool tests -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/JobPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>

using namespace dae::harness;

namespace {

TEST(JobPoolTest, EffectiveSimThreadsSplitsBudget) {
  // 16 host threads over 4 jobs: 4 threads each, clamped by the request.
  EXPECT_EQ(JobPool::effectiveSimThreads(4, 8, 16), 4u);
  EXPECT_EQ(JobPool::effectiveSimThreads(4, 2, 16), 2u);
  // Single job passes the request through untouched.
  EXPECT_EQ(JobPool::effectiveSimThreads(1, 8, 2), 8u);
}

TEST(JobPoolTest, EffectiveSimThreadsSurvivesZeroBudget) {
  // hardware_concurrency() may report 0 ("not computable"): the clamp must
  // neither divide by zero nor hand out a zero allowance.
  EXPECT_EQ(JobPool::effectiveSimThreads(4, 8, 0), 1u);
  EXPECT_EQ(JobPool::effectiveSimThreads(1, 8, 0), 8u);
  // Degenerate inputs are pinned to at least one job / one thread.
  EXPECT_EQ(JobPool::effectiveSimThreads(0, 0, 0), 1u);
  EXPECT_GE(JobPool::effectiveSimThreads(8, 4, 2), 1u);
}

TEST(JobPoolTest, HostThreadBudgetIsNeverZero) {
  EXPECT_GE(JobPool::hostThreadBudget(), 1u);
}

TEST(JobPoolTest, RunsSubmittedJobsToCompletion) {
  JobPool Pool(2, 1);
  std::atomic<int> Count{0};
  for (int I = 0; I != 32; ++I)
    Pool.submit([&Count] { ++Count; });
  Pool.wait();
  EXPECT_EQ(Count.load(), 32);
  // Nested submission (a job fanning out more jobs) also drains.
  Pool.submit([&] {
    for (int I = 0; I != 4; ++I)
      Pool.submit([&Count] { ++Count; });
  });
  Pool.wait();
  EXPECT_EQ(Count.load(), 36);
}

TEST(JobPoolTest, HostThreadBudgetHonorsValidEnv) {
  setenv("DAECC_HOST_THREADS", "3", 1);
  EXPECT_EQ(JobPool::hostThreadBudget(), 3u);
  unsetenv("DAECC_HOST_THREADS");
}

TEST(JobPoolDeathTest, GarbageHostThreadsEnvIsAHardError) {
  // atoi used to read DAECC_HOST_THREADS=8x as 8 and =x as 0 — a sweep that
  // typo'd its budget silently ran with a different one. Now it is the same
  // exit-2 contract as every DAECC_* integer knob.
  for (const char *Bad : {"8x", "x", "", "-2", "0"}) {
    EXPECT_EXIT(
        {
          setenv("DAECC_HOST_THREADS", Bad, 1);
          (void)JobPool::hostThreadBudget();
          std::exit(0);
        },
        ::testing::ExitedWithCode(2), "invalid DAECC_HOST_THREADS value")
        << "value: '" << Bad << "'";
  }
  unsetenv("DAECC_HOST_THREADS");
}

} // namespace
