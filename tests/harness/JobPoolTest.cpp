//===- tests/harness/JobPoolTest.cpp - Suite job pool tests -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/JobPool.h"

#include <gtest/gtest.h>

#include <atomic>

using namespace dae::harness;

namespace {

TEST(JobPoolTest, RunsSubmittedJobsToCompletion) {
  JobPool Pool(2);
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

} // namespace
