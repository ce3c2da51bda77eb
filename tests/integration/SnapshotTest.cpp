//===- tests/integration/SnapshotTest.cpp - Golden result snapshots --------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Bit-exact golden snapshots of the full pipeline: for every workload at
// test scale, the generated access-phase IR text and the three scheme
// RunProfiles must hash to the pinned values. This pins "a refactor changed
// no generated code and no simulated cycle" as a testable property; any
// intentional change to generation or simulation must update these
// constants (rebuild them by hashing as below and pasting the new values),
// behind the paper-claims gate (tests/claims).
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "ir/Printer.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace dae;

namespace {

std::uint64_t fnv1a(const void *Data, size_t Len, std::uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

std::uint64_t hashU64(std::uint64_t V, std::uint64_t H) {
  return fnv1a(&V, sizeof V, H);
}

std::uint64_t hashDouble(double D, std::uint64_t H) {
  std::uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof Bits);
  return hashU64(Bits, H);
}

std::uint64_t hashStats(const sim::PhaseStats &S, std::uint64_t H) {
  H = hashU64(S.Instructions, H);
  H = hashDouble(S.ComputeCycles, H);
  H = hashDouble(S.StallNs, H);
  H = hashU64(S.Loads, H);
  H = hashU64(S.Stores, H);
  H = hashU64(S.Prefetches, H);
  H = hashU64(S.L1Hits, H);
  H = hashU64(S.L2Hits, H);
  H = hashU64(S.LLCHits, H);
  H = hashU64(S.MemAccesses, H);
  return H;
}

std::uint64_t hashProfile(const runtime::RunProfile &P) {
  std::uint64_t H = 1469598103934665603ull;
  H = hashU64(P.NumCores, H);
  H = hashU64(P.Tasks.size(), H);
  for (const runtime::TaskProfile &T : P.Tasks) {
    H = hashU64(T.Core, H);
    H = hashU64(T.Wave, H);
    H = hashU64(T.HasAccess ? 1 : 0, H);
    H = hashStats(T.Access, H);
    H = hashStats(T.Execute, H);
  }
  return H;
}

/// Strategy ordinal + printed text of every generated access phase, in task
/// order.
std::uint64_t hashGeneratedIr(const harness::AppResult &R) {
  std::uint64_t H = 1469598103934665603ull;
  for (const AccessPhaseResult &G : R.Generation) {
    H = hashU64(static_cast<std::uint64_t>(G.Strategy), H);
    if (G.AccessFn) {
      std::string Text = ir::printFunction(*G.AccessFn);
      H = fnv1a(Text.data(), Text.size(), H);
    }
  }
  return H;
}

struct Golden {
  const char *Name;
  std::uint64_t AccessIr;
  std::uint64_t Cae;
  std::uint64_t Manual;
  std::uint64_t Auto;
};

// Without a printer gtest dumps the struct's bytes, pointer included, into
// the listed (and so ctest's) test name, which then differs on every run.
void PrintTo(const Golden &G, std::ostream *OS) { *OS << G.Name; }

// Default MachineConfig, Scale::Test. The access-IR hashes were captured
// from the seed tree (commit 484aab9) before the pm:: refactor landed. The
// profile hashes were re-recorded once when the backends began counting
// instructions per cost class and the replay (kind, level) events, each
// priced once per phase: every count, hit level and core assignment stayed
// the same, and ComputeCycles and StallNs moved by rounding only (at most
// 1.1e-12 relative).
const Golden Goldens[] = {
    {"lu", 0x138e279c1b49a671ull, 0x7434ce349906dfc9ull,
     0xd0112810e90707ccull, 0xe4f50143915bdc35ull},
    {"cholesky", 0xfaca2f24faa39c44ull, 0xdb73f024b03b37c4ull,
     0x85ab0eedadb246e7ull, 0x442177fd4217c04aull},
    {"fft", 0x76fd5fd3fd4b9d94ull, 0xa375c06280122ec7ull,
     0x6b298ec8899ca17dull, 0xc1c700000571f5feull},
    {"lbm", 0x97ca5b4446082513ull, 0xbac5b0f58a341b3full,
     0x0e588b6cdd750f0bull, 0x9b81633b9bda28aeull},
    {"libq", 0xb9b1bd29e37feaafull, 0x9900d24b20ba206bull,
     0x53f23d1f0d280da3ull, 0x2912d0705e275553ull},
    {"cigar", 0xdc95692b1d412aceull, 0xf79c9e3245879c57ull,
     0x544f15b53bd8d9feull, 0x5fbc7da28517e06bull},
    {"cg", 0x23126e173bbab542ull, 0xfc4a9ef605667303ull,
     0x2828ad61f296afc2ull, 0xd10fac3877c09c4cull},
};

class SnapshotTest : public ::testing::TestWithParam<Golden> {};

TEST_P(SnapshotTest, MatchesPreRefactorPipeline) {
  const Golden &G = GetParam();
  auto W = workloads::buildByName(G.Name, workloads::Scale::Test);
  ASSERT_NE(W, nullptr);
  sim::MachineConfig Cfg;
  harness::AppResult R = harness::runApp(*W, Cfg);
  EXPECT_TRUE(R.OutputsMatch);
  EXPECT_EQ(hashGeneratedIr(R), G.AccessIr) << "generated access-phase IR";
  EXPECT_EQ(hashProfile(R.Cae), G.Cae) << "CAE profile";
  EXPECT_EQ(hashProfile(R.Manual), G.Manual) << "Manual DAE profile";
  EXPECT_EQ(hashProfile(R.Auto), G.Auto) << "Auto DAE profile";
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, SnapshotTest,
                         ::testing::ValuesIn(Goldens),
                         [](const ::testing::TestParamInfo<Golden> &Info) {
                           return std::string(Info.param.Name);
                         });

} // namespace
