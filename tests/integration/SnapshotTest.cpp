//===- tests/integration/SnapshotTest.cpp - Golden result snapshots --------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Bit-exact golden snapshots of the full pipeline: for every workload at
// test scale, the generated access-phase IR text and the three scheme
// RunProfiles must hash to the values captured from the tree before the
// pass/analysis-manager refactor. This pins "the compilation pipeline
// refactor changed no generated code and no simulated cycle" as a testable
// property; any intentional change to generation or simulation must update
// these constants (rebuild them by hashing as below and pasting the new
// values).
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

// Captured from the seed tree (commit 484aab9, default MachineConfig,
// Scale::Test) before the pm:: refactor landed.
const Golden Goldens[] = {
    {"lu", 0x138e279c1b49a671ull, 0xefb666de623da035ull,
     0x108d4f99889b2ef9ull, 0x5873394210259864ull},
    {"cholesky", 0xfaca2f24faa39c44ull, 0x5e3b4f98b3d714e8ull,
     0x20c3e3b7fceb7fa6ull, 0x78df0fa092c6f986ull},
    {"fft", 0x76fd5fd3fd4b9d94ull, 0x11c4d57d5d2824b6ull,
     0xa7ec2a8a9ba62a85ull, 0x70e541f9f8da322full},
    {"lbm", 0x97ca5b4446082513ull, 0x024dd79ce1dee455ull,
     0xc0de6aa7168953fcull, 0x0a493a30f936ee50ull},
    {"libq", 0xb9b1bd29e37feaafull, 0xf032ab375633f9fbull,
     0x5f29b3dc2ef064bfull, 0xc6f447dc75555c2full},
    {"cigar", 0xdc95692b1d412aceull, 0xcaa6d7b8f7a853d7ull,
     0x247fa5f308e9ca40ull, 0xef57fded0ebb6137ull},
    {"cg", 0x23126e173bbab542ull, 0x06b894ac70c8502bull,
     0x124567a04a8c8afeull, 0x92b595c7fae62250ull},
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
