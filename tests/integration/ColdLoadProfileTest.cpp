//===- tests/integration/ColdLoadProfileTest.cpp - Cold-set goldens -------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Pins harness::profileColdLoads' result for every workload at test scale
// and the default 0.02 miss-rate threshold: the set's size plus an FNV-1a
// hash of its sorted (function name, instruction ordinal) pairs. The cold
// set steers the skeleton generator's prune-cold-prefetches rule, so any
// change to how loads are profiled — which cache model sees them, in which
// order, keyed by which instruction — shows up here. The profile must not
// depend on the configured execution backend either.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace dae;

namespace {

struct ColdGolden {
  const char *Name;
  std::size_t Size;
  std::uint64_t Hash;
};

std::uint64_t fnv1a(const void *Data, std::size_t Len, std::uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (std::size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

/// Hashes \p Cold as sorted (function name, ordinal) pairs, where the ordinal
/// numbers a function's instructions in block order from 0.
std::uint64_t hashColdSet(const ir::Module &M,
                          const std::set<const ir::Instruction *> &Cold) {
  std::vector<std::pair<std::string, std::uint64_t>> Sites;
  for (const auto &F : M.functions()) {
    std::uint64_t Ordinal = 0;
    for (const auto &BB : *F)
      for (const auto &I : *BB) {
        if (Cold.count(I.get()))
          Sites.emplace_back(F->getName(), Ordinal);
        ++Ordinal;
      }
  }
  EXPECT_EQ(Sites.size(), Cold.size()) << "cold load outside the module";
  std::sort(Sites.begin(), Sites.end());
  std::uint64_t H = 1469598103934665603ull;
  for (const auto &[Name, Ordinal] : Sites) {
    H = fnv1a(Name.data(), Name.size() + 1, H); // NUL-terminated name
    H = fnv1a(&Ordinal, sizeof Ordinal, H);
  }
  return H;
}

void PrintTo(const ColdGolden &G, std::ostream *OS) { *OS << G.Name; }

class ColdLoadProfileTest : public ::testing::TestWithParam<ColdGolden> {};

TEST_P(ColdLoadProfileTest, MatchesGolden) {
  const ColdGolden &G = GetParam();
  for (sim::SimBackend B : {sim::SimBackend::Switch, sim::SimBackend::Threaded,
                            sim::SimBackend::Native}) {
    SCOPED_TRACE(sim::simBackendName(B));
    auto W = workloads::buildByName(G.Name, workloads::Scale::Test);
    ASSERT_TRUE(W);
    sim::MachineConfig Cfg;
    Cfg.Backend = B;
    auto Cold = harness::profileColdLoads(*W, Cfg);
    EXPECT_EQ(Cold.size(), G.Size);
    std::uint64_t Hash = hashColdSet(*W->M, Cold);
    EXPECT_EQ(Hash, G.Hash) << std::hex << "0x" << Hash;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ColdLoadProfileTest,
    ::testing::Values(ColdGolden{"lu", 13, 0xa90a679680122508ull},
                      ColdGolden{"cholesky", 10, 0x00a65af44268e5c4ull},
                      ColdGolden{"fft", 8, 0xc80c5ca029c05329ull},
                      ColdGolden{"lbm", 0, 0x14650fb0739d0383ull},
                      ColdGolden{"libq", 3, 0xc21d06fb1f117fdbull},
                      ColdGolden{"cigar", 2, 0x7ea9ddb84ed6e553ull},
                      ColdGolden{"cg", 3, 0x8f26a8dbb201af78ull}),
    [](const ::testing::TestParamInfo<ColdGolden> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
