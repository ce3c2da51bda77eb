//===- bench/ablation_skeleton.cpp - Section 5.2 design choices -------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablates the skeleton generator's refinements on the non-affine
/// applications (LBM and LibQ): the Simplified-CFG optimization (section
/// 5.2.2) and the discard-the-stores finding (section 5.2.1, "prefetching
/// the memory addresses accessed for writing does not improve performance").
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"

#include <cstdio>
#include <memory>
#include <set>
#include <vector>

using namespace dae;
using namespace dae::bench;
using namespace dae::harness;

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  workloads::Scale S = Opts.Scale;
  sim::MachineConfig Cfg = Opts.machineConfig();
  unsigned Jobs = Opts.Jobs;
  const bool PassStats = Opts.PassStats;

  struct Variant {
    const char *Name;
    bool SimplifyCfg;
    bool PrefetchWrites;
    bool ProfileGuided = false;
  };
  const Variant Variants[] = {
      {"paper defaults", true, false},
      {"keep conditionals", false, false},
      {"prefetch writes", true, true},
      {"both off-default", false, true},
      {"profile-guided", true, false, true}, // Section 6.2.3's proposal.
  };
  const char *Apps[] = {"lbm", "libq", "cg"};

  // All 15 (app x variant) runs go through one suite on the job pool and
  // share one generation memo: only the knobs a variant actually flips for
  // a given task force regeneration (e.g. PrefetchWrites is irrelevant for
  // store-free tasks). The profile-guided cold-load sets are measured
  // sequentially up front — they are an input to generation, not suite work.
  struct Item {
    std::unique_ptr<workloads::Workload> W;
    DaeOptions Opts;
    std::set<const ir::Instruction *> Cold;
  };
  std::vector<std::unique_ptr<Item>> OwnedItems;
  std::vector<SuiteItem> Suite;
  for (const char *App : Apps) {
    for (const Variant &V : Variants) {
      auto It = std::make_unique<Item>();
      It->W = workloads::buildByName(App, S);
      It->Opts = It->W->Opts;
      It->Opts.SimplifyCfg = V.SimplifyCfg;
      It->Opts.PrefetchWrites = V.PrefetchWrites;
      if (V.ProfileGuided) {
        It->Cold = profileColdLoads(*It->W, Cfg);
        It->Opts.ColdLoads = &It->Cold;
      }
      Suite.push_back({It->W.get(), &It->Opts});
      OwnedItems.push_back(std::move(It));
    }
  }

  GenerationMemo Memo;
  SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.Memo = &Memo;
  std::vector<AppResult> Results = runSuite(Suite, Cfg, SC);

  std::size_t Next = 0;
  for (const char *App : Apps) {
    std::printf("\nSkeleton-path ablation on %s (Optimal-EDP, 500 ns)\n",
                App);
    std::printf("%-20s %12s %12s %10s %10s\n", "variant", "acc instr",
                "acc pf", "time/CAE", "EDP/CAE");
    printRule(70);
    for (const Variant &V : Variants) {
      const AppResult &R = Results[Next++];
      runtime::RunReport Base = priceCaeMax(R, Cfg, 500.0);
      runtime::RunReport Rep =
          runtime::evaluate(R.Auto, Cfg, optimalEdpConfig(500.0));
      auto Acc = R.Auto.totalAccess();
      std::printf("%-20s %12llu %12llu %10.3f %10.3f%s\n", V.Name,
                  static_cast<unsigned long long>(Acc.Instructions),
                  static_cast<unsigned long long>(Acc.Prefetches),
                  Rep.TimeSec / Base.TimeSec, Rep.EdpJs / Base.EdpJs,
                  R.OutputsMatch ? "" : "  [OUTPUT MISMATCH]");
    }
  }
  printRule(70);
  GenerationMemo::Stats MS = Memo.stats();
  std::printf("[memo] generation cache: %llu hits, %llu misses, %llu "
              "uncacheable\n",
              static_cast<unsigned long long>(MS.Hits),
              static_cast<unsigned long long>(MS.Misses),
              static_cast<unsigned long long>(MS.Rejections));
  std::printf("(expected: keeping conditionals replicates computation into "
              "the access phase; prefetching writes adds traffic without "
              "helping — the paper's section 5.2.1 finding)\n");
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
