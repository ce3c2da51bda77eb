//===- bench/ablation_latency.cpp - DVFS transition latency sweep ----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sweeps the DVFS transition latency from the paper's ideal 0 ns to 4 us,
/// reporting the geomean EDP improvement of Manual and Auto DAE under the
/// Optimal-EDP policy. Section 6.1 studies exactly the 0 ns vs 500 ns pair;
/// the sweep shows where per-task DVFS stops paying (transitions eat the
/// 5-100 us task phases of section 3.1).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "support/MathUtil.h"

#include <cstdio>
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

  auto Workloads = workloads::buildAll(S);
  std::vector<SuiteItem> Items;
  for (auto &W : Workloads)
    Items.push_back({W.get(), nullptr});

  GenerationMemo Memo;
  SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.Memo = &Memo;
  std::vector<AppResult> Results = runSuite(Items, Cfg, SC);

  std::printf("DVFS transition latency sweep (Optimal-EDP policy, geomean "
              "over all 7 apps)\n");
  std::printf("%12s %16s %16s %14s\n", "latency(ns)", "ManualDAE EDP",
              "AutoDAE EDP", "Auto time/CAE");
  printRule(64);
  for (double Latency : {0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0}) {
    std::vector<double> Man, Auto, AutoTime;
    for (const AppResult &R : Results) {
      Fig3Row Row = priceFig3(R, Cfg, Latency);
      Man.push_back(Row.ManualOpt[2]);
      Auto.push_back(Row.AutoOpt[2]);
      AutoTime.push_back(Row.AutoOpt[0]);
    }
    std::printf("%12.0f %16.3f %16.3f %14.3f\n", Latency,
                geometricMean(Man), geometricMean(Auto),
                geometricMean(AutoTime));
  }
  printRule(64);
  std::printf("(paper: 0 ns -> Auto 29%% better EDP; 500 ns -> 25%%, with "
              "~4%% time penalty)\n");
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
