//===- bench/fig3_dae_vs_cae.cpp - Reproduces Figure 3 ---------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 3 of the paper: execution time (a), energy (b), and
/// EDP (c), normalized to coupled execution (CAE) at maximum frequency, for
/// five configurations — CAE with the Optimal-f policy, Manual DAE and
/// Compiler (Auto) DAE each with Min/Max-f and Optimal-f — per application
/// plus the geometric mean, at the 500 ns DVFS transition latency of current
/// hardware. Also prints the 0 ns "ideal future hardware" comparison of
/// section 6.1.
///
/// Paper headlines to match in shape:
///  * Auto DAE Optimal-f improves EDP by ~25% geomean (500 ns), ~29% (0 ns);
///    Manual DAE ~23% / ~25% — Auto beats Manual by a few points.
///  * DAE preserves performance (<~5% time penalty at 500 ns); CAE Optimal-f
///    saves energy but pays time.
///  * Memory-bound apps (LibQ, Cigar) gain the most EDP (up to ~50%).
///  * LBM: coupled execution's EDP gain exceeds the decoupled one.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "support/MathUtil.h"

#include <cstdio>
#include <cstring>
#include <vector>

using namespace dae;
using namespace dae::bench;
using namespace dae::harness;

namespace {

void printPanel(const char *Title, const std::vector<Fig3Row> &Rows,
                int Metric) {
  std::printf("\n(%s) normalized to CAE @ max frequency\n", Title);
  std::printf("%-10s %10s %12s %12s %12s %12s\n", "App", "CAE(Opt)",
              "Man(MinMax)", "Man(Opt)", "Auto(MinMax)", "Auto(Opt)");
  printRule();
  std::vector<double> G[5];
  for (const Fig3Row &R : Rows) {
    std::printf("%-10s %10.3f %12.3f %12.3f %12.3f %12.3f\n", R.Name.c_str(),
                R.CaeOpt[Metric], R.ManualMinMax[Metric], R.ManualOpt[Metric],
                R.AutoMinMax[Metric], R.AutoOpt[Metric]);
    G[0].push_back(R.CaeOpt[Metric]);
    G[1].push_back(R.ManualMinMax[Metric]);
    G[2].push_back(R.ManualOpt[Metric]);
    G[3].push_back(R.AutoMinMax[Metric]);
    G[4].push_back(R.AutoOpt[Metric]);
  }
  printRule();
  std::printf("%-10s %10.3f %12.3f %12.3f %12.3f %12.3f\n", "G.Mean",
              geometricMean(G[0]), geometricMean(G[1]), geometricMean(G[2]),
              geometricMean(G[3]), geometricMean(G[4]));
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  workloads::Scale S = Opts.Scale;
  sim::MachineConfig Cfg = Opts.machineConfig();
  unsigned Jobs = Opts.Jobs;
  const bool PassStats = Opts.PassStats;
  const bool DaeVerify = Opts.DaeVerify;
  const bool DaeProfileGuided = Opts.DaeProfileGuided;

  std::printf("Figure 3: DAE vs regular task execution "
              "(quad-core, 500 ns DVFS transitions)\n");

  ThroughputReporter Throughput("fig3_dae_vs_cae", Jobs);
  Throughput.setBackend(Cfg.Backend);
  auto Workloads = workloads::buildAll(S);
  std::vector<SuiteItem> Items;
  for (auto &W : Workloads)
    Items.push_back({W.get(), nullptr});

  GenerationMemo Memo;
  SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.Memo = &Memo;
  SC.DaeVerify = DaeVerify;
  SC.DaeProfileGuided = DaeProfileGuided;

  Throughput.start();
  std::vector<AppResult> Results = runSuite(Items, Cfg, SC);
  Throughput.stop();
  for (const AppResult &R : Results) {
    if (!R.OutputsMatch) {
      std::printf("WARNING: %s outputs differ across schemes!\n",
                  R.Name.c_str());
      Throughput.noteFailure();
    }
    Throughput.add(R.Cae);
    Throughput.add(R.Manual);
    Throughput.add(R.Auto);
    Throughput.addDaeVerify(R.Name, "manual", R.ManualVerify);
    Throughput.addDaeVerify(R.Name, "auto", R.AutoVerify);
    Throughput.addDaePg(R.Name, R.AutoPg);
  }

  for (double Latency : {500.0, 0.0}) {
    std::printf("\n================ transition latency: %.0f ns "
                "================\n",
                Latency);
    std::vector<Fig3Row> Rows;
    for (const AppResult &R : Results)
      Rows.push_back(priceFig3(R, Cfg, Latency));
    printPanel("a: Time", Rows, 0);
    printPanel("b: Energy", Rows, 1);
    printPanel("c: EDP", Rows, 2);

    std::vector<double> ManOptEdp, AutoOptEdp;
    for (const Fig3Row &R : Rows) {
      ManOptEdp.push_back(R.ManualOpt[2]);
      AutoOptEdp.push_back(R.AutoOpt[2]);
    }
    std::printf("\nEDP improvement (Optimal-f, geomean): Manual DAE %.1f%%, "
                "Auto DAE %.1f%%\n",
                (1.0 - geometricMean(ManOptEdp)) * 100.0,
                (1.0 - geometricMean(AutoOptEdp)) * 100.0);
  }
  std::printf("\n(paper: 500 ns -> Manual 23%%, Auto 25%%; 0 ns -> Manual "
              "25%%, Auto 29%%)\n");
  Throughput.report();
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
