//===- bench/fig4_profiles.cpp - Reproduces Figure 4 -----------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Figure 4 of the paper: for the three case studies (Cholesky —
/// polyhedral access; FFT and LibQ — skeleton access), the runtime and
/// energy profiles of CAE, Manual DAE, and Auto DAE as a function of the
/// execute frequency (fmin -> fmax, access pinned at fmin), broken into the
/// paper's Prefetch / O.S.I. / Task buckets.
///
/// Shapes to match (section 6.2):
///  * Cholesky/FFT: Auto DAE's access (Prefetch) bar is taller than Manual's
///    (it prefetches more data), but total time is competitive and energy
///    is lower at high execute frequencies.
///  * LibQ: Manual's line-granular access is faster; Auto's execute is
///    slightly shorter; similar EDP.
///  * CAE has no Prefetch bucket and its Task bucket grows as f drops.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace dae;
using namespace dae::bench;
using namespace dae::harness;

namespace {

void printSeries(const char *App, const char *SchemeName,
                 const std::vector<Fig4Point> &Series) {
  std::printf("\n%s / %s\n", App, SchemeName);
  std::printf("%8s %12s %12s %12s | %12s %12s %12s\n", "f(GHz)",
              "Prefetch(ms)", "OSI(ms)", "Task(ms)", "Prefetch(J)", "OSI(J)",
              "Task(J)");
  printRule(92);
  for (const Fig4Point &P : Series)
    std::printf("%8.1f %12.3f %12.3f %12.3f | %12.4f %12.4f %12.4f\n",
                P.FreqGHz, P.PrefetchSec * 1e3, P.OsiSec * 1e3,
                P.TaskSec * 1e3, P.PrefetchJ, P.OsiJ, P.TaskJ);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  workloads::Scale S = Opts.Scale;
  sim::MachineConfig Cfg = Opts.machineConfig();
  unsigned Jobs = Opts.Jobs;
  const bool PassStats = Opts.PassStats;

  std::printf("Figure 4: per-frequency runtime & energy profiles "
              "(access at fmin; execute swept fmin->fmax; 500 ns "
              "transitions)\n");

  std::vector<std::unique_ptr<workloads::Workload>> Workloads;
  std::vector<SuiteItem> Items;
  for (const char *Name : {"cholesky", "fft", "libq"}) {
    Workloads.push_back(workloads::buildByName(Name, S));
    Items.push_back({Workloads.back().get(), nullptr});
  }

  GenerationMemo Memo;
  SuiteConfig SC;
  SC.Jobs = Jobs;
  SC.Memo = &Memo;
  SC.DaeVerify = Opts.DaeVerify;

  ThroughputReporter Throughput("fig4_profiles", Jobs);
  Throughput.setBackend(Cfg.Backend);
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
    for (auto [Which, Label] :
         {std::pair{Scheme::Cae, "CAE"}, std::pair{Scheme::Manual,
                                                   "Manual DAE"},
          std::pair{Scheme::Auto, "Auto DAE"}}) {
      auto Series = priceFig4(R, Cfg, Which, 500.0);
      printSeries(R.Name.c_str(), Label, Series);
    }
  }
  Throughput.report();
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
