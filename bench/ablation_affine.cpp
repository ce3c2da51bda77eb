//===- bench/ablation_affine.cpp - Section 5.1 design choices ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablates the affine generator's design choices on LU (the paper's running
/// example): convex union vs. the 5.1.1 memory-range analysis, the
/// NconvUn <= NOrig hull guard, parameter-class separation, nest merging,
/// and the 5.2.3 cache-line-granular prefetch extension. For each variant:
/// the scan-set size, access-phase instruction count, and full-run
/// time/EDP under the Optimal-EDP policy. Like every driver it writes
/// BENCH_ablation_affine.json, whose status is "partial" when a variant's
/// schemes disagree on the outputs.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "harness/Harness.h"

#include <cstdio>
#include <memory>
#include <vector>

using namespace dae;
using namespace dae::bench;
using namespace dae::harness;

namespace {

struct Variant {
  const char *Name;
  DaeOptions Opts;
};

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts =
      BenchOptions::parse(Argc, Argv, BenchOptions::NoDriverOptions);
  workloads::Scale S = Opts.Scale;
  sim::MachineConfig Cfg = Opts.machineConfig();
  unsigned Jobs = Opts.Jobs;
  const bool PassStats = Opts.PassStats;

  DaeOptions Base; // Paper defaults.
  DaeOptions Range = Base;
  Range.UseConvexUnion = false;
  DaeOptions NoGuard = Base;
  NoGuard.HullSlackThreshold = 1 << 30;
  DaeOptions NoClasses = Base;
  NoClasses.SplitClasses = false;
  DaeOptions NoMerge = Base;
  NoMerge.MergeLoopNests = false;
  DaeOptions LineGranular = Base;
  LineGranular.PrefetchPerCacheLine = true;

  std::vector<Variant> Variants = {
      {"convex union (paper)", Base},
      {"memory-range 5.1.1", Range},
      {"hull guard off", NoGuard},
      {"class split off", NoClasses},
      {"nest merge off", NoMerge},
      {"per-cache-line 5.2.3", LineGranular},
  };

  // Every variant runs its own LU instance and generates its own phases.
  std::vector<std::unique_ptr<workloads::Workload>> Workloads;
  std::vector<SuiteItem> Items;
  for (Variant &V : Variants) {
    Workloads.push_back(workloads::buildLu(S));
    V.Opts.RepresentativeArgs = Workloads.back()->Opts.RepresentativeArgs;
    Items.push_back({Workloads.back().get(), &V.Opts});
  }

  ThroughputReporter Throughput("ablation_affine", Jobs);
  Throughput.setBackend(Cfg.Backend);
  SuiteConfig SC;
  SC.Jobs = Jobs;
  Throughput.start();
  std::vector<AppResult> Results = runSuite(Items, Cfg, SC);
  Throughput.stop();

  std::printf("Affine-path ablation on LU (Optimal-EDP policy, 500 ns "
              "transitions)\n");
  std::printf("%-24s %10s %10s %12s %10s %10s\n", "variant", "NScan",
              "NOrig", "acc instr", "time/CAE", "EDP/CAE");
  printRule(84);

  for (std::size_t I = 0; I != Variants.size(); ++I) {
    const Variant &V = Variants[I];
    const AppResult &R = Results[I];

    long long NScan = 0, NOrig = 0;
    for (const AccessPhaseResult &G : R.Generation) {
      if (G.NConvUn > 0)
        NScan += G.NConvUn;
      if (G.NOrig > 0)
        NOrig += G.NOrig;
    }
    Throughput.add(R.Cae);
    Throughput.add(R.Manual);
    Throughput.add(R.Auto);
    if (!R.OutputsMatch)
      Throughput.noteFailure();
    runtime::RunReport BaseRep = priceCaeMax(R, Cfg, 500.0);
    runtime::RunReport Rep =
        runtime::evaluate(R.Auto, Cfg, optimalEdpConfig(500.0));

    std::printf("%-24s %10lld %10lld %12llu %10.3f %10.3f%s\n", V.Name,
                NScan, NOrig,
                static_cast<unsigned long long>(
                    R.Auto.totalAccess().Instructions),
                Rep.TimeSec / BaseRep.TimeSec, Rep.EdpJs / BaseRep.EdpJs,
                R.OutputsMatch ? "" : "  [OUTPUT MISMATCH]");
  }
  printRule(84);
  std::printf("(expected: memory-range scans far more than it needs — "
              "Figure 1(b); guard-off may over-prefetch; per-cache-line "
              "shrinks the access instruction count ~8x)\n");
  Throughput.report();
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
