//===- bench/table1_characteristics.cpp - Reproduces Table 1 ---------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates Table 1 of the paper: per application, the number of loops
/// handled with the polyhedral approach out of the total target loops, the
/// number of dynamic tasks, the average fraction of execution time spent in
/// the access phase (TA%), and the average access-phase duration (TA usec).
///
/// Paper reference values (Table 1):
///   LU 3/3, Cholesky 3/3, FFT 0/6, LBM 0/1, LibQ 0/6, Cigar 0/1, CG 0/2;
///   TA% ~1.8 for LU/Cholesky, 19.2 FFT, 42-49 for the memory-bound apps;
///   TA 2.6-30.7 usec.
/// Shapes to match: affine-vs-skeleton split; TA% small for compute-bound,
/// large (~40-50%) for memory-bound; TA in the 1-100 usec DVFS-friendly
/// range (section 3.1).
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"

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

  std::printf("Table 1: Application characteristics (reproduction)\n");
  std::printf("%-10s %14s %10s %8s %10s   %s\n", "App",
              "affine/total", "#tasks", "TA%", "TA(usec)", "strategy");
  printRule();

  for (const AppResult &R : Results) {
    const char *Strategy =
        R.Generation.empty()
            ? "none"
            : analysis::taskClassName(R.Generation.front().Strategy);
    std::printf("%-10s %8u/%-5u %10zu %8.2f %10.2f   %s%s\n",
                R.Row.Name.c_str(), R.Row.AffineLoops, R.Row.TotalLoops,
                R.Row.NumTasks, R.Row.AccessTimePercent, R.Row.AccessTimeUs,
                Strategy, R.OutputsMatch ? "" : "  [OUTPUT MISMATCH!]");
  }
  printRule();
  std::printf("(paper: LU 3/3 1.83%% 6.82us | Chol 3/3 1.80%% 6.05us | "
              "FFT 0/6 19.24%% 30.74us |\n LBM 0/1 47.95%% 7.90us | "
              "LibQ 0/6 47.01%% 2.64us | Cigar 0/1 49.27%% 5.11us | "
              "CG 0/2 42.84%% 2.89us)\n");
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
