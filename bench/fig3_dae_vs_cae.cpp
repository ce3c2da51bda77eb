//===- bench/fig3_dae_vs_cae.cpp - Reproduces the paper's evaluation -------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates every table and figure of the paper's evaluation from one
/// suite run: the seven applications under CAE, Manual DAE and Auto DAE,
/// each simulated once and priced by harness::paperFigures. Sections, in
/// print order:
///  * Figure 3: execution time (a), energy (b), and EDP (c), normalized to
///    coupled execution (CAE) at maximum frequency, for five configurations
///    — CAE with the Optimal-f policy, Manual DAE and Compiler (Auto) DAE
///    each with Min/Max-f and Optimal-f — per application plus the
///    geometric mean, at the 500 ns DVFS transition latency of current
///    hardware, then at section 6.1's 0 ns "ideal future hardware".
///  * Table 1: per application, the loops handled with the polyhedral
///    approach out of the total target loops, the number of dynamic tasks,
///    the average fraction of execution time spent in the access phase
///    (TA%), and the average access-phase duration (TA usec).
///  * Figure 4: for the three case studies (Cholesky — polyhedral access;
///    FFT and LibQ — skeleton access), the runtime and energy of CAE, Manual
///    DAE, and Auto DAE as a function of the execute frequency (fmin ->
///    fmax, access pinned at fmin), broken into the paper's Prefetch /
///    O.S.I. / Task buckets.
///  * The DVFS transition-latency sweep from 0 ns to 4 us: geomean EDP of
///    Manual and Auto DAE under the Optimal-EDP policy. Section 6.1 studies
///    the 0 ns vs 500 ns pair; the sweep shows where per-task DVFS stops
///    paying (transitions eat the 5-100 us task phases of section 3.1).
///
/// Paper headlines to match in shape:
///  * Auto DAE Optimal-f improves EDP by ~25% geomean (500 ns), ~29% (0 ns);
///    Manual DAE ~23% / ~25% — Auto beats Manual by a few points.
///  * DAE preserves performance (<~5% time penalty at 500 ns); CAE Optimal-f
///    saves energy but pays time.
///  * Memory-bound apps (LibQ, Cigar) gain the most EDP (up to ~50%).
///  * LBM: coupled execution's EDP gain exceeds the decoupled one.
///  * Table 1: LU 3/3, Cholesky 3/3, FFT 0/6, LBM 0/1, LibQ 0/6, Cigar 0/1,
///    CG 0/2; TA% small for compute-bound, large (~40-50%) for memory-bound;
///    TA in the 1-100 usec DVFS-friendly range (section 3.1).
///  * Figure 4 (section 6.2): on Cholesky/FFT, Auto DAE's Prefetch bar is
///    taller than Manual's, but total time is competitive and energy is
///    lower at high execute frequencies; on LibQ, Manual's line-granular
///    access is faster and Auto's execute slightly shorter; CAE has no
///    Prefetch bucket and its Task bucket grows as f drops.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "harness/Harness.h"
#include "support/MathUtil.h"

#include <algorithm>
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

void printFig3(const PaperFigures &Figs) {
  for (double Latency : {500.0, 0.0}) {
    std::printf("\n================ transition latency: %.0f ns "
                "================\n",
                Latency);
    const std::vector<Fig3Row> &Rows =
        Latency == 500.0 ? Figs.Fig3At500 : Figs.Fig3At0;
    printPanel("a: Time", Rows, 0);
    printPanel("b: Energy", Rows, 1);
    printPanel("c: EDP", Rows, 2);

    const LatencyPoint &P = *std::find_if(
        Figs.Latency.begin(), Figs.Latency.end(),
        [Latency](const LatencyPoint &P) { return P.Ns == Latency; });
    std::printf("\nEDP improvement (Optimal-f, geomean): Manual DAE %.1f%%, "
                "Auto DAE %.1f%%\n",
                (1.0 - P.ManualOptEdp) * 100.0, (1.0 - P.AutoOptEdp) * 100.0);
  }
  std::printf("\n(paper: 500 ns -> Manual 23%%, Auto 25%%; 0 ns -> Manual "
              "25%%, Auto 29%%)\n");
}

void printTable1(const PaperFigures &Figs,
                 const std::vector<AppResult> &Results) {
  std::printf("\nTable 1: Application characteristics (reproduction)\n");
  std::printf("%-10s %14s %10s %8s %10s   %s\n", "App",
              "affine/total", "#tasks", "TA%", "TA(usec)", "strategy");
  printRule();
  for (std::size_t I = 0; I != Results.size(); ++I) {
    const Table1Row &Row = Figs.Table1[I];
    const AppResult &R = Results[I];
    const char *Strategy =
        R.Generation.empty()
            ? "none"
            : analysis::taskClassName(R.Generation.front().Strategy);
    std::printf("%-10s %8u/%-5u %10zu %8.2f %10.2f   %s%s\n",
                Row.Name.c_str(), Row.AffineLoops, Row.TotalLoops,
                Row.NumTasks, Row.AccessTimePercent, Row.AccessTimeUs,
                Strategy, R.OutputsMatch ? "" : "  [OUTPUT MISMATCH!]");
  }
  printRule();
  std::printf("(paper: LU 3/3 1.83%% 6.82us | Chol 3/3 1.80%% 6.05us | "
              "FFT 0/6 19.24%% 30.74us |\n LBM 0/1 47.95%% 7.90us | "
              "LibQ 0/6 47.01%% 2.64us | Cigar 0/1 49.27%% 5.11us | "
              "CG 0/2 42.84%% 2.89us)\n");
}

void printFig4(const PaperFigures &Figs) {
  std::printf("\nFigure 4: per-frequency runtime & energy profiles "
              "(access at fmin; execute swept fmin->fmax; 500 ns "
              "transitions)\n");
  for (const Fig4Series &S : Figs.Fig4) {
    const char *Label = S.Which == Scheme::Cae      ? "CAE"
                        : S.Which == Scheme::Manual ? "Manual DAE"
                                                    : "Auto DAE";
    std::printf("\n%s / %s\n", S.App.c_str(), Label);
    std::printf("%8s %12s %12s %12s | %12s %12s %12s\n", "f(GHz)",
                "Prefetch(ms)", "OSI(ms)", "Task(ms)", "Prefetch(J)",
                "OSI(J)", "Task(J)");
    printRule(92);
    for (const Fig4Point &P : S.Points)
      std::printf("%8.1f %12.3f %12.3f %12.3f | %12.4f %12.4f %12.4f\n",
                  P.FreqGHz, P.PrefetchSec * 1e3, P.OsiSec * 1e3,
                  P.TaskSec * 1e3, P.PrefetchJ, P.OsiJ, P.TaskJ);
  }
}

void printLatencySweep(const PaperFigures &Figs) {
  std::printf("\nDVFS transition latency sweep (Optimal-EDP policy, geomean "
              "over all 7 apps)\n");
  std::printf("%12s %16s %16s %14s\n", "latency(ns)", "ManualDAE EDP",
              "AutoDAE EDP", "Auto time/CAE");
  printRule(64);
  for (const LatencyPoint &P : Figs.Latency)
    std::printf("%12.0f %16.3f %16.3f %14.3f\n", P.Ns, P.ManualOptEdp,
                P.AutoOptEdp, P.AutoOptTime);
  printRule(64);
  std::printf("(paper: 0 ns -> Auto 29%% better EDP; 500 ns -> 25%%, with "
              "~4%% time penalty)\n");
}

} // namespace

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(
      Argc, Argv,
      BenchOptions::DaeVerifyOption | BenchOptions::DaeProfileGuidedOption);
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

  SuiteConfig SC;
  SC.Jobs = Jobs;
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

  PaperFigures Figs = paperFigures(Results, Cfg);
  printFig3(Figs);
  printTable1(Figs, Results);
  printFig4(Figs);
  printLatencySweep(Figs);
  Throughput.report();
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
