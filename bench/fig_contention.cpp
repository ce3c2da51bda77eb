//===- bench/fig_contention.cpp - Co-run contention sweep -------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sweeps 1..8-way co-scheduled workload mixes on the shared-LLC /
/// bandwidth-throttled contention timeline and compares, per co-run width,
/// the EDP of the paper's DAE policies (naive min/max split and the
/// per-phase EDP oracle) against reactive cpufreq-style governor baselines
/// (ondemand, conservative) running coupled execution. Everything is
/// normalized to CAE at fmax — the "performance governor" a stock system
/// would run.
///
/// Shapes to expect:
///  * As ways grow, DRAM queuing inflates everyone's makespan, but DAE keeps
///    its EDP edge: access phases tolerate the queue at fmin while execute
///    phases run hot on warmed caches.
///  * Ondemand tracks fmax under load (memory stalls read as idle time, so
///    utilization dips only on the most memory-bound mixes); conservative
///    ramps rung-by-rung and lags phase changes — both trail the per-phase
///    oracle that knows each phase's profile in advance.
///
/// Flags beyond the common set: --cores=N (default 8), --big-little=B,L,
/// --mix=a,b,c (workload names cycled to fill each width; default
/// libq,cigar,cholesky,fft), --governor=ondemand|conservative|both.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"

#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

using namespace dae;
using namespace dae::bench;
using namespace dae::harness;

int main(int Argc, char **Argv) {
  BenchOptions Opts = BenchOptions::parse(Argc, Argv);
  // This bench is about co-run widths: default to an 8-core machine unless
  // the user pinned a topology.
  if (Opts.Cores == 0 && Opts.BigCores + Opts.LittleCores == 0)
    Opts.Cores = 8;
  workloads::Scale S = Opts.Scale;
  sim::MachineConfig Cfg = Opts.machineConfig();
  const bool PassStats = Opts.PassStats;

  std::vector<std::string> MixNames = Opts.Mix;
  if (MixNames.empty())
    MixNames = {"libq", "cigar", "cholesky", "fft"};
  for (const std::string &Name : MixNames)
    if (!workloads::buildByName(Name, S)) {
      std::fprintf(stderr, "fig_contention: unknown workload '%s'\n",
                   Name.c_str());
      return 2;
    }
  std::string MixLabel;
  for (const std::string &Name : MixNames) {
    if (!MixLabel.empty())
      MixLabel += ",";
    MixLabel += Name;
  }

  const bool ShowOndemand = Opts.Governor != "conservative";
  const bool ShowConservative = Opts.Governor != "ondemand";

  std::vector<unsigned> Ways;
  for (unsigned W : {1u, 2u, 4u, 8u})
    if (W <= Cfg.NumCores)
      Ways.push_back(W);

  std::printf("Contention sweep: DAE vs reactive governors under shared-LLC "
              "and DRAM-bandwidth pressure\n");
  std::printf("(machine: %u cores, LLC %llu KiB shared, DRAM %.1f GB/s; mix "
              "cycled from: %s)\n\n",
              Cfg.NumCores,
              static_cast<unsigned long long>(Cfg.LLC.SizeBytes / 1024),
              Cfg.DramBandwidthGBs, MixLabel.c_str());

  ThroughputReporter Throughput("fig_contention", Opts.Jobs);
  Throughput.setBackend(Cfg.Backend);
  GenerationMemo Memo;

  std::printf("%5s %-28s %10s", "ways", "mix", "cae-max");
  if (ShowOndemand)
    std::printf(" %10s", "ondemand");
  if (ShowConservative)
    std::printf(" %10s", "conserv");
  std::printf(" %10s %10s %10s %12s\n", "dae-mm", "dae-oracle", "queue(us)",
              "dram-misses");
  printRule(100);

  Throughput.start();
  for (unsigned W : Ways) {
    // Fresh workload instances per width: runs mutate workload memory.
    std::vector<std::unique_ptr<workloads::Workload>> Owned;
    std::vector<workloads::Workload *> Mix;
    std::string Label;
    for (unsigned I = 0; I < W; ++I) {
      const std::string &Name = MixNames[I % MixNames.size()];
      Owned.push_back(workloads::buildByName(Name, S));
      Mix.push_back(Owned.back().get());
      if (I)
        Label += ",";
      Label += Name;
    }

    MixConfig MC;
    MC.Jobs = Opts.Jobs;
    MC.Memo = &Memo;
    MC.DaeVerify = Opts.DaeVerify;
    MixResult R = runMix(Mix, Cfg, MC);

    for (const MixStreamResult &St : R.Streams) {
      if (!St.OutputsMatch) {
        std::printf("WARNING: %s outputs differ between CAE and DAE!\n",
                    St.Name.c_str());
        Throughput.noteFailure();
      }
      Throughput.add(St.CaeProfile);
      Throughput.add(St.DaeProfile);
      if (MC.DaeVerify)
        Throughput.addDaeVerify(St.Name, "auto", St.Verify);
    }

    double Base = R.CaeMax.EdpJs;
    auto Norm = [Base](double Edp) { return Base > 0.0 ? Edp / Base : 0.0; };
    double QueueNs = 0.0;
    std::uint64_t DramMisses = 0;
    for (const runtime::CoreTimelineReport &C : R.DaeOracle.Cores) {
      QueueNs += C.QueueNs;
      DramMisses += C.DramMisses;
    }
    std::printf("%5u %-28.28s %10.3f", W, Label.c_str(), 1.0);
    if (ShowOndemand)
      std::printf(" %10.3f", Norm(R.CaeOndemand.EdpJs));
    if (ShowConservative)
      std::printf(" %10.3f", Norm(R.CaeConservative.EdpJs));
    std::printf(" %10.3f %10.3f %10.1f %12llu\n", Norm(R.DaeMinMax.EdpJs),
                Norm(R.DaeOracle.EdpJs), QueueNs * 1e-3,
                static_cast<unsigned long long>(DramMisses));

    Throughput.addContention(W, Label, R);
  }
  Throughput.stop();
  printRule(100);
  std::printf("(EDP normalized to CAE at fmax per width; queue/misses from "
              "the dae-oracle timeline)\n");

  Throughput.report();
  if (PassStats)
    pm::PipelineStats::get().print(stdout);
  return 0;
}
