//===- runtime/Evaluator.cpp - DVFS schedule pricing -------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Evaluator.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

// Exact EDP ties break toward the *lower* frequency (the cheaper operating
// point), independent of the order the ladder happens to be listed in — a
// first-match scan would silently pick whichever tied frequency appeared
// first.
double runtime::bestEdpFrequency(const PhaseStats &S, const MachineConfig &Cfg,
                                 const PowerModel &PM) {
  double BestF = Cfg.fmax();
  double BestEdp = -1.0;
  for (double F : Cfg.FrequenciesGHz) {
    double T = S.timeNs(F) * 1e-9;
    double Edp = T * PM.phaseEnergy(S, F);
    if (BestEdp < 0.0 || Edp < BestEdp || (Edp == BestEdp && F < BestF)) {
      BestEdp = Edp;
      BestF = F;
    }
  }
  return BestF;
}

RunReport runtime::evaluate(const RunProfile &Profile,
                            const MachineConfig &Cfg,
                            const EvalConfig &Eval) {
  PowerModel PM(Cfg);
  const double TransNs =
      Eval.TransitionNs >= 0.0 ? Eval.TransitionNs : Cfg.DvfsTransitionNs;

  RunReport R;
  R.NumTasks = Profile.Tasks.size();

  std::vector<double> CoreBusyNs(Profile.NumCores, 0.0);
  std::vector<double> CoreEnergyJ(Profile.NumCores, 0.0);
  // Cores boot at fmax.
  std::vector<double> CoreFreq(Profile.NumCores, Cfg.fmax());

  auto RunPhase = [&](unsigned Core, const PhaseStats &S, double FreqGHz,
                      bool IsAccess) {
    // Frequency switch: the transition happens (and is counted, and the
    // core's frequency tracked) whenever the policy changes frequency;
    // latency + static-only energy (section 6.1) are charged only when the
    // hardware transition takes time. Gating the whole block on TransNs used
    // to report 0 transitions and a stale CoreFreq for the ideal 0 ns case.
    if (std::abs(CoreFreq[Core] - FreqGHz) > 1e-9) {
      ++R.NumTransitions;
      if (TransNs > 0.0) {
        double TransJ = PM.staticPowerPerCore(FreqGHz) * TransNs * 1e-9;
        CoreBusyNs[Core] += TransNs;
        CoreEnergyJ[Core] += TransJ;
        R.OsiTimeSec += TransNs * 1e-9;
        R.OsiEnergyJ += TransJ;
      }
      CoreFreq[Core] = FreqGHz;
    }
    double TNs = S.timeNs(FreqGHz);
    double PhaseJ = PM.phaseEnergy(S, FreqGHz);
    CoreBusyNs[Core] += TNs;
    CoreEnergyJ[Core] += PhaseJ;
    (IsAccess ? R.AccessTimeSec : R.ExecuteTimeSec) += TNs * 1e-9;
    (IsAccess ? R.AccessEnergyJ : R.ExecuteEnergyJ) += PhaseJ;
  };

  double IdleEnergyJ = 0.0;
  double MakespanNs = 0.0;

  // Fixed-policy targets come from outside the machine model, so pin them to
  // the ladder range: a target above fmax runs (and is priced) at fmax.
  const double FixedAccessGHz =
      std::clamp(Eval.AccessFreqGHz, Cfg.fmin(), Cfg.fmax());
  const double FixedExecGHz =
      std::clamp(Eval.ExecFreqGHz, Cfg.fmin(), Cfg.fmax());

  // Runtime bookkeeping (dequeue/hand-off) is the same for every task; only
  // the frequency it is priced at varies, so build the stats once.
  PhaseStats Overhead;
  Overhead.ComputeCycles = Profile.PerTaskOverheadCycles;
  Overhead.Instructions =
      static_cast<std::uint64_t>(Profile.PerTaskOverheadCycles);

  // Process wave by wave: within a wave cores run their assigned phases;
  // the barrier advances every core to the wave's completion time, with
  // idle cores in their sleep state (section 3.1).
  size_t I = 0;
  while (I != Profile.Tasks.size()) {
    unsigned Wave = Profile.Tasks[I].Wave;
    for (; I != Profile.Tasks.size() && Profile.Tasks[I].Wave == Wave; ++I) {
      const TaskProfile &T = Profile.Tasks[I];
      unsigned Core = T.Core;
      if (T.HasAccess) {
        double FA = Eval.Policy == FreqPolicy::OptimalEdp
                        ? bestEdpFrequency(T.Access, Cfg, PM)
                        : FixedAccessGHz;
        RunPhase(Core, T.Access, FA, /*IsAccess=*/true);
      }
      double FE = Eval.Policy == FreqPolicy::OptimalEdp
                      ? bestEdpFrequency(T.Execute, Cfg, PM)
                      : FixedExecGHz;
      RunPhase(Core, T.Execute, FE, /*IsAccess=*/false);

      // Runtime bookkeeping (dequeue/hand-off) at the execute frequency.
      double OverheadNs = Profile.PerTaskOverheadCycles / FE;
      double OverheadJ = PM.phaseEnergy(Overhead, FE);
      CoreBusyNs[Core] += OverheadNs;
      CoreEnergyJ[Core] += OverheadJ;
      R.OsiTimeSec += OverheadNs * 1e-9;
      R.OsiEnergyJ += OverheadJ;
    }
    // Barrier.
    double WaveEndNs = 0.0;
    for (double Busy : CoreBusyNs)
      WaveEndNs = std::max(WaveEndNs, Busy);
    for (unsigned C = 0; C != Profile.NumCores; ++C) {
      double IdleNs = WaveEndNs - CoreBusyNs[C];
      IdleEnergyJ += PM.sleepPowerPerCore() * IdleNs * 1e-9;
      R.OsiTimeSec += IdleNs * 1e-9;
      CoreBusyNs[C] = WaveEndNs;
    }
    MakespanNs = WaveEndNs;
  }

  double Energy = IdleEnergyJ;
  for (unsigned C = 0; C != Profile.NumCores; ++C)
    Energy += CoreEnergyJ[C];
  Energy += PM.uncorePower() * MakespanNs * 1e-9;

  R.TimeSec = MakespanNs * 1e-9;
  R.EnergyJ = Energy;
  R.EdpJs = R.TimeSec * R.EnergyJ;

  // Every core is busy or asleep until the makespan, so the buckets'
  // core-seconds sum to NumCores x makespan and split the uncore energy.
  const double UncorePerCoreW =
      PM.uncorePower() / static_cast<double>(Profile.NumCores);
  R.AccessEnergyJ += UncorePerCoreW * R.AccessTimeSec;
  R.ExecuteEnergyJ += UncorePerCoreW * R.ExecuteTimeSec;
  R.OsiEnergyJ += IdleEnergyJ + UncorePerCoreW * R.OsiTimeSec;
  return R;
}

RunReport runtime::evaluateCoupled(const RunProfile &Profile,
                                   const MachineConfig &Cfg, double FreqGHz,
                                   double TransitionNs) {
  EvalConfig Eval;
  Eval.Policy = FreqPolicy::Fixed;
  Eval.AccessFreqGHz = FreqGHz;
  Eval.ExecFreqGHz = FreqGHz;
  Eval.TransitionNs = TransitionNs;
  return evaluate(Profile, Cfg, Eval);
}
