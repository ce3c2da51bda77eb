//===- sim/PowerModel.h - Section 3.2 power model ---------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The calibrated Sandybridge power model of section 3.2 (from Koukos et
/// al., ICS'13):
///
///   Ceff     = 0.19 * IPC + 1.64                  (nF)
///   Pdynamic = Ceff * f * V^2                     (W; f in GHz, V in volts)
///   Pstatic  = linear in V*f per active core, plus an uncore constant
///   Energy   = sum over phases of P * t;  EDP = Time_total * Energy.
///
/// During DVFS transitions no instructions execute and only static power
/// accrues (section 6.1). Every core shares the machine's one V(f) curve,
/// so one set of formulas prices every core.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_POWERMODEL_H
#define DAECC_SIM_POWERMODEL_H

#include "sim/MachineConfig.h"
#include "sim/PhaseStats.h"

namespace dae {
namespace sim {

/// Evaluates the paper's power formulas for one machine.
class PowerModel {
public:
  explicit PowerModel(const MachineConfig &Cfg) : Cfg(Cfg) {}

  /// Dynamic power of one core running at \p FreqGHz with the given IPC.
  double dynamicPower(double FreqGHz, double Ipc) const {
    double Ceff = 0.19 * Ipc + 1.64; // nF
    double V = Cfg.voltageAt(FreqGHz);
    return Ceff * FreqGHz * V * V; // nF * GHz * V^2 == W
  }

  /// Static power of one active core at \p FreqGHz.
  double staticPowerPerCore(double FreqGHz) const {
    double V = Cfg.voltageAt(FreqGHz);
    return StaticV * V + StaticVF * V * FreqGHz;
  }

  /// Static power of an idle (clock-gated / sleeping) core.
  double sleepPowerPerCore() const {
    return SleepFraction * staticPowerPerCore(Cfg.fmin());
  }

  /// Frequency-independent uncore/package power.
  double uncorePower() const { return Uncore; }

  /// Energy (J) of one phase on one core at \p FreqGHz: (dynamic + static)
  /// over the phase's wall-clock time.
  double phaseEnergy(const PhaseStats &S, double FreqGHz) const {
    double TimeS = S.timeNs(FreqGHz) * 1e-9;
    return (dynamicPower(FreqGHz, S.ipc(FreqGHz)) +
            staticPowerPerCore(FreqGHz)) *
           TimeS;
  }

private:
  const MachineConfig &Cfg;
  // Static model constants (fit to a Sandybridge-like ~5-15 W static range).
  static constexpr double StaticV = 1.4;  // W/V per core.
  static constexpr double StaticVF = 0.5; // W/(V*GHz) per core.
  static constexpr double SleepFraction = 0.15;
  static constexpr double Uncore = 3.0; // W.
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_POWERMODEL_H
