//===- runtime/Evaluator.h - DVFS schedule pricing --------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prices a DVFS schedule over a RunProfile: given per-phase frequency
/// choices (fixed, the naive Min/Max split, or the per-phase Optimal-EDP
/// search of section 3.1), computes makespan, energy, and EDP under the
/// section 3.2 power model, accounting for DVFS transition latency (static
/// energy only, no instructions — section 6.1) and runtime overhead/idle
/// (the O.S.I. bucket of Figure 4). The reactive governor baselines are
/// priced on the co-run timeline (runtime/Timeline.h), not here.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_RUNTIME_EVALUATOR_H
#define DAECC_RUNTIME_EVALUATOR_H

#include "runtime/Task.h"
#include "sim/MachineConfig.h"
#include "sim/PowerModel.h"

namespace dae {
namespace runtime {

/// How per-phase frequencies are chosen.
enum class FreqPolicy {
  /// Run every phase at the configured AccessFreqGHz / ExecFreqGHz, clamped
  /// to [fmin, fmax].
  Fixed,
  /// Per phase, pick the ladder frequency minimizing that phase's local
  /// EDP (section 3.1 policy (b)).
  OptimalEdp,
};

/// Evaluation configuration.
struct EvalConfig {
  FreqPolicy Policy = FreqPolicy::Fixed;
  double AccessFreqGHz = 0.0; ///< Fixed policy: frequency for access phases.
  double ExecFreqGHz = 0.0;   ///< Fixed policy: frequency for execute/coupled.
  /// Overrides MachineConfig::DvfsTransitionNs when >= 0.
  double TransitionNs = -1.0;
};

/// Priced outcome of one run under one policy.
struct RunReport {
  double TimeSec = 0.0;   ///< Makespan.
  double EnergyJ = 0.0;
  double EdpJs = 0.0;     ///< Energy * Time.

  // Breakdown (summed over cores, in core-seconds) for Figure 4 / Table 1.
  double AccessTimeSec = 0.0;   ///< "Prefetch" bucket.
  double ExecuteTimeSec = 0.0;  ///< "Task" bucket.
  double OsiTimeSec = 0.0;      ///< Overhead + transitions + idle.

  // The same buckets' energy for Figure 4: each phase's energy at its own
  // frequency, plus the uncore power's share by the bucket's core-seconds.
  // They sum to EnergyJ up to rounding.
  double AccessEnergyJ = 0.0;
  double ExecuteEnergyJ = 0.0;
  double OsiEnergyJ = 0.0;

  std::size_t NumTasks = 0;
  std::size_t NumTransitions = 0;

  /// Average access-phase duration in microseconds (Table 1's TA column).
  double avgAccessUs() const {
    return NumTasks ? AccessTimeSec * 1e6 / static_cast<double>(NumTasks)
                    : 0.0;
  }
  /// Fraction of busy time spent in access phases (Table 1's TA%).
  double accessTimeFraction() const {
    double Busy = AccessTimeSec + ExecuteTimeSec;
    return Busy > 0.0 ? AccessTimeSec / Busy : 0.0;
  }
};

/// Prices \p Profile under \p Eval on machine \p Cfg.
RunReport evaluate(const RunProfile &Profile, const sim::MachineConfig &Cfg,
                   const EvalConfig &Eval);

/// Ladder frequency minimizing one phase's local EDP (section 3.1 policy
/// (b)): EDP_phase = t(f) * E(f). Exact ties break toward the lower
/// frequency. Exposed for the multi-core timeline's per-phase oracle
/// policy, which prices phases from solo-run stats.
double bestEdpFrequency(const sim::PhaseStats &S, const sim::MachineConfig &Cfg,
                        const sim::PowerModel &PM);

/// Convenience: coupled run at a fixed frequency.
RunReport evaluateCoupled(const RunProfile &Profile,
                          const sim::MachineConfig &Cfg, double FreqGHz,
                          double TransitionNs = -1.0);

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_EVALUATOR_H
