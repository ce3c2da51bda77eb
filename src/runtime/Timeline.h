//===- runtime/Timeline.h - Multi-core contention timeline ------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-core co-run timeline: N independent workloads, one pinned per
/// simulated core, their retained traces interleaved in global-timestamp
/// order through a *shared* LLC and a bandwidth-throttled DRAM channel.
/// This is where cross-workload contention — LLC capacity pressure and
/// memory-bandwidth queuing — enters the model; the single-workload engine
/// (runtime/Runtime.h) replays each run against a private hierarchy and
/// never sees a co-runner.
///
/// Inputs are solo-run artifacts: each stream's RunProfile (NumCores=1
/// replay, post-replay per-phase stats — what an offline profiler would
/// know) and its RunTraces (the retained access traces plus pre-replay
/// functional stats — the frequency-scalable work). The interleaver
/// re-prices every phase under contention: per event, the phase's compute is
/// spread uniformly across its trace, cache costs come from the shared
/// hierarchy's actual hit level, and DRAM misses additionally queue on the
/// channel. Frequencies are chosen per phase by the configured policy —
/// fixed fmax, the DAE min/max split, the per-phase EDP oracle (priced from
/// solo stats, the paper's compiler-guided choice), or a reactive
/// ondemand/conservative governor baseline.
///
/// The interleave is single-threaded and fully deterministic. Its result is
/// that of stepping, one event at a time, the unfinished core with the
/// smallest clock (ties toward the lowest core index). It gets there by
/// private run-ahead: an access splits into a private half (the core's own
/// L1/L2) and a shared half (LLC, next-line fill, DRAM channel; see
/// sim::CacheHierarchy). Each core streams its events through the private
/// half until one misses its L2, and the blocked core with the smallest
/// (clock, index) commits that event's shared half and runs on. Private
/// halves commute with other cores' events and clocks never decrease, so
/// shared events commit in exactly the per-event order (DESIGN.md section
/// 12.2). Co-run reports are bit-identical for any --jobs value — solo
/// artifacts are already bit-identical by the engine's determinism
/// guarantee, and nothing here depends on host order (asserted by
/// MultiCoreDeterminismTest, which also pins the reports to goldens).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_RUNTIME_TIMELINE_H
#define DAECC_RUNTIME_TIMELINE_H

#include "runtime/Evaluator.h"
#include "runtime/Runtime.h"
#include "sim/MachineConfig.h"
#include "sim/PhaseStats.h"

#include <cstdint>
#include <vector>

namespace dae {
namespace runtime {

/// Per-phase frequency policy applied on the contention timeline.
enum class TimelinePolicy {
  /// Every phase at the core's fmax (the CAE "performance governor" base).
  FixedMax,
  /// DAE split: access phases at the core's fmin, execute (and coupled)
  /// phases at its fmax (section 3.1 policy (a)).
  DaeMinMax,
  /// Per-phase EDP-optimal rung, chosen from the phase's *solo* profile —
  /// the compiler/profiling oracle. Solo stats are what offline profiling
  /// provides; the oracle does not get to see contention-inflated futures.
  OracleEdp,
  /// Reactive cpufreq-style ondemand governor (see runtime/Evaluator.h).
  Ondemand,
  /// Reactive cpufreq-style conservative governor.
  Conservative,
};

inline const char *timelinePolicyName(TimelinePolicy P) {
  switch (P) {
  case TimelinePolicy::FixedMax:
    return "fixed-max";
  case TimelinePolicy::DaeMinMax:
    return "dae-minmax";
  case TimelinePolicy::OracleEdp:
    return "dae-oracle";
  case TimelinePolicy::Ondemand:
    return "ondemand";
  case TimelinePolicy::Conservative:
    return "conservative";
  }
  return "unknown";
}

/// One co-runner: the solo-run artifacts of the workload pinned to one core.
/// Solo and Traces must come from the same NumCores=1 run (index-aligned by
/// construction — see TaskRuntime::execute's Traces out-param).
struct CoreStream {
  const RunProfile *Solo = nullptr;
  const RunTraces *Traces = nullptr;
  /// Added to every trace address before it touches the shared hierarchy.
  /// Co-runners are separate programs with separate address spaces; without
  /// a per-stream bias their loader images alias line-for-line in the shared
  /// LLC and the model would hallucinate cross-program "sharing". The
  /// harness uses (core << 40), far above any footprint and well below the
  /// trace encoding's 62-bit address space.
  std::uint64_t AddrBias = 0;
};

/// Timeline evaluation configuration.
struct TimelineConfig {
  TimelinePolicy Policy = TimelinePolicy::FixedMax;
  /// Overrides MachineConfig::DvfsTransitionNs when >= 0.
  double TransitionNs = -1.0;
  /// Sampling parameters for the governor policies.
  GovernorParams Governor;
};

/// One core's outcome on the timeline.
struct CoreTimelineReport {
  double FinishNs = 0.0;  ///< When the core's stream completed.
  double EnergyJ = 0.0;   ///< Core energy (dynamic + static + transitions).
  double ComputeNs = 0.0; ///< Frequency-scaled compute time.
  double StallNs = 0.0;   ///< Cache/DRAM latency stalls (no queuing).
  double QueueNs = 0.0;   ///< DRAM bandwidth queuing delay.
  std::size_t Transitions = 0;
  std::uint64_t DramMisses = 0; ///< Demand + prefetch DRAM fills.
  sim::PhaseStats Total;        ///< Contention-replay stats, all phases.
};

/// Whole-timeline outcome.
struct TimelineReport {
  double MakespanNs = 0.0;
  double EnergyJ = 0.0; ///< Cores + early-finisher sleep + uncore.
  double EdpJs = 0.0;   ///< Energy * makespan.
  std::vector<CoreTimelineReport> Cores;
};

/// Interleaves \p Streams (stream i pinned to core i) on machine \p Cfg
/// under \p TC. Throws std::invalid_argument unless the stream count is in
/// [1, Cfg.NumCores] and every stream has a profile and traces with the
/// same number of tasks.
TimelineReport interleaveTimeline(const std::vector<CoreStream> &Streams,
                                  const sim::MachineConfig &Cfg,
                                  const TimelineConfig &TC);

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_TIMELINE_H
