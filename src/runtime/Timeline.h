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
/// know) and its RunTraces (the retained access traces, each event's L1
/// outcome, and pre-replay functional stats — the frequency-scalable work).
/// The interleaver re-prices every phase under contention: per event, the
/// phase's compute is spread uniformly across its trace, cache costs come
/// from the shared hierarchy's actual hit level, and DRAM misses
/// additionally queue on the channel. Frequencies are chosen per phase by
/// the configured policy — fixed fmax, the DAE min/max split, the per-phase
/// EDP oracle (priced from solo stats, the paper's compiler-guided choice),
/// or a reactive ondemand/conservative governor baseline.
///
/// The interleave is single-threaded and fully deterministic. Its result is
/// that of stepping, one event at a time, the unfinished core with the
/// smallest clock (ties toward the lowest core index). It gets there by
/// private run-ahead: an access splits into a private half (the core's own
/// L1/L2) and a shared half (LLC, next-line fill, DRAM channel; see
/// sim::CacheHierarchy). A core's L1 sees only its own stream, the same
/// event sequence as its solo run, so the L1 half is not simulated again:
/// each event's L1 outcome is the bit the solo replay recorded, and only an
/// L1 miss looks up the core's L2. Each core streams its events through the
/// private half until one misses its L2, and the blocked core with the
/// smallest (clock, index) commits that event's shared half and runs on.
/// Private halves commute with other cores' events and clocks never
/// decrease, so shared events commit in exactly the per-event order
/// (DESIGN.md section 12.2). Co-run reports are bit-identical for any --jobs
/// value — solo artifacts are already bit-identical by the engine's
/// determinism guarantee, and nothing here depends on host order (asserted
/// by MultiCoreDeterminismTest, which also pins the reports to goldens).
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
  /// Reactive cpufreq-style ondemand governor (see GovernorState).
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

/// One core's reactive-governor state: utilization-window accumulation plus
/// the currently programmed frequency. Utilization is busy (compute) time
/// over wall time, so memory stalls read as idle — cpufreq's io_is_busy=0
/// view, which is precisely why reactive governors clock *down* during the
/// memory-bound access phases DAE wants prefetched at low frequency, but
/// only after the window has already elapsed at the wrong speed. The
/// timeline observes decisions only at phase starts, the granularity at
/// which a frequency can take effect.
///
/// The sampling constants follow cpufreq's ondemand/conservative semantics
/// with the sampling period scaled down to the simulator's phase lengths
/// (the same 1/16-style scaling as the cache geometry).
class GovernorState {
public:
  /// Sampling window length (us).
  static constexpr double SampleUs = 50.0;
  /// Window utilization above which both governors raise the frequency.
  static constexpr double UpThreshold = 0.80;
  /// Window utilization below which conservative steps one rung down.
  static constexpr double DownThreshold = 0.20;

  GovernorState(const sim::MachineConfig &Cfg, bool Conservative)
      : Cfg(Cfg), Conservative(Conservative), FreqGHz(Cfg.fmin()) {}

  /// The frequency the governor currently has programmed. Governors start at
  /// fmin — the ramp-up from cold is part of the reactive lag being
  /// measured.
  double frequency() const { return FreqGHz; }

  /// Accounts \p ComputeNs of busy time within \p WallNs of elapsed time,
  /// re-deciding the frequency once per completed sampling window. A span
  /// longer than one window triggers multiple decisions (at the span's
  /// uniform utilization), so e.g. Conservative ramps one rung per window
  /// across a long phase.
  ///
  /// Spans are consumed chronologically: each window's decision sees only
  /// the utilization of the wall time that actually fell inside it. A
  /// zero-wall span is unobservable (no time elapsed in which to sample) and
  /// is discarded outright — it must neither divide by zero nor smear stale
  /// compute into the next window. Likewise, a span reporting more compute
  /// than wall time saturates at 100% for its own duration only.
  void account(double ComputeNs, double WallNs) {
    const double WindowNs = SampleUs * 1000.0;
    if (WallNs <= 0.0)
      return;
    double Util = ComputeNs / WallNs;
    if (Util > 1.0)
      Util = 1.0;
    else if (Util < 0.0)
      Util = 0.0;
    double Remaining = WallNs;
    while (Remaining > 0.0) {
      double Take = WindowNs - WindowWallNs;
      if (Take > Remaining)
        Take = Remaining;
      WindowWallNs += Take;
      WindowComputeNs += Util * Take;
      Remaining -= Take;
      if (WindowWallNs >= WindowNs) {
        double WUtil = WindowComputeNs / WindowNs;
        decide(WUtil > 1.0 ? 1.0 : WUtil);
        WindowComputeNs = 0.0;
        WindowWallNs = 0.0;
      }
    }
  }

private:
  void decide(double Util) {
    if (!Conservative) {
      // ondemand: saturate to fmax above the up-threshold; below it, map the
      // load proportionally onto [0, fmax] with the up-threshold as headroom
      // and take the next rung at or above (CPUFREQ_RELATION_L).
      if (Util > UpThreshold) {
        FreqGHz = Cfg.fmax();
        return;
      }
      FreqGHz = Cfg.rungAtOrAbove(Util * Cfg.fmax() / UpThreshold);
      return;
    }
    // conservative: one rung per window, either direction.
    const std::vector<double> &L = Cfg.FrequenciesGHz;
    std::size_t I = 0;
    while (I + 1 < L.size() && L[I] < FreqGHz)
      ++I;
    if (Util > UpThreshold && I + 1 < L.size())
      FreqGHz = L[I + 1];
    else if (Util < DownThreshold && I > 0)
      FreqGHz = L[I - 1];
  }

  const sim::MachineConfig &Cfg;
  bool Conservative;
  double FreqGHz;
  double WindowComputeNs = 0.0;
  double WindowWallNs = 0.0;
};

/// One co-runner: the solo-run artifacts of the workload pinned to one core.
/// Solo and Traces must come from the same NumCores=1 run (index-aligned by
/// construction — see TaskRuntime::execute's Traces out-param), on a machine
/// with the timeline's L1 geometry: the timeline reads every event's L1
/// outcome from that run. Streams point at their artifacts, so several
/// streams (of one mix or of several) may share one solo run.
struct CoreStream {
  const RunProfile *Solo = nullptr;
  const RunTraces *Traces = nullptr;
  /// Added to every trace address before it touches the shared hierarchy.
  /// Co-runners are separate programs with separate address spaces; without
  /// a per-stream bias their loader images alias line-for-line in the shared
  /// LLC and the model would hallucinate cross-program "sharing". Must be a
  /// multiple of the L1 line size, so that the biased stream's L1 outcomes
  /// are the solo run's. The harness uses (core << 40), far above any
  /// footprint and well below the trace encoding's 62-bit address space.
  std::uint64_t AddrBias = 0;
};

/// Timeline evaluation configuration. DVFS transitions take
/// MachineConfig::DvfsTransitionNs.
struct TimelineConfig {
  TimelinePolicy Policy = TimelinePolicy::FixedMax;
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
/// [1, Cfg.NumCores] and every stream has a one-core profile and traces with
/// the same number of tasks, a line-aligned AddrBias, and L1 bits covering
/// every trace, recorded under Cfg.L1.
TimelineReport interleaveTimeline(const std::vector<CoreStream> &Streams,
                                  const sim::MachineConfig &Cfg,
                                  const TimelineConfig &TC);

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_TIMELINE_H
