//===- runtime/Timeline.cpp - Multi-core contention timeline -----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Timeline.h"

#include "runtime/Replay.h"
#include "sim/CacheSim.h"
#include "sim/PowerModel.h"

#include <cassert>
#include <cmath>
#include <stdexcept>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

/// One phase of one stream, flattened into interleave order: the retained
/// trace, the pre-replay functional stats (the frequency-scalable work), and
/// the post-replay *solo* stats the oracle policy prices from.
struct PhaseRef {
  const AccessTrace *Trace = nullptr;
  const PhaseStats *Functional = nullptr;
  const PhaseStats *Solo = nullptr;
  bool IsAccess = false;
  /// Runtime bookkeeping charged after the phase (execute phases only).
  double OverheadCycles = 0.0;
};

/// Per-core interleave state: a cursor over the stream's flattened phases,
/// the phase in flight, and the core's report.
struct CoreState {
  std::vector<PhaseRef> Phases;
  std::size_t PhaseIdx = 0;
  bool InPhase = false;
  /// Cursor over the in-flight phase's trace. While the core is blocked,
  /// *Event is the event whose private half has run and whose shared half
  /// waits for its turn in global clock order.
  const std::uint64_t *Event = nullptr;
  const std::uint64_t *End = nullptr;

  double ClockNs = 0.0;
  double FreqGHz = 0.0;      ///< Hardware frequency (last programmed).
  double PhaseFreqGHz = 0.0; ///< Frequency of the phase in flight.
  double PhaseStartNs = 0.0;
  double PhaseQueueNs = 0.0;
  /// Clock advance of one event of the phase in flight, per (kind, level)
  /// as indexed in ReplayCostModel: its share of the phase's functional
  /// compute plus the level's cost, at the phase frequency. DRAM queuing
  /// comes on top.
  double Dt[12] = {};
  std::uint64_t Counts[12] = {}; ///< Events per (kind, level), this phase.
  PhaseStats Acc;                ///< Phase stats under contention.

  CoreTimelineReport Report;
};

} // namespace

TimelineReport runtime::interleaveTimeline(const std::vector<CoreStream> &Streams,
                                           const MachineConfig &Cfg,
                                           const TimelineConfig &TC) {
  if (Streams.empty() || Streams.size() > Cfg.NumCores)
    throw std::invalid_argument("timeline stream count must be in [1, NumCores]");

  const unsigned NumCores = static_cast<unsigned>(Streams.size());
  const double TransNs = Cfg.DvfsTransitionNs;
  const bool IsGovernor = TC.Policy == TimelinePolicy::Ondemand ||
                          TC.Policy == TimelinePolicy::Conservative;

  PowerModel PM(Cfg);
  ReplayCostModel Costs(Cfg);
  CacheHierarchy Caches(Cfg, NumCores);
  DramChannel Dram(Cfg.DramBandwidthGBs, Cfg.L1.LineBytes);

  std::vector<GovernorState> Governors;
  if (IsGovernor)
    for (unsigned C = 0; C != NumCores; ++C)
      Governors.emplace_back(Cfg, TC.Policy == TimelinePolicy::Conservative);

  // Flatten every stream into phase order. Solo profiles come from a
  // NumCores=1 replay, so profile order == sequential execution order and is
  // index-aligned with the retained traces by the engine's contract.
  std::vector<CoreState> Cores(NumCores);
  for (unsigned C = 0; C != NumCores; ++C) {
    const CoreStream &S = Streams[C];
    if (!S.Solo || !S.Traces)
      throw std::invalid_argument("timeline stream missing solo artifacts");
    if (S.Solo->Tasks.size() != S.Traces->Tasks.size())
      throw std::invalid_argument("solo profile / retained traces mismatch");
    CoreState &CS = Cores[C];
    CS.FreqGHz = Cfg.fmax();
    CS.Phases.reserve(S.Traces->Tasks.size() * 2);
    for (std::size_t T = 0; T != S.Traces->Tasks.size(); ++T) {
      const TaskTraces &TT = S.Traces->Tasks[T];
      const TaskProfile &TP = S.Solo->Tasks[T];
      if (TT.HasAccess) {
        PhaseRef P;
        P.Trace = &TT.Access;
        P.Functional = &TT.FunctionalAccess;
        P.Solo = &TP.Access;
        P.IsAccess = true;
        CS.Phases.push_back(P);
      }
      PhaseRef P;
      P.Trace = &TT.Execute;
      P.Functional = &TT.FunctionalExecute;
      P.Solo = &TP.Execute;
      P.OverheadCycles = S.Solo->PerTaskOverheadCycles;
      CS.Phases.push_back(P);
    }
  }

  // Runtime bookkeeping stats (see Evaluator.cpp): same work per task, only
  // the pricing frequency varies.
  auto OverheadStats = [](double Cycles) {
    PhaseStats S;
    S.ComputeCycles = Cycles;
    S.Instructions = static_cast<std::uint64_t>(Cycles);
    return S;
  };

  // Opens the next phase on core C: pick the policy frequency, pay the DVFS
  // transition if it changed, and spread the phase's functional compute
  // across its trace events (the Dt table).
  auto StartPhase = [&](unsigned C) {
    CoreState &CS = Cores[C];
    const PhaseRef &P = CS.Phases[CS.PhaseIdx];
    double F = 0.0;
    switch (TC.Policy) {
    case TimelinePolicy::FixedMax:
      F = Cfg.fmax();
      break;
    case TimelinePolicy::DaeMinMax:
      F = P.IsAccess ? Cfg.fmin() : Cfg.fmax();
      break;
    case TimelinePolicy::OracleEdp:
      F = bestEdpFrequency(*P.Solo, Cfg, PM);
      break;
    case TimelinePolicy::Ondemand:
    case TimelinePolicy::Conservative:
      F = Governors[C].frequency();
      break;
    }
    if (std::abs(CS.FreqGHz - F) > 1e-9) {
      ++CS.Report.Transitions;
      if (TransNs > 0.0) {
        CS.ClockNs += TransNs;
        CS.Report.EnergyJ += PM.staticPowerPerCore(F) * TransNs * 1e-9;
      }
      CS.FreqGHz = F;
    }
    CS.PhaseFreqGHz = F;
    CS.PhaseStartNs = CS.ClockNs;
    CS.PhaseQueueNs = 0.0;
    CS.Acc = *P.Functional;
    std::size_t N = P.Trace->size();
    double PerEventCycles =
        N ? P.Functional->ComputeCycles / static_cast<double>(N) : 0.0;
    for (unsigned I = 0; I != 12; ++I) {
      CS.Dt[I] = (PerEventCycles + Costs.CycleAdd[I]) / F + Costs.StallAdd[I];
      CS.Counts[I] = 0;
    }
    CS.Event = P.Trace->events().data();
    CS.End = CS.Event + N;
    CS.InPhase = true;
  };

  // Closes the phase in flight on core C: zero-event phases charge their
  // whole compute as one slice, then the phase's energy is priced over its
  // actual (contention-inflated) wall time, task overhead is appended after
  // execute phases, and the governor window observes the phase.
  auto FinishPhase = [&](unsigned C) {
    CoreState &CS = Cores[C];
    const PhaseRef &P = CS.Phases[CS.PhaseIdx];
    const double F = CS.PhaseFreqGHz;
    addHitCounts(CS.Acc, CS.Counts);
    CS.Report.DramMisses += CS.Counts[3] + CS.Counts[7] + CS.Counts[11];
    if (P.Trace->empty())
      CS.ClockNs += CS.Acc.ComputeCycles / F;
    double TimeNs = CS.ClockNs - CS.PhaseStartNs;
    if (TimeNs > 0.0) {
      double Ipc = static_cast<double>(CS.Acc.Instructions) / (TimeNs * F);
      CS.Report.EnergyJ +=
          (PM.dynamicPower(F, Ipc) + PM.staticPowerPerCore(F)) * TimeNs * 1e-9;
    }
    CS.Report.ComputeNs += CS.Acc.ComputeCycles / F;
    CS.Report.StallNs += CS.Acc.StallNs;
    CS.Report.QueueNs += CS.PhaseQueueNs;
    CS.Report.Total += CS.Acc;

    double BusyNs = TimeNs;
    double ComputeNs = CS.Acc.ComputeCycles / F;
    if (P.OverheadCycles > 0.0) {
      double OverheadNs = P.OverheadCycles / F;
      CS.ClockNs += OverheadNs;
      CS.Report.EnergyJ += PM.phaseEnergy(OverheadStats(P.OverheadCycles), F);
      BusyNs += OverheadNs;
      ComputeNs += OverheadNs;
    }
    if (IsGovernor)
      Governors[C].account(ComputeNs, BusyNs);

    CS.InPhase = false;
    ++CS.PhaseIdx;
  };

  // Runs core C ahead through everything that touches only its own state:
  // phase starts and finishes, and every event its own L1 or L2 satisfies.
  // Stops when an event misses the L2 (the core is then blocked, that
  // event's private half done) or when the stream ends. Per event it does
  // what the solo replay loop (runtime/Replay.cpp) does, plus the clock: one
  // add each to ComputeCycles, StallNs and the clock, in trace order.
  auto RunAhead = [&](unsigned C) {
    CoreState &CS = Cores[C];
    const std::uint64_t Bias = Streams[C].AddrBias;
    for (;;) {
      if (!CS.InPhase) {
        if (CS.PhaseIdx == CS.Phases.size())
          return;
        StartPhase(C);
      }
      double Clock = CS.ClockNs;
      double Cycles = CS.Acc.ComputeCycles;
      double StallNs = CS.Acc.StallNs;
      const std::uint64_t *E = CS.Event, *End = CS.End;
      for (; E != End; ++E) {
        const std::uint64_t Event = *E;
        const unsigned Kind = static_cast<unsigned>(Event >> 62);
        HitLevel Level =
            Caches.accessPrivate(C, (Event & AccessTrace::AddrMask) + Bias);
        if (Level == HitLevel::LLC)
          break;
        unsigned Idx = Kind * 4 + static_cast<unsigned>(Level);
        assert(Idx < 12 && "unknown access kind");
        Cycles += Costs.CycleAdd[Idx];
        StallNs += Costs.StallAdd[Idx];
        Clock += CS.Dt[Idx];
        ++CS.Counts[Idx];
      }
      CS.ClockNs = Clock;
      CS.Acc.ComputeCycles = Cycles;
      CS.Acc.StallNs = StallNs;
      CS.Event = E;
      if (E != End)
        return;
      FinishPhase(C);
    }
  };

  // Completes core C's blocked event: the shared half of its access (LLC,
  // next-line fill) and, on a DRAM miss, its requests on the channel, which
  // queue behind every request committed before. The prefetcher's fill
  // rides the channel too; it runs in the miss's shadow, so it occupies
  // bandwidth without adding to this core's stall.
  auto Commit = [&](unsigned C) {
    CoreState &CS = Cores[C];
    const std::uint64_t Event = *CS.Event;
    const unsigned Kind = static_cast<unsigned>(Event >> 62);
    HitLevel Level = Caches.accessShared(
        C, (Event & AccessTrace::AddrMask) + Streams[C].AddrBias);
    unsigned Idx = Kind * 4 + static_cast<unsigned>(Level);
    assert(Idx < 12 && "unknown access kind");
    CS.Acc.ComputeCycles += Costs.CycleAdd[Idx];
    CS.Acc.StallNs += Costs.StallAdd[Idx];
    ++CS.Counts[Idx];
    double Dt = CS.Dt[Idx];
    if (Level == HitLevel::Memory) {
      double Q = Dram.requestLine(CS.ClockNs);
      Dt += Q;
      CS.PhaseQueueNs += Q;
      if (Cfg.HwNextLinePrefetch && Kind != 2)
        Dram.requestLine(CS.ClockNs);
    }
    CS.ClockNs += Dt;
    ++CS.Event;
  };

  // The interleave proper. Only the shared halves of accesses (the LLC and
  // the DRAM channel) can observe or change another core's state, so each
  // core runs ahead through its private events and blocks at its next
  // shared one; the blocked core with the smallest clock (ties toward the
  // lowest index) commits and runs ahead again. Clocks never decrease, so
  // no core can later produce a shared event earlier than the one
  // committed: shared events commit in global (clock, core) order, exactly
  // as if every event were stepped one at a time.
  for (unsigned C = 0; C != NumCores; ++C)
    RunAhead(C);
  for (;;) {
    unsigned Core = NumCores;
    for (unsigned C = 0; C != NumCores; ++C) {
      // RunAhead leaves a core in a phase only when it is blocked.
      if (!Cores[C].InPhase)
        continue;
      if (Core == NumCores || Cores[C].ClockNs < Cores[Core].ClockNs)
        Core = C;
    }
    if (Core == NumCores)
      break;
    Commit(Core);
    RunAhead(Core);
  }

  TimelineReport R;
  R.Cores.resize(NumCores);
  for (unsigned C = 0; C != NumCores; ++C) {
    Cores[C].Report.FinishNs = Cores[C].ClockNs;
    R.Cores[C] = Cores[C].Report;
    R.MakespanNs = std::max(R.MakespanNs, Cores[C].ClockNs);
  }
  double Energy = 0.0;
  for (unsigned C = 0; C != NumCores; ++C) {
    Energy += R.Cores[C].EnergyJ;
    // Early finishers sleep until the slowest co-runner completes.
    Energy +=
        PM.sleepPowerPerCore() * (R.MakespanNs - R.Cores[C].FinishNs) * 1e-9;
  }
  Energy += PM.uncorePower() * R.MakespanNs * 1e-9;
  R.EnergyJ = Energy;
  R.EdpJs = R.MakespanNs * 1e-9 * R.EnergyJ;
  return R;
}
