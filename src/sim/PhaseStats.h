//===- sim/PhaseStats.h - Frequency-decomposed phase profile ----*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-phase profile in the interval model the paper builds on (Keramidas et
/// al., reference [13]): work is split into a core-clocked cycle count and a
/// frequency-independent memory stall time, so the execution time at any
/// frequency is recovered analytically:
///
///   time_ns(f) = ComputeCycles / f_GHz + StallNs
///
/// This is exactly why one simulation per scheme suffices to sweep the whole
/// DVFS ladder, mirroring the paper's "run once per frequency and model"
/// methodology (section 3.1) without re-running anything.
///
/// The simulator counts integers and prices them once. The execution
/// backends count a phase's instructions per cost class (RunCounts), and
/// priceCounts turns them into the phase's functional stats where
/// Interpreter::runTraced returns. The trace replay counts (kind, level)
/// events, and runtime::priceEvents (runtime/Replay.h) adds their hit
/// cycles and stalls once per phase. Those two functions are the only
/// writers of a simulated phase's ComputeCycles and StallNs, so backends
/// agree because they count the same integers.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_PHASESTATS_H
#define DAECC_SIM_PHASESTATS_H

#include "sim/MachineConfig.h"

#include <cstdint>

namespace dae {
namespace sim {

/// What a functional run counts: every backend produces exactly these
/// integers for a run. The last three are the core-clocked cost classes:
/// simple-op units (a call counts two), FP ops (FAdd, FSub, FMul) and
/// divides (SDiv, SRem, FDiv). A phi is an instruction of no class: it is
/// free. The native backend's generated code adds into these fields in
/// place (sim/NativeExec.h pins their offsets).
struct RunCounts {
  std::uint64_t Instructions = 0;
  std::uint64_t Loads = 0;
  std::uint64_t Stores = 0;
  std::uint64_t Prefetches = 0;
  std::uint64_t SimpleUnits = 0;
  std::uint64_t FpOps = 0;
  std::uint64_t Divides = 0;

  RunCounts &operator+=(const RunCounts &R) {
    Instructions += R.Instructions;
    Loads += R.Loads;
    Stores += R.Stores;
    Prefetches += R.Prefetches;
    SimpleUnits += R.SimpleUnits;
    FpOps += R.FpOps;
    Divides += R.Divides;
    return *this;
  }
};

/// Aggregated execution profile of one phase (access, execute, or coupled).
struct PhaseStats {
  std::uint64_t Instructions = 0;
  double ComputeCycles = 0.0; ///< Core-clocked work (scales with f).
  double StallNs = 0.0;       ///< Memory time (frequency independent).

  std::uint64_t Loads = 0;
  std::uint64_t Stores = 0;
  std::uint64_t Prefetches = 0;
  std::uint64_t L1Hits = 0;
  std::uint64_t L2Hits = 0;
  std::uint64_t LLCHits = 0;
  std::uint64_t MemAccesses = 0; ///< LLC misses (to DRAM).

  /// Wall-clock time at \p FreqGHz, in nanoseconds.
  double timeNs(double FreqGHz) const {
    return ComputeCycles / FreqGHz + StallNs;
  }

  /// Instructions per cycle at \p FreqGHz (total cycles include stalls).
  double ipc(double FreqGHz) const {
    double Cycles = timeNs(FreqGHz) * FreqGHz;
    return Cycles > 0.0 ? static_cast<double>(Instructions) / Cycles : 0.0;
  }

  PhaseStats &operator+=(const PhaseStats &R) {
    Instructions += R.Instructions;
    ComputeCycles += R.ComputeCycles;
    StallNs += R.StallNs;
    Loads += R.Loads;
    Stores += R.Stores;
    Prefetches += R.Prefetches;
    L1Hits += R.L1Hits;
    L2Hits += R.L2Hits;
    LLCHits += R.LLCHits;
    MemAccesses += R.MemAccesses;
    return *this;
  }
};

/// The functional half of a phase's profile: \p C's counts, and its
/// core-clocked compute priced under \p Cfg's instruction costs. Cache hits
/// and stalls are added by the trace replay (runtime::priceEvents).
inline PhaseStats priceCounts(const RunCounts &C, const MachineConfig &Cfg) {
  PhaseStats S;
  S.Instructions = C.Instructions;
  S.Loads = C.Loads;
  S.Stores = C.Stores;
  S.Prefetches = C.Prefetches;
  S.ComputeCycles = static_cast<double>(C.SimpleUnits) * Cfg.SimpleOpCycles +
                    static_cast<double>(C.FpOps) * Cfg.FpOpCycles +
                    static_cast<double>(C.Divides) * Cfg.DivCycles;
  return S;
}

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_PHASESTATS_H
