//===- sim/MachineConfig.h - Simulated machine parameters -------*- C++ -*-===//
//
// Part of daecc, a reproduction of "Fix the code. Don't tweak the hardware"
// (CGO 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parameters of the simulated quad-core Sandybridge-class machine the
/// evaluation runs on: cache geometry, latency split between the
/// core-clocked domain (cycles) and the wall-clock memory domain (ns), the
/// DVFS ladder of the paper (1.6-3.4 GHz in 0.4 GHz steps), its V(f) curve,
/// and the 500 ns transition latency of section 6.1 (zero for the
/// "future hardware" case).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_MACHINECONFIG_H
#define DAECC_SIM_MACHINECONFIG_H

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <vector>

namespace dae {
namespace sim {

/// Functional execution backend for the simulator's value-producing pass.
/// All three produce bit-identical RunProfiles, AccessTraces, captures and
/// memory images (pinned by SnapshotTest's golden hashes and
/// tests/sim/BackendDifferentialTest.cpp); they differ only in host speed.
enum class SimBackend : std::uint8_t {
  /// The classic slot-addressed interpreter: one flat switch over a
  /// precomputed SimOp enum per executed instruction. Reference semantics.
  Switch,
  /// Register-allocated bytecode executed by a direct-threaded dispatch loop
  /// (computed goto on GCC/Clang), with phis resolved to parallel-copy move
  /// sequences, constants folded into immediate operand forms, and
  /// superinstruction fusion for hot pairs (see sim/Bytecode.h).
  Threaded,
  /// The threaded backend's bytecode lowered once more to executable host
  /// code (sim/NativeCodegen.h): an x86-64 template JIT with trace emission
  /// and page translation inlined at the load/store sites, or portable
  /// C-emission compiled through $DAECC_NATIVE_CC on other hosts. Functions
  /// the lowerer cannot compile fall back to the threaded loop per function.
  Native,
};

inline const char *simBackendName(SimBackend B) {
  switch (B) {
  case SimBackend::Switch:
    return "switch";
  case SimBackend::Threaded:
    return "threaded";
  case SimBackend::Native:
    return "native";
  }
  return "unknown";
}

/// All valid values of --sim-backend / DAECC_SIM_BACKEND, for error messages.
inline const char *simBackendValidValues() {
  return "'switch', 'threaded' or 'native'";
}

/// Strict name -> backend mapping. Returns false (leaving \p Out untouched)
/// for anything but the exact lowercase names.
inline bool simBackendFromName(const char *Name, SimBackend &Out) {
  if (!Name)
    return false;
  if (std::strcmp(Name, "switch") == 0) {
    Out = SimBackend::Switch;
    return true;
  }
  if (std::strcmp(Name, "threaded") == 0) {
    Out = SimBackend::Threaded;
    return true;
  }
  if (std::strcmp(Name, "native") == 0) {
    Out = SimBackend::Native;
    return true;
  }
  return false;
}

/// Process-default backend: DAECC_SIM_BACKEND={switch,threaded,native} when
/// set, otherwise Threaded. An unknown value is a hard configuration error
/// (exit 2), not a silent fall-back: a sweep that thinks it measured the
/// native backend but silently ran threaded would produce wrong conclusions.
/// The bench drivers' --sim-backend= flag overrides this per run (see
/// bench/BenchUtil.h).
inline SimBackend defaultSimBackend() {
  if (const char *Env = std::getenv("DAECC_SIM_BACKEND")) {
    SimBackend B;
    if (simBackendFromName(Env, B))
      return B;
    std::fprintf(stderr,
                 "error: unknown DAECC_SIM_BACKEND value '%s' (expected %s)\n",
                 Env, simBackendValidValues());
    std::exit(2);
  }
  return SimBackend::Threaded;
}

/// Exact log2 of a power-of-two cache line size. Throws std::invalid_argument
/// for zero or non-power-of-two values: a silently rounded-up shift (the old
/// behaviour) would make set indexing use a different line granularity than
/// every byte-address / LineBytes consumer (e.g. the timing replay's
/// PhaseCapture), so bad geometry must be rejected, not papered over.
inline unsigned lineShiftOf(std::uint64_t LineBytes) {
  if (LineBytes == 0 || (LineBytes & (LineBytes - 1)) != 0)
    throw std::invalid_argument("cache LineBytes must be a power of two");
  unsigned R = 0;
  while ((1ull << R) < LineBytes)
    ++R;
  return R;
}

/// One cache level.
struct CacheConfig {
  std::uint64_t SizeBytes;
  unsigned Assoc;
  unsigned LineBytes = 64;
};

/// The simulated machine.
struct MachineConfig {
  unsigned NumCores = 4;

  /// Has no effect; deleted in the next benchmark revision.
  unsigned SimThreads = 1;

  /// Functional execution backend (CLI: --sim-backend={switch,threaded,
  /// native} / DAECC_SIM_BACKEND). Threaded is the default; Switch keeps the
  /// reference interpreter; Native compiles the bytecode to host code.
  /// Simulated results are bit-identical for every choice.
  SimBackend Backend = defaultSimBackend();

  // Private per-core L1/L2, shared LLC. The geometry is a proportionally
  // scaled-down Sandybridge (1/4-1/16 capacity at equal associativity):
  // workload footprints are scaled down by the same factor so cache-relative
  // behaviour — the quantity the DAE evaluation depends on — is preserved
  // while simulations stay interactive (see DESIGN.md, substitution table).
  CacheConfig L1{16 * 1024, 8};
  CacheConfig L2{64 * 1024, 8};
  CacheConfig LLC{256 * 1024, 16};

  // Core-clocked effective instruction costs (cycles; scale with
  // frequency). These are amortized superscalar costs: a ~3-wide
  // out-of-order core retires simple address arithmetic at ~3 per cycle,
  // while FP ops and (unpipelined) divides cost more.
  double SimpleOpCycles = 0.34;
  double FpOpCycles = 1.0;
  double DivCycles = 10.0;

  // Core-clocked hit latencies (cycles; scale with frequency). Amortized for
  // pipelined independent accesses rather than raw load-to-use latency.
  double L1HitCycles = 1.5;
  double L2HitCycles = 8.0;
  double LLCHitCycles = 30.0;

  // Wall-clock DRAM latency (ns; frequency independent).
  double MemLatencyNs = 80.0;

  /// Effective overlap of outstanding demand-load misses (out-of-order
  /// window MLP); each LLC-missing load stalls MemLatencyNs / LoadMlp.
  double LoadMlp = 2.0;
  /// Software prefetches do not stall retirement (section 3.1) and overlap
  /// much more deeply; they are throughput-limited to MemLatencyNs /
  /// PrefetchMlp each.
  double PrefetchMlp = 8.0;
  /// Store misses are read-for-ownership transactions: the line must be
  /// fetched like a demand load before the write retires from the buffer.
  double StoreMlp = 2.0;

  /// Hardware next-line prefetcher: a demand DRAM miss also pulls the
  /// following line into the L2, so sequential streams miss roughly every
  /// other line. Software (DAE) prefetching remains uniquely able to cover
  /// irregular and indirect patterns.
  bool HwNextLinePrefetch = true;

  /// DVFS ladder, fmin..fmax (GHz), 400 MHz steps as in section 6.2.
  std::vector<double> FrequenciesGHz{1.6, 2.0, 2.4, 2.8, 3.2, 3.4};

  /// Per-core DVFS ladders for heterogeneous (big.LITTLE-style) topologies.
  /// Core C runs on CoreLadders[C] when C < CoreLadders.size(), else on the
  /// machine-wide FrequenciesGHz ladder — so the default (empty) keeps every
  /// core on the homogeneous ladder and every existing consumer bit-exact.
  /// Each entry must be non-empty and sorted ascending (like FrequenciesGHz);
  /// a single-entry ladder pins the core to one operating point.
  std::vector<std::vector<double>> CoreLadders;

  /// Shared DRAM channel bandwidth (GB/s == bytes/ns) for the multi-core
  /// contention timeline: concurrent LLC misses queue on the channel, each
  /// occupying it for LineBytes / DramBandwidthGBs ns. <= 0 disables the
  /// queue (infinite bandwidth — the single-workload engine's model, which
  /// prices DRAM misses by latency/MLP only).
  double DramBandwidthGBs = 12.8;

  /// Frequency transition latency (ns); 500 for current hardware, 0 for the
  /// ideal future-hardware study.
  double DvfsTransitionNs = 500.0;

  double fmin() const { return FrequenciesGHz.front(); }
  double fmax() const { return FrequenciesGHz.back(); }

  /// The DVFS ladder core \p Core runs on (see CoreLadders).
  const std::vector<double> &ladder(unsigned Core) const {
    return Core < CoreLadders.size() ? CoreLadders[Core] : FrequenciesGHz;
  }
  double fminOf(unsigned Core) const { return ladder(Core).front(); }
  double fmaxOf(unsigned Core) const { return ladder(Core).back(); }

  /// \p FreqGHz clamped into core \p Core's ladder range [fminOf, fmaxOf].
  /// A single-entry ladder clamps every query to its one operating point.
  double clampToLadder(unsigned Core, double FreqGHz) const {
    double Lo = fminOf(Core), Hi = fmaxOf(Core);
    return FreqGHz < Lo ? Lo : FreqGHz > Hi ? Hi : FreqGHz;
  }

  /// The lowest ladder rung of core \p Core at or above \p FreqGHz (clamped
  /// to fmaxOf for targets beyond the ladder) — cpufreq's CPUFREQ_RELATION_L
  /// pick, used by the ondemand governor's target selection.
  double rungAtOrAbove(unsigned Core, double FreqGHz) const {
    for (double F : ladder(Core))
      if (F >= FreqGHz)
        return F;
    return fmaxOf(Core);
  }

  /// Configures a heterogeneous big.LITTLE topology: cores [0, NumBig) keep
  /// the machine-wide ladder, cores [NumBig, NumBig + NumLittle) run an
  /// efficiency ladder spanning 0.6-1.4 GHz (after the ARM big.LITTLE DAE
  /// study, arXiv:1701.05478). Sets NumCores = NumBig + NumLittle.
  void makeBigLittle(unsigned NumBig, unsigned NumLittle) {
    NumCores = NumBig + NumLittle;
    CoreLadders.assign(NumBig, FrequenciesGHz);
    CoreLadders.insert(CoreLadders.end(), NumLittle,
                       std::vector<double>{0.6, 0.8, 1.0, 1.2, 1.4});
  }

  /// Sandybridge-like V-f curve: ~0.93 V at 1.6 GHz, ~1.25 V at 3.4 GHz.
  /// Defined for every input: frequencies off the DVFS ladder are clamped to
  /// [fmin, fmax] first, so an out-of-range query (a sweep overshooting the
  /// ladder, a 0 GHz sentinel) prices the nearest real operating point
  /// instead of extrapolating the linear fit to nonsense voltages.
  double voltageAt(double FreqGHz) const {
    if (FreqGHz < fmin())
      FreqGHz = fmin();
    else if (FreqGHz > fmax())
      FreqGHz = fmax();
    return 0.65 + 0.175 * FreqGHz;
  }

  /// Per-core V-f: the same linear curve, clamped to core \p Core's ladder —
  /// a little core's voltage tops out at its own fmax, not the big ladder's,
  /// so off-ladder queries on heterogeneous topologies price the nearest
  /// operating point that core actually has.
  double voltageAt(unsigned Core, double FreqGHz) const {
    return 0.65 + 0.175 * clampToLadder(Core, FreqGHz);
  }
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_MACHINECONFIG_H
