//===- runtime/Replay.h - Trace replay fast path ----------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache-timing replay hot loop: streams a recorded AccessTrace through
/// the CacheHierarchy and accumulates the cache-dependent statistics of one
/// phase. This is the sequential half of the simulation engine — every event
/// of every task goes through it, in schedule order — so it is built for
/// throughput:
///
///  * the per-(kind, level) cost model is precomputed once per run into flat
///    lookup tables (ReplayCostModel), collapsing the per-event double switch
///    into two table-indexed adds;
///  * hit-level counters accumulate into a dense local array and flush once
///    per trace (integer sums are order-independent);
///  * the oracle-capture and L1-outcome branches are hoisted out of the loop
///    (specialized instantiations instead of per-event tests), and the
///    capture records each phase's lines rather than its events
///    (CaptureFilterLines), which TaskRuntime::execute then radix-sorts in
///    linear time. A run that neither captures nor retains its traces runs
///    the plain loop.
///
/// The floating-point accumulation order is exactly the scalar reference's —
/// one add per event, in trace order, of bit-identical addends — so profiles
/// are unchanged down to the last ulp (pinned by SnapshotTest's golden
/// hashes). Exposed as a header so bench/micro_replay.cpp can drive the loop
/// in isolation.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_RUNTIME_REPLAY_H
#define DAECC_RUNTIME_REPLAY_H

#include "runtime/Runtime.h"
#include "sim/AccessTrace.h"
#include "sim/PhaseStats.h"

namespace dae {
namespace runtime {

/// Precomputed per-(access kind, hit level) cost tables, indexed
/// [kind * 4 + level] with kind in {Load=0, Store=1, Prefetch=2} and level in
/// {L1=0, L2=1, LLC=2, Memory=3}. Entries that the reference model does not
/// charge are 0.0 (adding +0.0 to a non-negative accumulator is exact).
struct ReplayCostModel {
  double CycleAdd[12];
  double StallAdd[12];

  explicit ReplayCostModel(const sim::MachineConfig &Cfg);
};

/// Entries of the direct-mapped filter through which a captured replay
/// records lines (indexed by the line's low bits): a line already in its slot
/// is not appended again, so PhaseCapture::Lines grows with a phase's
/// distinct lines instead of its events. A collision evicts the slot's line,
/// so a line can be appended more than once but never dropped.
constexpr unsigned CaptureFilterLines = 4096;

/// Adds per-(kind, level) event counts, indexed like ReplayCostModel's
/// tables, to \p S's hit counters. Demand (load/store) hits count per level;
/// prefetch hits are free and uncounted, but prefetch DRAM fills do count as
/// memory accesses.
inline void addHitCounts(sim::PhaseStats &S,
                         const std::uint64_t (&Counts)[12]) {
  S.L1Hits += Counts[0] + Counts[4];
  S.L2Hits += Counts[1] + Counts[5];
  S.LLCHits += Counts[2] + Counts[6];
  S.MemAccesses += Counts[3] + Counts[7] + Counts[11];
}

/// Streams \p Tr through \p Caches as \p Core, adding the cache-dependent
/// statistics to \p S under \p Costs. When \p Cap is non-null, every event's
/// cache line (byte address >> \p LineShift) lands in Cap->Lines at least
/// once (repeats are filtered, not removed; TaskRuntime::execute sorts and
/// dedupes) and every DRAM-missing demand load in Cap->MissLines (oracle
/// capture; has no effect on any simulated outcome). When \p L1Hits is
/// non-null it is resized to ceil(events / 64) words and bit I % 64 of word
/// I / 64 is set exactly when event I hit \p Core's L1 (see TaskTraces;
/// also observational). This is the only place cache timing is charged: the
/// interpreters record accesses, and every profile's hit levels, hit cycles
/// and stalls come from here.
void replayTrace(const sim::AccessTrace &Tr, sim::CacheHierarchy &Caches,
                 unsigned Core, const ReplayCostModel &Costs,
                 sim::PhaseStats &S, PhaseCapture *Cap = nullptr,
                 unsigned LineShift = 6,
                 std::vector<std::uint64_t> *L1Hits = nullptr);

} // namespace runtime
} // namespace dae

#endif // DAECC_RUNTIME_REPLAY_H
