//===- runtime/Replay.cpp - Trace replay fast path --------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "runtime/Replay.h"

#include <algorithm>
#include <cassert>
#include <iterator>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

ReplayCostModel::ReplayCostModel(const MachineConfig &Cfg)
    : CycleAdd{}, StallAdd{} {
  auto At = [](AccessTrace::Kind K, HitLevel L) {
    return static_cast<unsigned>(K) * 4 + static_cast<unsigned>(L);
  };
  // Loads: hit cycles per level; DRAM misses stall with demand-load MLP.
  CycleAdd[At(AccessTrace::Kind::Load, HitLevel::L1)] = Cfg.L1HitCycles;
  CycleAdd[At(AccessTrace::Kind::Load, HitLevel::L2)] = Cfg.L2HitCycles;
  CycleAdd[At(AccessTrace::Kind::Load, HitLevel::LLC)] = Cfg.LLCHitCycles;
  StallAdd[At(AccessTrace::Kind::Load, HitLevel::Memory)] =
      Cfg.MemLatencyNs / Cfg.LoadMlp;
  // Stores: buffered writes hide L1 hits entirely and half the deeper hit
  // latencies; RFO misses stall like demand loads.
  CycleAdd[At(AccessTrace::Kind::Store, HitLevel::L2)] =
      Cfg.L2HitCycles * 0.5;
  CycleAdd[At(AccessTrace::Kind::Store, HitLevel::LLC)] =
      Cfg.LLCHitCycles * 0.5;
  StallAdd[At(AccessTrace::Kind::Store, HitLevel::Memory)] =
      Cfg.MemLatencyNs / Cfg.StoreMlp;
  // Prefetches never stall retirement; they are throughput-limited by their
  // MLP (section 3.1), priced in wall-clock ns.
  StallAdd[At(AccessTrace::Kind::Prefetch, HitLevel::LLC)] =
      Cfg.LLCHitCycles / Cfg.fmax() / Cfg.PrefetchMlp;
  StallAdd[At(AccessTrace::Kind::Prefetch, HitLevel::Memory)] =
      Cfg.MemLatencyNs / Cfg.PrefetchMlp;
}

namespace {

template <bool WithCapture>
void replayLoop(const std::uint64_t *E, const std::uint64_t *End,
                CacheHierarchy &Caches, unsigned Core,
                const ReplayCostModel &Costs, PhaseStats &S, PhaseCapture *Cap,
                unsigned LineShift) {
  // Accumulate in registers, seeded from (and stored back to) the phase's
  // running totals: the adds happen in the same order with the same values
  // as the per-event `S.x += cost` reference, so the result is bit-exact.
  double Cycles = S.ComputeCycles;
  double StallNs = S.StallNs;
  std::uint64_t Counts[12] = {};
  // Capture records a phase's lines, not its events: a direct-mapped filter
  // of already-recorded lines skips most repeats. A collision only evicts,
  // so a line may be recorded more than once but is never dropped; the
  // runtime's final sort/unique removes the repeats.
  std::uint64_t Recorded[WithCapture ? CaptureFilterLines : 1];
  if (WithCapture)
    std::fill(std::begin(Recorded), std::end(Recorded), ~0ull);
  for (; E != End; ++E) {
    std::uint64_t Event = *E;
    unsigned Kind = static_cast<unsigned>(Event >> 62);
    std::uint64_t Addr = Event & AccessTrace::AddrMask;
    HitLevel Level = Caches.access(Core, Addr);
    unsigned Idx = Kind * 4 + static_cast<unsigned>(Level);
    assert(Idx < 12 && "unknown access kind");
    Cycles += Costs.CycleAdd[Idx];
    StallNs += Costs.StallAdd[Idx];
    ++Counts[Idx];
    if (WithCapture) {
      std::uint64_t Line = Addr >> LineShift;
      std::uint64_t &Slot = Recorded[Line & (CaptureFilterLines - 1)];
      if (Slot != Line) {
        Slot = Line;
        Cap->Lines.push_back(Line);
      }
      if (Level == HitLevel::Memory &&
          Kind == static_cast<unsigned>(AccessTrace::Kind::Load))
        Cap->MissLines.push_back(Line);
    }
  }
  S.ComputeCycles = Cycles;
  S.StallNs = StallNs;
  addHitCounts(S, Counts);
}

} // namespace

void runtime::replayTrace(const AccessTrace &Tr, CacheHierarchy &Caches,
                          unsigned Core, const ReplayCostModel &Costs,
                          PhaseStats &S, PhaseCapture *Cap,
                          unsigned LineShift) {
  const std::uint64_t *E = Tr.events().data();
  const std::uint64_t *End = E + Tr.events().size();
  if (Cap)
    replayLoop<true>(E, End, Caches, Core, Costs, S, Cap, LineShift);
  else
    replayLoop<false>(E, End, Caches, Core, Costs, S, nullptr, LineShift);
}
