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

template <bool WithCapture, bool WithL1Hits>
void replayLoop(const std::uint64_t *E, const std::uint64_t *End,
                CacheHierarchy &Caches, unsigned Core,
                const ReplayCostModel &Costs, PhaseStats &S, PhaseCapture *Cap,
                unsigned LineShift, std::uint64_t *L1Hits) {
  // Each event only counts; priceEvents prices the phase once at the end.
  std::uint64_t Counts[12] = {};
  // Capture records a phase's lines, not its events: a direct-mapped filter
  // of already-recorded lines skips most repeats. A collision only evicts,
  // so a line may be recorded more than once but is never dropped; the
  // runtime's final sort/unique removes the repeats.
  std::uint64_t Recorded[WithCapture ? CaptureFilterLines : 1];
  if (WithCapture)
    std::fill(std::begin(Recorded), std::end(Recorded), ~0ull);
  // L1 outcomes: the word being filled stays in a register and is stored
  // once per 64 events, plus once for a partial last word.
  std::uint64_t HitWord = 0;
  unsigned HitBit = 0;
  for (; E != End; ++E) {
    std::uint64_t Event = *E;
    unsigned Kind = static_cast<unsigned>(Event >> 62);
    std::uint64_t Addr = Event & AccessTrace::AddrMask;
    HitLevel Level = Caches.access(Core, Addr);
    unsigned Idx = Kind * 4 + static_cast<unsigned>(Level);
    assert(Idx < 12 && "unknown access kind");
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
    if (WithL1Hits) {
      HitWord |= static_cast<std::uint64_t>(Level == HitLevel::L1) << HitBit;
      if (++HitBit == 64) {
        *L1Hits++ = HitWord;
        HitWord = 0;
        HitBit = 0;
      }
    }
  }
  if (WithL1Hits && HitBit != 0)
    *L1Hits = HitWord;
  priceEvents(S, Counts, Costs);
}

} // namespace

void runtime::replayTrace(const AccessTrace &Tr, CacheHierarchy &Caches,
                          unsigned Core, const ReplayCostModel &Costs,
                          PhaseStats &S, PhaseCapture *Cap,
                          unsigned LineShift,
                          std::vector<std::uint64_t> *L1Hits) {
  const std::uint64_t *E = Tr.events().data();
  const std::uint64_t *End = E + Tr.events().size();
  if (L1Hits) {
    L1Hits->assign((Tr.size() + 63) / 64, 0);
    if (Cap)
      replayLoop<true, true>(E, End, Caches, Core, Costs, S, Cap, LineShift,
                             L1Hits->data());
    else
      replayLoop<false, true>(E, End, Caches, Core, Costs, S, nullptr,
                              LineShift, L1Hits->data());
  } else if (Cap) {
    replayLoop<true, false>(E, End, Caches, Core, Costs, S, Cap, LineShift,
                            nullptr);
  } else {
    replayLoop<false, false>(E, End, Caches, Core, Costs, S, nullptr,
                             LineShift, nullptr);
  }
}
