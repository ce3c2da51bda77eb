//===- sim/CacheSim.cpp - Set-associative cache hierarchy ------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/CacheSim.h"

#include <stdexcept>

using namespace dae;
using namespace dae::sim;

namespace {

/// The set count of \p Cfg, whose LineBytes lineShiftOf has already
/// checked. Throws std::invalid_argument for a geometry Cache cannot index.
std::uint64_t numSetsOf(const CacheConfig &Cfg) {
  if (Cfg.Assoc == 0)
    throw std::invalid_argument("cache Assoc must be at least 1");
  std::uint64_t Sets =
      Cfg.SizeBytes / (std::uint64_t{Cfg.LineBytes} * Cfg.Assoc);
  if (Sets == 0)
    throw std::invalid_argument("cache SizeBytes must hold at least one set");
  if ((Sets & (Sets - 1)) != 0)
    throw std::invalid_argument("cache set count must be a power of two");
  return Sets;
}

} // namespace

Cache::Cache(const CacheConfig &Cfg)
    : LineShift(lineShiftOf(Cfg.LineBytes)), NumSets(numSetsOf(Cfg)),
      Assoc(Cfg.Assoc), Tags(NumSets * Cfg.Assoc, InvalidTag),
      Lrus(NumSets * Cfg.Assoc, 0) {}

void Cache::flush() {
  // An invalid way must hold stamp 0: the miss path's victim choice relies
  // on it (see CacheSim.h).
  Tags.assign(Tags.size(), InvalidTag);
  Lrus.assign(Lrus.size(), 0);
  Hits = Misses = 0;
  LastLineAddr = InvalidTag;
  LastWay = 0;
}

CacheHierarchy::CacheHierarchy(const MachineConfig &Cfg, unsigned NumCores)
    : NextLinePrefetch(Cfg.HwNextLinePrefetch), LineBytes(Cfg.L1.LineBytes),
      Llc(Cfg.LLC) {
  L1s.reserve(NumCores);
  L2s.reserve(NumCores);
  for (unsigned I = 0; I != NumCores; ++I) {
    L1s.emplace_back(Cfg.L1);
    L2s.emplace_back(Cfg.L2);
  }
}

void CacheHierarchy::flush() {
  for (Cache &C : L1s)
    C.flush();
  for (Cache &C : L2s)
    C.flush();
  Llc.flush();
}
