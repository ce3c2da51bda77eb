//===- sim/CacheSim.h - Set-associative cache hierarchy ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A classic set-associative LRU cache model: private L1/L2 per core and a
/// shared LLC. Only tags are modeled (data lives in sim::Memory). The paper's
/// whole premise rides on this state: the access phase warms the private
/// hierarchy so the execute phase becomes compute-bound (section 3.1).
/// An access is a private half (L1, L2) and, on an L2 miss, a shared half
/// (LLC, next-line prefetch); see CacheHierarchy.
///
/// The hierarchy is only ever advanced by the runtime's timing replay, in
/// schedule order (see AccessTrace.h), so hit/miss outcomes stay
/// deterministic; each Cache is nonetheless cache-line aligned and stored by
/// value so the per-core mutable state (the LRU Tick in particular) of
/// different simulated cores never shares a host cache line.
///
/// The tag store is struct-of-arrays (tags and LRU stamps in separate dense
/// vectors) and access() is inline with a same-line-as-last-access short
/// circuit, because the replay loop streams tens of millions of events
/// through it per simulated run. Both are pure layout/speed changes: every
/// Tick increment, LRU stamp, hit count and victim choice is identical to
/// the scalar reference, so simulated profiles are bit-identical.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_CACHESIM_H
#define DAECC_SIM_CACHESIM_H

#include "sim/MachineConfig.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace dae {
namespace sim {

/// Where an access was satisfied.
enum class HitLevel { L1, L2, LLC, Memory };

/// One set-associative LRU cache level (tag store only).
class alignas(64) Cache {
public:
  /// Throws std::invalid_argument when Cfg.LineBytes is zero or not a power
  /// of two (see lineShiftOf; a silently rounded-up shift would desynchronize
  /// set indexing from every line-granular consumer).
  explicit Cache(const CacheConfig &Cfg);

  /// True on hit; on miss the line is installed (evicting LRU).
  bool access(std::uint64_t Addr) {
    std::uint64_t LineAddr = Addr >> LineShift;
    // Same-line fast path: the last-touched line is always resident (it was
    // installed even on a miss), so only its LRU stamp needs refreshing.
    // State updates match the full path exactly: one Tick per access, stamp
    // the way, count the hit.
    if (LineAddr == LastLineAddr) {
      Lrus[LastWay] = ++Tick;
      ++Hits;
      return true;
    }
    std::uint64_t Set = LineAddr & (NumSets - 1);
    std::size_t Base = static_cast<std::size_t>(Set) * Assoc;
    ++Tick;
    for (unsigned W = 0; W != Assoc; ++W) {
      if (Tags[Base + W] == LineAddr) {
        Lrus[Base + W] = Tick;
        ++Hits;
        LastLineAddr = LineAddr;
        LastWay = Base + W;
        return true;
      }
    }
    // Miss: evict the first invalid way, else the least recently used.
    std::size_t Victim = Base;
    for (unsigned W = 1; W != Assoc && Tags[Victim] != InvalidTag; ++W) {
      std::size_t I = Base + W;
      if (Tags[I] == InvalidTag || Lrus[I] < Lrus[Victim])
        Victim = I;
    }
    Tags[Victim] = LineAddr;
    Lrus[Victim] = Tick;
    ++Misses;
    LastLineAddr = LineAddr;
    LastWay = Victim;
    return false;
  }

  /// True when the line is present (no state change).
  bool probe(std::uint64_t Addr) const {
    std::uint64_t LineAddr = Addr >> LineShift;
    std::uint64_t Set = LineAddr & (NumSets - 1);
    std::size_t Base = static_cast<std::size_t>(Set) * Assoc;
    for (unsigned W = 0; W != Assoc; ++W)
      if (Tags[Base + W] == LineAddr)
        return true;
    return false;
  }

  /// Drops all lines.
  void flush();

  std::uint64_t hits() const { return Hits; }
  std::uint64_t misses() const { return Misses; }

private:
  /// Tag sentinel for an invalid way. Simulated line addresses are bounded
  /// by AccessTrace's 62-bit address space so a real tag can never collide.
  static constexpr std::uint64_t InvalidTag = ~0ull;

  unsigned LineShift;
  std::uint64_t NumSets;
  unsigned Assoc;
  /// Struct-of-arrays tag store: Tags[set*Assoc + way] / Lrus[...], so the
  /// hit scan touches one dense tag run instead of strided {Tag,Lru,Valid}
  /// records. Validity is Tags[I] != InvalidTag.
  std::vector<std::uint64_t> Tags;
  std::vector<std::uint64_t> Lrus;
  std::uint64_t Tick = 0;
  std::uint64_t Hits = 0, Misses = 0;
  /// Same-line short-circuit state (see access()).
  std::uint64_t LastLineAddr = InvalidTag;
  std::size_t LastWay = 0;
};

/// Shared DRAM channel bandwidth queue for the multi-core timeline: every
/// LLC miss occupies the channel for LineBytes / BandwidthGBs ns, so
/// concurrent misses from different cores serialize and the latecomer pays a
/// queuing delay on top of its DRAM latency. Purely deterministic: state is
/// one next-free timestamp, advanced in the global-time order the timeline
/// replays events in. BandwidthGBs <= 0 disables the queue (the
/// single-workload engine's infinite-bandwidth model).
class DramChannel {
public:
  /// Ceiling on the per-line occupancy. A subnormal BandwidthGBs can
  /// overflow LineBytes / BandwidthGBs to +inf, which would saturate
  /// NextFreeNs on the first request and poison every later queuing delay
  /// (inf, or NaN once subtracted). 1e18 ns (~31 simulated years per line)
  /// is far beyond any meaningful configuration yet leaves ~1e290 requests
  /// of headroom before the queue clock itself could overflow.
  static constexpr double MaxOccupancyNs = 1e18;

  DramChannel(double BandwidthGBs, unsigned LineBytes) {
    if (BandwidthGBs > 0.0) {
      double Occ = static_cast<double>(LineBytes) / BandwidthGBs;
      // !(Occ <= Max) also catches NaN from a pathological division.
      if (!(Occ <= MaxOccupancyNs))
        Occ = MaxOccupancyNs;
      OccupancyNs = Occ;
    }
    // BandwidthGBs <= 0 (or NaN): channel disabled, OccupancyNs stays 0 and
    // requestLine is byte-identical to having no channel at all.
  }

  /// Books a line transfer issued at \p NowNs; returns the queuing delay
  /// (ns) the requester waits before its DRAM latency starts.
  double requestLine(double NowNs) {
    if (OccupancyNs == 0.0)
      return 0.0;
    double Start = NowNs > NextFreeNs ? NowNs : NextFreeNs;
    NextFreeNs = Start + OccupancyNs;
    return Start - NowNs;
  }

  /// Channel time (ns) one line transfer occupies; 0 when unmodeled.
  double occupancyNs() const { return OccupancyNs; }

private:
  double OccupancyNs = 0.0;
  double NextFreeNs = 0.0;
};

/// Per-core L1/L2 over a shared LLC.
///
/// An access splits into a private half (accessPrivate: the core's own L1,
/// then accessL2) and, when that misses, a shared half (accessShared: the
/// LLC and the next-line prefetch); access() is their composition. The
/// private half reads and writes only the requesting core's caches, and the
/// shared half writes no L1 at all and no other core's L2 (the prefetched
/// line goes to the requester's own L2). So one core's private halves
/// commute with every other core's accesses, which is what lets the
/// multi-core timeline (runtime/Timeline.h) run each core ahead through its
/// private hits and order only the shared halves globally; and a core's L1
/// sees exactly its own access sequence, so the timeline takes each event's
/// L1 outcome from the solo replay and calls accessL2 on a miss. Coherence
/// or an inclusive LLC with back-invalidation would break both properties
/// (SimTest checks them).
class CacheHierarchy {
public:
  CacheHierarchy(const MachineConfig &Cfg, unsigned NumCores);

  /// Performs a (read or write) access from \p Core; returns the level that
  /// satisfied it and installs the line in every level above. On a DRAM
  /// miss, the hardware next-line prefetcher (when configured) also installs
  /// the successor line into the core's L2.
  HitLevel access(unsigned Core, std::uint64_t Addr) {
    HitLevel Level = accessPrivate(Core, Addr);
    return Level == HitLevel::LLC ? accessShared(Core, Addr) : Level;
  }

  /// The private half of access(): looks \p Addr up in \p Core's L1, then
  /// its L2, installing it where it missed. Returns L1 or L2 on a hit, and
  /// HitLevel::LLC when both missed: the access is then unfinished until
  /// accessShared() completes it.
  HitLevel accessPrivate(unsigned Core, std::uint64_t Addr) {
    assert(Core < L1s.size() && "core index out of range");
    return L1s[Core].access(Addr) ? HitLevel::L1 : accessL2(Core, Addr);
  }

  /// The private half of an access that missed \p Core's L1: looks \p Addr
  /// up in the core's L2, installing it on a miss. Returns L2 on a hit and
  /// HitLevel::LLC otherwise, as accessPrivate does.
  HitLevel accessL2(unsigned Core, std::uint64_t Addr) {
    assert(Core < L2s.size() && "core index out of range");
    return L2s[Core].access(Addr) ? HitLevel::L2 : HitLevel::LLC;
  }

  /// The shared half of access(), for an access whose private half missed:
  /// looks \p Addr up in the LLC, installing it on a miss. Returns LLC or
  /// Memory. On a DRAM miss, the hardware next-line prefetcher (when
  /// configured) also installs the successor line into \p Core's L2 and
  /// the LLC.
  HitLevel accessShared(unsigned Core, std::uint64_t Addr) {
    assert(Core < L2s.size() && "core index out of range");
    if (Llc.access(Addr))
      return HitLevel::LLC;
    if (NextLinePrefetch) {
      // Pull the successor line toward the core so a sequential stream only
      // pays DRAM latency on every other line.
      std::uint64_t NextLine = Addr + LineBytes;
      L2s[Core].access(NextLine);
      Llc.access(NextLine);
    }
    return HitLevel::Memory;
  }

  /// Drops all lines everywhere.
  void flush();

  Cache &l1(unsigned Core) { return L1s[Core]; }
  Cache &l2(unsigned Core) { return L2s[Core]; }
  Cache &llc() { return Llc; }

private:
  bool NextLinePrefetch;
  unsigned LineBytes;
  std::vector<Cache> L1s, L2s;
  Cache Llc;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_CACHESIM_H
