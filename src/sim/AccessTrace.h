//===- sim/AccessTrace.h - Recorded memory access stream --------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ordered stream of memory accesses one phase performed, recorded by the
/// interpreter's tracing mode and replayed through the cache hierarchy by the
/// runtime's timing pass. Cache hit/miss outcomes never influence computed
/// values, only timing statistics — so each phase runs functionally first
/// and the cache model consumes its trace afterwards, in schedule order
/// (runtime/Replay.h). The three execution backends only append events; one
/// replay loop charges all cache timing, and the same trace can be retained
/// for a co-run timeline or scanned by the correctness oracle.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_ACCESSTRACE_H
#define DAECC_SIM_ACCESSTRACE_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <vector>

namespace dae {
namespace sim {

/// Has no effect; deleted in the next benchmark revision.
class TracePool {
public:
  static TracePool &global() {
    static TracePool Pool;
    return Pool;
  }
};

/// One phase's memory accesses, packed one event per 64-bit word: the access
/// kind in the top two bits, the byte address below. Simulated addresses come
/// from the Loader (base 0x10000 plus footprints far below 2^62), so the tag
/// bits are always free.
class AccessTrace {
public:
  enum class Kind : std::uint64_t { Load = 0, Store = 1, Prefetch = 2 };

  static constexpr std::uint64_t AddrMask = (1ull << 62) - 1;

  void push(Kind K, std::uint64_t Addr) {
    assert((Addr & ~AddrMask) == 0 && "simulated address overflows tag bits");
    // Explicit reserve-doubling instead of the library's growth policy: the
    // policy is then identical across standard libraries and matches the
    // native backend's nativeGrow, and the branch is a single predictable
    // compare in the hot loop (almost never taken once a reused buffer has
    // grown to the run's largest phase).
    if (Events.size() == Events.capacity())
      Events.reserve(Events.capacity() ? Events.capacity() * 2 : MinReserve);
    Events.push_back((static_cast<std::uint64_t>(K) << 62) |
                     (Addr & AddrMask));
  }

  static Kind kindOf(std::uint64_t Event) {
    return static_cast<Kind>(Event >> 62);
  }
  static std::uint64_t addrOf(std::uint64_t Event) { return Event & AddrMask; }

  const std::vector<std::uint64_t> &events() const { return Events; }
  bool empty() const { return Events.empty(); }
  std::size_t size() const { return Events.size(); }
  /// Empties the trace and keeps its capacity for the next phase.
  void clear() { Events.clear(); }
  /// Frees the storage. The TracePool argument has no effect; deleted in the
  /// next benchmark revision.
  void releaseTo(TracePool &) { std::vector<std::uint64_t>().swap(Events); }

  /// \name Raw-cursor protocol for the native backend
  /// Generated code appends events through a raw write pointer instead of
  /// push(), with the capacity check hoisted to one compare per straight-line
  /// region. The vector is resized to its full capacity while the cursor is
  /// out (so raw writes land inside [data(), data()+size()) — well-defined
  /// and sanitizer-clean) and trimmed back to the recorded length on commit.
  /// @{

  /// Opens the cursor: ensures at least \p HintEvents of headroom, exposes
  /// the full capacity, and returns the next write slot. Pair every
  /// nativeBegin with exactly one nativeCommit.
  std::uint64_t *nativeBegin(std::size_t HintEvents) {
    std::size_t N = Events.size();
    if (Events.capacity() < N + HintEvents)
      Events.reserve(std::max(Events.capacity() * 2, N + HintEvents));
    if (Events.capacity() == 0)
      Events.reserve(MinReserve);
    Events.resize(Events.capacity());
    return Events.data() + N;
  }

  /// One past the writable storage for the open cursor.
  std::uint64_t *nativeEnd() { return Events.data() + Events.size(); }

  /// Closes the cursor: \p Ptr is the final write position; everything below
  /// it is recorded, the exposed slack above it is discarded.
  void nativeCommit(std::uint64_t *Ptr) {
    assert(Ptr >= Events.data() && Ptr <= Events.data() + Events.size() &&
           "native trace cursor out of bounds");
    Events.resize(static_cast<std::size_t>(Ptr - Events.data()));
  }

  /// Grows an open cursor that is about to overflow: commits at \p Ptr,
  /// doubles (at least \p NeededEvents more), reopens, and returns the new
  /// write position.
  std::uint64_t *nativeGrow(std::uint64_t *Ptr, std::size_t NeededEvents) {
    nativeCommit(Ptr);
    return nativeBegin(NeededEvents);
  }
  /// @}

private:
  /// First reservation of an empty trace (64 events = one cache line of
  /// slack past the typical tiny-phase trace).
  static constexpr std::size_t MinReserve = 64;

  std::vector<std::uint64_t> Events;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_ACCESSTRACE_H
