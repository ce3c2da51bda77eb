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
#include <mutex>
#include <vector>

namespace dae {
namespace sim {

/// Free-list of trace storage buffers, shared across tasks and concurrently
/// running simulations. Traces are bulky and short-lived (one task phase
/// each); recycling their grown capacity removes the per-task allocation
/// churn. Purely a storage cache: trace *contents* never cross users, so
/// simulated results are unaffected.
///
/// Retention is bounded three ways: at most MaxPooled buffers, at most
/// MaxBufferBytes of capacity per buffer (one huge trace must not pin its
/// worst-case footprint forever), and at most MaxTotalBytes of capacity
/// across the whole free-list. Buffers over either byte cap are simply
/// freed on recycle.
class TracePool {
public:
  static constexpr std::size_t DefaultMaxPooled = 256;
  /// 8 MiB per buffer = 1M trace events; larger traces are outliers whose
  /// capacity should go back to the allocator.
  static constexpr std::size_t DefaultMaxBufferBytes = 8u << 20;
  /// 64 MiB total retained across the pool.
  static constexpr std::size_t DefaultMaxTotalBytes = 64u << 20;

  explicit TracePool(std::size_t MaxPooled = DefaultMaxPooled,
                     std::size_t MaxBufferBytes = DefaultMaxBufferBytes,
                     std::size_t MaxTotalBytes = DefaultMaxTotalBytes)
      : MaxPooled(MaxPooled), MaxBufferBytes(MaxBufferBytes),
        MaxTotalBytes(MaxTotalBytes) {}

  /// Process-wide pool (suite jobs in one process share one allocator
  /// anyway, so they share one free-list too), at the default caps. Traces a
  /// co-run retains are freed with their run, never recycled, so the
  /// free-list only absorbs per-task recycle traffic.
  static TracePool &global() {
    static TracePool Pool;
    return Pool;
  }

  /// Returns an empty buffer, reusing pooled capacity when available.
  std::vector<std::uint64_t> acquire() {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Free.empty())
      return {};
    std::vector<std::uint64_t> Buf = std::move(Free.back());
    Free.pop_back();
    RetainedBytes -= Buf.capacity() * sizeof(std::uint64_t);
    ++Reuses;
    return Buf;
  }

  /// Takes \p Buf back (cleared, capacity kept) unless pooling it would
  /// break a cap, in which case the storage is simply freed. The buffer's
  /// recorded length (before clearing) feeds the sizing hint the next
  /// acquirer pre-reserves against — the last trace's length is the best
  /// available predictor for the next one's.
  void recycle(std::vector<std::uint64_t> Buf) {
    const std::size_t Events = Buf.size();
    const std::size_t UsedBytes = Events * sizeof(std::uint64_t);
    Buf.clear();
    std::size_t Bytes = Buf.capacity() * sizeof(std::uint64_t);
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Events > 0)
      LastEvents = Events;
    if (UsedBytes > PeakBytes)
      PeakBytes = UsedBytes;
    if (Free.size() >= MaxPooled || Bytes > MaxBufferBytes ||
        RetainedBytes + Bytes > MaxTotalBytes)
      return;
    RetainedBytes += Bytes;
    Free.push_back(std::move(Buf));
  }

  std::uint64_t reuses() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Reuses;
  }

  /// Capacity bytes currently held in the free-list (testing/diagnostics).
  std::size_t retainedBytes() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return RetainedBytes;
  }

  /// Event count of the last non-empty recycled trace: the reserve hint
  /// AccessTrace::acquireFrom applies so hot-loop push never reallocates
  /// mid-trace in the steady state (tasks resemble their predecessors).
  std::size_t suggestedEvents() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return LastEvents;
  }

  /// High-water mark of a single trace's recorded bytes (size at recycle,
  /// not capacity) across the pool's lifetime; reported per run in the
  /// BENCH_*.json `interp` block.
  std::size_t peakBytes() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return PeakBytes;
  }

  /// Buffers currently pooled (testing/diagnostics).
  std::size_t pooledBuffers() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Free.size();
  }

private:
  const std::size_t MaxPooled;
  const std::size_t MaxBufferBytes;
  const std::size_t MaxTotalBytes;
  mutable std::mutex Mutex;
  std::vector<std::vector<std::uint64_t>> Free;
  std::size_t RetainedBytes = 0;
  std::size_t LastEvents = 0;
  std::size_t PeakBytes = 0;
  std::uint64_t Reuses = 0;
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
    // compare in the hot loop (almost never taken once acquireFrom has
    // applied the pool's sizing hint).
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
  void clear() { Events.clear(); }
  /// Releases the storage (traces are bulky; the runtime frees each one right
  /// after its replay).
  void release() { std::vector<std::uint64_t>().swap(Events); }

  /// Adopts pooled storage from \p Pool before recording begins and
  /// pre-reserves the pool's sizing hint (the last recycled trace's length),
  /// so steady-state recording never grows mid-trace.
  void acquireFrom(TracePool &Pool) {
    Events = Pool.acquire();
    std::size_t Hint = Pool.suggestedEvents();
    if (Hint > Events.capacity())
      Events.reserve(Hint);
  }
  /// Hands the storage back to \p Pool (replaces release() on hot paths).
  void releaseTo(TracePool &Pool) {
    Pool.recycle(std::move(Events));
    Events.clear();
  }

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
