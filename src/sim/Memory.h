//===- sim/Memory.h - Simulated flat memory ---------------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Simulated memory: one contiguous, zero-filled arena indexed by simulated
/// address, plus a tiny loader that lays module globals out contiguously
/// from 0x10000. Task IR has no allocation instruction, so a program's data
/// is exactly its globals; their span is the *footprint*.
///
/// Workload initialization grows the arena through the host accessors. The
/// first interpreter to bind a MemoryView sizes it to the footprint and
/// fixes it: the arena never moves again, so every view can keep its base
/// address. From then on a load or store outside the footprint, from a view
/// or from the host, prints the address and the footprint and aborts.
/// Prefetches are never checked: they only append a trace event. Pages
/// nobody touches cost no resident memory.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SIM_MEMORY_H
#define DAECC_SIM_MEMORY_H

#include <cstdint>
#include <cstring>
#include <map>
#include <string>

namespace dae {

namespace ir {
class Module;
class GlobalVariable;
} // namespace ir

namespace sim {

class Loader;

/// The simulated address space: one arena covering addresses [0, size).
class Memory {
public:
  /// Granularity of the arena and of imageHash.
  static constexpr std::uint64_t PageSize = 4096;

  Memory() = default;
  ~Memory();
  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;

  /// Host-side accessors. Until a view binds they grow the arena to cover
  /// \p Addr (not thread safe); afterwards they are checked like a view's.
  std::int64_t loadI64(std::uint64_t Addr) {
    return readAt<std::int64_t>(hostPtr(Addr));
  }
  double loadF64(std::uint64_t Addr) { return readAt<double>(hostPtr(Addr)); }
  void storeI64(std::uint64_t Addr, std::int64_t V) {
    std::memcpy(hostPtr(Addr), &V, sizeof(V));
  }
  void storeF64(std::uint64_t Addr, double V) {
    std::memcpy(hostPtr(Addr), &V, sizeof(V));
  }

  /// FNV-1a hash of the program-visible memory image: every 4 KiB chunk
  /// with a nonzero byte, in ascending index order, hashed as (index,
  /// contents). All-zero chunks hash like untouched ones, so two runs differ
  /// only when they produced different *values*. Not thread safe against
  /// concurrent writers; call between runs.
  std::uint64_t imageHash() const;

  /// Prints \p Addr and the footprint to stderr, then aborts.
  [[noreturn]] void outOfBounds(std::uint64_t Addr) const;

private:
  friend class MemoryView;

  template <typename T> static T readAt(const std::uint8_t *P) {
    T V;
    std::memcpy(&V, P, sizeof(V));
    return V;
  }
  /// Sizes the arena to \p L's footprint and fixes it. Every bind of one
  /// Memory names the same footprint. Not thread safe.
  Memory &bind(const Loader &L);
  std::uint8_t *hostPtr(std::uint64_t Addr);
  /// Remaps the arena to \p NewSize bytes, keeping its contents.
  void resize(std::uint64_t NewSize);

  std::uint8_t *Arena = nullptr; ///< Host address of simulated address 0.
  std::uint64_t Size = 0;        ///< Mapped bytes, a page multiple.
  bool Bound = false;
  /// The footprint [Lo, End) once bound. Limit counts the valid 8-byte
  /// access starts: Addr is valid iff Addr - Lo < Limit (unsigned).
  std::uint64_t Lo = 0, End = 0, Limit = 0;
};

/// Assigns non-overlapping, line-aligned base addresses to every global of a
/// module and resolves them by name.
class Loader {
public:
  explicit Loader(const ir::Module &M);

  std::uint64_t baseOf(const ir::GlobalVariable *G) const;
  std::uint64_t baseOf(const std::string &Name) const;

  /// The footprint: the first global's base up to the line-aligned end of
  /// the last one. Empty for a module without globals.
  std::uint64_t footprintBegin() const { return Begin; }
  std::uint64_t footprintEnd() const { return End; }

private:
  std::map<const ir::GlobalVariable *, std::uint64_t> Bases;
  std::map<std::string, std::uint64_t> ByName;
  std::uint64_t Begin = 0, End = 0;
};

/// An interpreter's window into a bound Memory: the arena base and the
/// footprint bounds, so a load or store costs one subtract-and-compare plus
/// one add. Read-only after construction; one per interpreter.
class MemoryView {
public:
  MemoryView(Memory &M, const Loader &L)
      : M(M.bind(L)), Base(M.Arena), Lo(M.Lo), Limit(M.Limit) {}

  // Inline: these sit on the simulators' per-access hot path.
  std::uint8_t *ptr(std::uint64_t Addr) const {
    if (Addr - Lo >= Limit) [[unlikely]]
      M.outOfBounds(Addr);
    return Base + Addr;
  }
  std::int64_t loadI64(std::uint64_t Addr) const {
    return Memory::readAt<std::int64_t>(ptr(Addr));
  }
  double loadF64(std::uint64_t Addr) const {
    return Memory::readAt<double>(ptr(Addr));
  }
  void storeI64(std::uint64_t Addr, std::int64_t V) const {
    std::memcpy(ptr(Addr), &V, sizeof(V));
  }
  void storeF64(std::uint64_t Addr, double V) const {
    std::memcpy(ptr(Addr), &V, sizeof(V));
  }

  /// The bounds for generated code (sim/NativeExec.h): host address =
  /// base() + Addr, valid iff Addr - lo() < limit().
  std::uint8_t *base() const { return Base; }
  std::uint64_t lo() const { return Lo; }
  std::uint64_t limit() const { return Limit; }

private:
  const Memory &M;
  std::uint8_t *Base;
  std::uint64_t Lo, Limit;
};

} // namespace sim
} // namespace dae

#endif // DAECC_SIM_MEMORY_H
