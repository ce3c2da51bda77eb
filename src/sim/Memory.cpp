//===- sim/Memory.cpp - Simulated flat memory -------------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "sim/Memory.h"

#include "ir/Module.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>

#include <sys/mman.h>

using namespace dae;
using namespace dae::sim;

static const std::uint8_t ZeroPage[Memory::PageSize] = {};

Memory::~Memory() {
  if (Arena)
    munmap(Arena, Size);
}

void Memory::resize(std::uint64_t NewSize) {
  // Anonymous mappings are zero-filled on demand.
  void *P = mmap(nullptr, NewSize, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED) {
    std::fprintf(stderr, "error: cannot map %llu bytes of simulated memory\n",
                 static_cast<unsigned long long>(NewSize));
    std::abort();
  }
  if (Arena) {
    // Writing a page makes it resident, so copy only pages with data.
    for (std::uint64_t Off = 0; Off != Size; Off += PageSize)
      if (std::memcmp(Arena + Off, ZeroPage, PageSize) != 0)
        std::memcpy(static_cast<std::uint8_t *>(P) + Off, Arena + Off,
                    PageSize);
    munmap(Arena, Size);
  }
  Arena = static_cast<std::uint8_t *>(P);
  Size = NewSize;
}

Memory &Memory::bind(const Loader &L) {
  if (Bound) {
    assert(L.footprintBegin() == Lo && L.footprintEnd() == End &&
           "memory already bound to another footprint");
    return *this;
  }
  Lo = L.footprintBegin();
  End = L.footprintEnd();
  Limit = End - Lo >= 8 ? End - Lo - 7 : 0;
  if (End > Size)
    resize((End + PageSize - 1) & ~(PageSize - 1));
  Bound = true;
  return *this;
}

std::uint8_t *Memory::hostPtr(std::uint64_t Addr) {
  if (Bound ? Addr - Lo >= Limit : Addr > ~0ull - 8)
    outOfBounds(Addr);
  if (Addr + 8 > Size)
    resize(std::max((Addr + 8 + PageSize - 1) & ~(PageSize - 1), 2 * Size));
  return Arena + Addr;
}

void Memory::outOfBounds(std::uint64_t Addr) const {
  std::fprintf(stderr,
               "error: simulated access at 0x%llx is outside the memory "
               "footprint [0x%llx, 0x%llx)\n",
               static_cast<unsigned long long>(Addr),
               static_cast<unsigned long long>(Lo),
               static_cast<unsigned long long>(End));
  std::abort();
}

std::uint64_t Memory::imageHash() const {
  std::uint64_t H = 1469598103934665603ull; // FNV-1a offset basis.
  auto feed = [&H](const std::uint8_t *Data, std::uint64_t Len) {
    for (std::uint64_t I = 0; I != Len; ++I) {
      H ^= Data[I];
      H *= 1099511628211ull;
    }
  };
  for (std::uint64_t Idx = 0; Idx != Size / PageSize; ++Idx) {
    const std::uint8_t *P = Arena + Idx * PageSize;
    if (std::memcmp(P, ZeroPage, PageSize) == 0)
      continue;
    std::uint8_t IdxBytes[8];
    std::memcpy(IdxBytes, &Idx, 8);
    feed(IdxBytes, 8);
    feed(P, PageSize);
  }
  return H;
}

Loader::Loader(const ir::Module &M) {
  std::uint64_t Cursor = 0x10000;
  Begin = End = Cursor;
  for (const auto &G : M.globals()) {
    Bases[G.get()] = Cursor;
    ByName[G->getName()] = Cursor;
    // Line-align and pad so unrelated arrays never share a cache line.
    End = Cursor + ((G->getSizeInBytes() + 63) & ~63ull);
    Cursor = End + 64;
  }
}

std::uint64_t Loader::baseOf(const ir::GlobalVariable *G) const {
  auto It = Bases.find(G);
  assert(It != Bases.end() && "global not loaded");
  return It->second;
}

std::uint64_t Loader::baseOf(const std::string &Name) const {
  auto It = ByName.find(Name);
  assert(It != ByName.end() && "global not loaded");
  return It->second;
}
