//===- support/RadixSort.h - LSD radix sort of 64-bit keys ------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Sorts unsigned 64-bit keys in linear time. The oracle capture
/// (runtime/Runtime.h) sorts millions of cache-line numbers per run, and the
/// lines of one run lie in the narrow span of its memory footprint: a radix
/// sort of each key's offset from the minimum needs only as many byte-wide
/// passes as that span has bytes, where a comparison sort pays log n per
/// key.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_SUPPORT_RADIXSORT_H
#define DAECC_SUPPORT_RADIXSORT_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace dae {

/// Sorts \p Keys ascending: an LSD radix sort of Keys[I] - min(Keys) with
/// 8-bit digits: one read of the keys counts every digit, then one scatter
/// pass runs per byte of max(Keys) - min(Keys) (none when all keys are
/// equal). \p Scratch
/// is working storage: its contents afterwards are unspecified, and the two
/// vectors may exchange buffers.
inline void radixSort(std::vector<std::uint64_t> &Keys,
                      std::vector<std::uint64_t> &Scratch) {
  if (Keys.empty())
    return;
  const auto [MinIt, MaxIt] = std::minmax_element(Keys.begin(), Keys.end());
  const std::uint64_t Min = *MinIt;
  const std::uint64_t Span = *MaxIt - Min;
  unsigned Passes = 0;
  while (Passes != 8 && Span >> (8 * Passes) != 0)
    ++Passes;

  // Every pass's digit histogram from one read of the keys.
  std::size_t Counts[8][256] = {};
  for (std::uint64_t K : Keys)
    for (unsigned P = 0; P != Passes; ++P)
      ++Counts[P][((K - Min) >> (8 * P)) & 255];

  Scratch.resize(Keys.size());
  for (unsigned P = 0; P != Passes; ++P) {
    std::size_t Next = 0;
    for (std::size_t &C : Counts[P]) {
      std::size_t N = C;
      C = Next;
      Next += N;
    }
    for (std::uint64_t K : Keys)
      Scratch[Counts[P][((K - Min) >> (8 * P)) & 255]++] = K;
    Keys.swap(Scratch);
  }
}

} // namespace dae

#endif // DAECC_SUPPORT_RADIXSORT_H
