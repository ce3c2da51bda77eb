//===- dae/DaeOptions.h - Access generation knobs ---------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every decision the paper discusses is a switch here, so the ablation
/// benches can reproduce the design-space arguments of sections 5.1-5.2:
/// convex union vs. memory-range analysis, the NconvUn <= NOrig (+th) guard,
/// class separation, nest merging, CFG simplification, the
/// discard-the-stores finding, and the cache-line-granularity future work.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_DAE_DAEOPTIONS_H
#define DAECC_DAE_DAEOPTIONS_H

#include <cstdint>
#include <set>
#include <vector>

namespace dae {

namespace ir {
class Instruction;
} // namespace ir

/// Configuration of the access-phase generators.
struct DaeOptions {
  // --- Affine path (section 5.1) ---

  /// Use the convex union of exact per-instruction access sets (5.1.2); when
  /// false, fall back to the memory-range (bounding box) analysis (5.1.1).
  bool UseConvexUnion = true;

  /// Slack "th" in the guard NconvUn - th <= NOrig. 0 reproduces the paper's
  /// default decision rule.
  std::int64_t HullSlackThreshold = 0;

  /// Separate accesses into classes by parameter signature before hulling
  /// (5.1 item 3, Listing 3 / Figure 2).
  bool SplitClasses = true;

  /// Merge per-class prefetch loop nests when their trip counts coincide
  /// (5.1 items 2-3, Listings 2(b), 3(b)).
  bool MergeLoopNests = true;

  // --- Skeleton path (section 5.2) ---

  /// Eliminate conditionals inside loop bodies that do not feed loop control
  /// (5.2.2 step 6). When false the skeleton keeps data-dependent control
  /// flow, replicating part of the computation.
  bool SimplifyCfg = true;

  /// Prefetch addresses that are only written. The paper found this does not
  /// help and discards stores (5.2.1); kept as a switch for the ablation.
  bool PrefetchWrites = false;

  /// Profile-guided selective prefetching (the refinement the paper
  /// proposes in sections 5.2.2/6.2.3): loads of the *original* task listed
  /// here rarely miss in practice, so the skeleton generator emits no
  /// prefetch for them (they may still survive as address computation).
  /// Null disables the feature.
  const std::set<const ir::Instruction *> *ColdLoads = nullptr;

  // --- Shared ---

  /// Issue one prefetch per 64-byte cache line instead of per element in
  /// generated affine nests (5.2.3 "avenue of further optimizations").
  bool PrefetchPerCacheLine = false;

  /// Representative values for the task's integer arguments, used to
  /// evaluate NOrig / NconvUn (our stand-in for parametric Ehrhart
  /// evaluation; see DESIGN.md). Indexed by argument position; entries for
  /// pointer arguments are ignored.
  std::vector<std::int64_t> RepresentativeArgs;
};

} // namespace dae

#endif // DAECC_DAE_DAEOPTIONS_H
