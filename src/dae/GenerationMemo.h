//===- dae/GenerationMemo.h - Memoized access-phase generation --*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed cache in front of generateAccessPhase. The key has two
/// parts: a *task fingerprint* (the printed optimized task body plus the
/// name/size of every referenced global, so structurally identical tasks
/// from different workload instances share entries) and an *options
/// pattern*. The pattern is not a plain DaeOptions equality test: the
/// GenerationTrace reported by the generators proves which knobs the run
/// actually consulted, and knobs proven irrelevant are wildcarded. An
/// ablation sweep that flips a knob the task never exercises (raising a
/// hull-slack threshold that already accepts every class, toggling
/// SimplifyCfg on a conditional-free task, enabling a cold-load set that
/// intersects nothing, ...) therefore hits the cache instead of
/// regenerating.
///
/// Cached functions are held in a private module per entry and transplanted
/// (ir::transplantFunction) into the requesting module on a hit, so entries
/// survive the destruction of the module that first produced them — the
/// ablation drivers rebuild every workload per variant.
///
/// Thread-safe: drivers share one memo across concurrent harness jobs.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_DAE_GENERATIONMEMO_H
#define DAECC_DAE_GENERATIONMEMO_H

#include "dae/AccessGenerator.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace dae {

namespace ir {
class Function;
class Module;
} // namespace ir

/// Content fingerprint of an *optimized* task: the pipeline's cached print
/// of the body plus the name/size of every referenced global. Structurally
/// identical tasks from different workload instances fingerprint equal, so
/// the value keys both GenerationMemo entries and the profile-guided
/// refinement loop's AccessProfile records (dae/AccessProfile.h) — an
/// observation recorded against one module's task applies to its twin in
/// another. \p Task must already be optimized (passes::optimizeFunction);
/// the print is taken from \p FAM's cache.
std::string taskContentFingerprint(ir::Function &Task,
                                   pm::FunctionAnalysisManager &FAM);

/// Memoizing wrapper around generateAccessPhase. See file comment.
///
/// Entries live as long as the memo. A driver run holds at most one entry
/// per distinct (task, options pattern) it generated, so nothing is evicted.
class GenerationMemo {
public:
  GenerationMemo();
  GenerationMemo(const GenerationMemo &) = delete;
  GenerationMemo &operator=(const GenerationMemo &) = delete;
  ~GenerationMemo();

  /// Drop-in replacement for generateAccessPhase(M, Task, Opts, FAM):
  /// optimizes \p Task, then either transplants a cached access phase into
  /// \p M or generates (and caches) a fresh one. Results are identical to
  /// the unmemoized path by construction: a cached entry is only reused
  /// when every knob the original generation consulted matches. The task
  /// fingerprint reuses \p FAM's cached print of the optimized body, so
  /// memoized and unmemoized paths share one optimization + print.
  AccessPhaseResult generate(ir::Module &M, ir::Function &Task,
                             const DaeOptions &Opts,
                             pm::FunctionAnalysisManager &FAM);

  /// Convenience overload with a throwaway analysis cache.
  AccessPhaseResult generate(ir::Module &M, ir::Function &Task,
                             const DaeOptions &Opts);

  struct Stats {
    std::uint64_t Hits = 0;
    std::uint64_t Misses = 0;
    std::uint64_t Rejections = 0; ///< Uncacheable (rejected) tasks.
  };
  Stats stats() const;

  /// Cached entries currently held (diagnostics).
  std::size_t entryCount() const;

private:
  /// DaeOptions matcher: concrete on the knobs the generation consulted,
  /// wildcard on the knobs the GenerationTrace proved irrelevant.
  struct OptionsPattern {
    DaeOptions Ran; ///< Values the generation ran with (ColdLoads unused).
    std::string ColdFp; ///< Normalized cold-load fingerprint at run time.
    std::string RepFp;  ///< Effective representative-argument vector.

    bool AffineEngaged = false;
    bool SkeletonEngaged = false;
    bool GuardExact = false; ///< Guards is the complete class list.
    std::vector<GenerationTrace::ClassGuard> Guards;
    bool SplitClassesWild = false;
    bool MergeWild = false;
    bool SimplifyCfgWild = false;
    bool PrefetchWritesWild = false;

    bool matches(const DaeOptions &O, const std::string &OColdFp,
                 const std::string &ORepFp) const;
  };

  struct Entry {
    OptionsPattern Pattern;
    AccessPhaseResult Cached; ///< AccessFn points into Holder.
    std::unique_ptr<ir::Module> Holder;
  };

  mutable std::mutex Mutex;
  std::map<std::string, std::vector<Entry>> Entries; ///< By task fingerprint.
  Stats Counters;
};

} // namespace dae

#endif // DAECC_DAE_GENERATIONMEMO_H
