//===- pm/AnalysisManager.h - Cached function analyses ----------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// LLVM-new-PM-style analysis caching for the compilation pipeline. A
/// FunctionAnalysisManager memoizes analysis results keyed by
/// (function, analysis). There is one invalidation rule: whatever changes a
/// function drops every cached result of that function (clear), so a cached
/// ScalarEvolution never outlives the LoopInfo it references. The pass
/// manager applies the rule after every pass that reports a change.
///
/// An analysis is any type with this shape:
///
///   struct MyAnalysis {
///     using Result = ...;                       // movable
///     static inline AnalysisKey Key;            // identity, by address
///     static const char *name();                // for instrumentation
///     static Result run(ir::Function &F, FunctionAnalysisManager &FAM);
///   };
///
/// Results are held behind stable heap addresses, so a reference returned
/// by getResult stays valid until the function's entries are cleared, even
/// across nested getResult calls.
///
/// The manager is deliberately not thread-safe: the harness creates one per
/// app-preparation job (see harness/JobPool.h for the job model), the same
/// way it already scopes Loader and Memory. The global pipeline statistics
/// it feeds are mutex-protected (pm/Instrumentation.h).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_PM_ANALYSISMANAGER_H
#define DAECC_PM_ANALYSISMANAGER_H

#include "pm/Instrumentation.h"

#include <chrono>
#include <map>
#include <memory>
#include <utility>
#include <vector>

namespace dae {
namespace ir {
class Function;
}

namespace pm {

/// Identity tag for one analysis type; compared by address, so each analysis
/// declares exactly one (as `static inline AnalysisKey Key`).
struct AnalysisKey {
  AnalysisKey() = default;
  AnalysisKey(const AnalysisKey &) = delete;
  AnalysisKey &operator=(const AnalysisKey &) = delete;
};

/// Caches analysis results per function. See file comment for the analysis
/// concept and the threading model.
class FunctionAnalysisManager {
public:
  FunctionAnalysisManager() = default;
  FunctionAnalysisManager(const FunctionAnalysisManager &) = delete;
  FunctionAnalysisManager &operator=(const FunctionAnalysisManager &) = delete;

  /// Returns the cached result for (\p F, AnalysisT), computing (and
  /// caching) it on a miss. The reference is stable until \p F is cleared.
  template <typename AnalysisT>
  typename AnalysisT::Result &getResult(ir::Function &F) {
    using ModelT = ResultModel<typename AnalysisT::Result>;
    if (auto It = Cache.find(&F); It != Cache.end())
      for (Slot &S : It->second)
        if (S.Key == &AnalysisT::Key) {
          PipelineStats::get().noteAnalysis(AnalysisT::name(), 0.0,
                                            /*CacheHit=*/true);
          return static_cast<ModelT *>(S.Model.get())->Value;
        }
    auto T0 = std::chrono::steady_clock::now();
    // run() may itself query the manager; the new slot is appended only
    // after it returns, so nested insertions cannot dangle.
    auto Model = std::make_unique<ModelT>(AnalysisT::run(F, *this));
    double Seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
            .count();
    typename AnalysisT::Result &Ref = Model->Value;
    Cache[&F].push_back(Slot{&AnalysisT::Key, std::move(Model)});
    PipelineStats::get().noteAnalysis(AnalysisT::name(), Seconds,
                                      /*CacheHit=*/false);
    return Ref;
  }

  /// Forgets everything cached for \p F: it changed, is being rewritten
  /// wholesale, or is about to be destroyed.
  void clear(const ir::Function &F) { Cache.erase(&F); }

private:
  struct ResultConcept {
    virtual ~ResultConcept() = default;
  };
  template <typename T> struct ResultModel : ResultConcept {
    explicit ResultModel(T &&V) : Value(std::move(V)) {}
    T Value;
  };
  struct Slot {
    const AnalysisKey *Key;
    std::unique_ptr<ResultConcept> Model;
  };

  std::map<const ir::Function *, std::vector<Slot>> Cache;
};

} // namespace pm
} // namespace dae

#endif // DAECC_PM_ANALYSISMANAGER_H
