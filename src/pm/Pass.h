//===- pm/Pass.h - Function passes and pass managers ------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// First-class function passes for the compilation pipeline. A pass is an
/// object with a name and a run() that transforms the function and returns
/// whether it changed it. The PassManager runs a fixed sequence once; the
/// FixpointPassManager repeats its sequence until a whole sweep changes
/// nothing (with an iteration cap as a safety net). Both are passes
/// themselves, so pipelines nest.
///
/// After every pass that reports a change, the manager drops every cached
/// analysis of the function (FunctionAnalysisManager::clear). It also
/// provides the instrumentation the free-function passes never had: per-pass
/// wall time and change counts into pm::PipelineStats, and ir::verify after
/// every pass under --verify-each / DAECC_VERIFY_EACH.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_PM_PASS_H
#define DAECC_PM_PASS_H

#include "pm/AnalysisManager.h"

#include <cassert>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace dae {
namespace pm {

/// Interface for one function transformation.
class FunctionPass {
public:
  virtual ~FunctionPass() = default;

  /// Stable pass name (instrumentation key, diagnostics).
  virtual const char *name() const = 0;

  /// Transforms \p F. Returns true when it changed the function.
  virtual bool run(ir::Function &F, FunctionAnalysisManager &FAM) = 0;

  /// True for pass managers; their contained passes self-report to the
  /// statistics registry, so the container must not be counted again.
  virtual bool isPipeline() const { return false; }
};

/// Runs a sequence of passes once, in order. After each pass that changed
/// the function the manager clears the function's cached analyses; after
/// every pass it applies the configured verify instrumentation.
class PassManager : public FunctionPass {
public:
  explicit PassManager(std::string Name) : Name(std::move(Name)) {}

  void addPass(std::unique_ptr<FunctionPass> P) {
    assert(P && "null pass");
    Passes.push_back(std::move(P));
  }
  template <typename PassT, typename... ArgTs> void add(ArgTs &&...Args) {
    addPass(std::make_unique<PassT>(std::forward<ArgTs>(Args)...));
  }

  const char *name() const override { return Name.c_str(); }
  bool isPipeline() const override { return true; }

  /// One sweep over the sequence; true when any pass changed the function.
  bool run(ir::Function &F, FunctionAnalysisManager &FAM) override;

private:
  std::string Name;
  std::vector<std::unique_ptr<FunctionPass>> Passes;
};

/// Repeats its sequence until a full sweep reports no change, capped at
/// MaxIterations sweeps (mirrors the historical optimizeFunction loop
/// bound; generated IR converges in a handful of sweeps).
class FixpointPassManager : public PassManager {
public:
  explicit FixpointPassManager(std::string Name, unsigned MaxIterations = 32)
      : PassManager(std::move(Name)), MaxIterations(MaxIterations) {}

  /// True when any sweep changed the function.
  bool run(ir::Function &F, FunctionAnalysisManager &FAM) override;

private:
  unsigned MaxIterations;
};

} // namespace pm
} // namespace dae

#endif // DAECC_PM_PASS_H
