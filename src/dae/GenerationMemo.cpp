//===- dae/GenerationMemo.cpp - Memoized access-phase generation -----------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "dae/GenerationMemo.h"

#include "analysis/TaskAnalysis.h"
#include "ir/Cloner.h"
#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "passes/Passes.h"
#include "pm/Analyses.h"
#include "support/Casting.h"
#include "verify/AccessPhaseAudit.h"

using namespace dae;
using namespace dae::ir;

namespace {

/// Task content key: printed optimized body (the pipeline's cached print)
/// plus referenced globals with their sizes (the print carries names only,
/// but generation depends on the extents through GEP shapes and the loader
/// layout).
std::string taskFingerprint(Function &Task, const std::string &Printed) {
  std::string Key = Printed;
  std::map<std::string, std::uint64_t> Globals;
  for (const auto &BB : Task)
    for (const auto &I : *BB)
      for (Value *Op : I->operands())
        if (auto *G = dyn_cast<GlobalVariable>(Op))
          Globals[G->getName()] = G->getSizeInBytes();
  for (const auto &[Name, Size] : Globals)
    Key += "@" + Name + ":" + std::to_string(Size) + "\n";
  return Key;
}

/// Normalizes DaeOptions::ColdLoads to the ordinals of this task's load
/// instructions that appear in the set. Instruction pointers differ between
/// structurally identical workload instances; ordinals do not. An empty
/// intersection is indistinguishable from a null set — correct, because the
/// skeleton generator only ever consults the intersection.
std::string coldFingerprint(const Function &Task, const DaeOptions &Opts) {
  std::string Fp;
  if (!Opts.ColdLoads)
    return Fp;
  unsigned Ordinal = 0;
  for (const auto &BB : Task)
    for (const auto &I : *BB)
      if (isa<LoadInst>(I.get())) {
        if (Opts.ColdLoads->count(I.get()))
          Fp += std::to_string(Ordinal) + ",";
        ++Ordinal;
      }
  return Fp;
}

/// Effective representative values, one per Int64 argument by position
/// (missing entries default to 8, mirroring the affine generator).
std::string repFingerprint(const Function &Task, const DaeOptions &Opts) {
  std::string Fp;
  for (unsigned I = 0; I != Task.getNumArgs(); ++I) {
    if (Task.getArg(I)->getType() != Type::Int64)
      continue;
    std::int64_t V =
        I < Opts.RepresentativeArgs.size() ? Opts.RepresentativeArgs[I] : 8;
    Fp += std::to_string(V) + ",";
  }
  return Fp;
}

unsigned countStores(const Function &F) {
  unsigned N = 0;
  for (const auto &BB : F)
    for (const auto &I : *BB)
      if (isa<StoreInst>(I.get()))
        ++N;
  return N;
}

bool isCallFree(const Function &F) {
  for (const auto &BB : F)
    for (const auto &I : *BB)
      if (isa<CallInst>(I.get()))
        return false;
  return true;
}

} // namespace

std::string dae::taskContentFingerprint(Function &Task,
                                        pm::FunctionAnalysisManager &FAM) {
  return taskFingerprint(Task, FAM.getResult<pm::FunctionPrintAnalysis>(Task));
}

GenerationMemo::GenerationMemo() = default;

GenerationMemo::~GenerationMemo() = default;

bool GenerationMemo::OptionsPattern::matches(const DaeOptions &O,
                                             const std::string &OColdFp,
                                             const std::string &ORepFp) const {
  auto Accepts = [](const GenerationTrace::ClassGuard &G, std::int64_t Th) {
    return G.Emittable && Th >= G.Need;
  };
  if (AffineEngaged) {
    if (O.UseConvexUnion != Ran.UseConvexUnion)
      return false;
    // The slack threshold only gates hull acceptance in convex-union mode;
    // two thresholds are interchangeable when they accept the same classes.
    if (O.UseConvexUnion) {
      if (GuardExact) {
        for (const auto &G : Guards)
          if (Accepts(G, O.HullSlackThreshold) !=
              Accepts(G, Ran.HullSlackThreshold))
            return false;
      } else if (O.HullSlackThreshold != Ran.HullSlackThreshold) {
        return false;
      }
    }
    if (!SplitClassesWild && O.SplitClasses != Ran.SplitClasses)
      return false;
    if (!MergeWild && O.MergeLoopNests != Ran.MergeLoopNests)
      return false;
    if (ORepFp != RepFp)
      return false;
    if (O.CountLimit != Ran.CountLimit)
      return false;
    if (O.PrefetchPerCacheLine != Ran.PrefetchPerCacheLine)
      return false;
    if (Ran.PrefetchPerCacheLine && O.CacheLineBytes != Ran.CacheLineBytes)
      return false;
  }
  if ((AffineEngaged || SkeletonEngaged) && !PrefetchWritesWild &&
      O.PrefetchWrites != Ran.PrefetchWrites)
    return false;
  if (SkeletonEngaged) {
    if (!SimplifyCfgWild && O.SimplifyCfg != Ran.SimplifyCfg)
      return false;
    if (OColdFp != ColdFp)
      return false;
  }
  return true;
}

AccessPhaseResult GenerationMemo::generate(Module &M, Function &Task,
                                           const DaeOptions &Opts) {
  pm::FunctionAnalysisManager FAM;
  return generate(M, Task, Opts, FAM);
}

AccessPhaseResult GenerationMemo::generate(Module &M, Function &Task,
                                           const DaeOptions &Opts,
                                           pm::FunctionAnalysisManager &FAM) {
  if (!passes::allCallsInlinable(Task)) {
    AccessPhaseResult R;
    R.Strategy = analysis::TaskClass::Rejected;
    R.Notes = "task contains a call that cannot be inlined";
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Rejections;
    return R;
  }
  passes::optimizeFunction(Task, FAM);

  const std::string Fp = taskContentFingerprint(Task, FAM);
  const std::string ColdFp = coldFingerprint(Task, Opts);
  const std::string RepFp = repFingerprint(Task, Opts);

  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Fp);
    if (It != Entries.end())
      for (Entry &E : It->second)
        if (E.Pattern.matches(Opts, ColdFp, RepFp)) {
          ++Counters.Hits;
          AccessPhaseResult R = E.Cached;
          if (E.Cached.AccessFn) {
            R.AccessFn = transplantFunction(*E.Cached.AccessFn, M,
                                            Task.getName() + ".access");
            pm::verifyGenerated(*R.AccessFn, "memo transplant");
            verify::auditGenerated(*R.AccessFn, "memo transplant");
          }
          return R;
        }
  }

  AccessPhaseResult R =
      generateAccessPhaseForOptimizedTask(M, Task, Opts, FAM);
  if (R.Strategy == analysis::TaskClass::Rejected) {
    // Rejection reasons are classification facts, not knob decisions; the
    // classification is cheap, so rejected tasks are not cached.
    std::lock_guard<std::mutex> Lock(Mutex);
    ++Counters.Rejections;
    return R;
  }

  Entry E;
  E.Pattern.Ran = Opts;
  E.Pattern.Ran.ColdLoads = nullptr; // Never dereferenced after this point.
  E.Pattern.ColdFp = ColdFp;
  E.Pattern.RepFp = RepFp;
  E.Pattern.AffineEngaged =
      FAM.getResult<pm::TaskClassificationAnalysis>(Task).Class ==
      analysis::TaskClass::Affine;
  E.Pattern.SkeletonEngaged = R.Trace.SkeletonRan;
  E.Pattern.GuardExact = R.Trace.AffineRan;
  E.Pattern.Guards = R.Trace.Guards;
  E.Pattern.SplitClassesWild =
      R.Trace.AffineRan && Opts.SplitClasses && R.NumClasses == 1;
  E.Pattern.MergeWild =
      R.Trace.AffineRan && Opts.MergeLoopNests && !R.Trace.MergeApplied;
  E.Pattern.SimplifyCfgWild =
      R.Trace.SkeletonRan &&
      (Opts.SimplifyCfg ? R.Trace.CondsRewritten == 0
                        : R.Trace.CondCandidates == 0);
  E.Pattern.PrefetchWritesWild = countStores(Task) == 0;

  std::lock_guard<std::mutex> Lock(Mutex);
  ++Counters.Misses;
  if (R.AccessFn && isCallFree(*R.AccessFn)) {
    E.Holder = std::make_unique<Module>("memo");
    E.Cached = R;
    E.Cached.AccessFn =
        transplantFunction(*R.AccessFn, *E.Holder, R.AccessFn->getName());
    Entries[Fp].push_back(std::move(E));
  }
  return R;
}

GenerationMemo::Stats GenerationMemo::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Counters;
}

std::size_t GenerationMemo::entryCount() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  std::size_t N = 0;
  for (const auto &[Fp, Es] : Entries)
    N += Es.size();
  return N;
}
