//===- perfbench/driver/Experiments.cpp - Benchmark workloads -------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The traced flavour mirrors harness/Harness.cpp step for step: with one job
// the harness's JobPool drains its queue inline and FIFO, so every app is
// prepared (generation, loader, profile-guided refinement) before any scheme
// simulation runs, and then each app's scheme runs and oracle checks follow
// in submission order. The only additions are spans, trace retention (to
// count trace events) and the scan of those traces.
//
//===----------------------------------------------------------------------===//

#include "Experiments.h"

#include "dae/AccessProfile.h"
#include "dae/GenerationMemo.h"
#include "dae/ProfileGuidedRefinement.h"
#include "harness/Harness.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "pm/Analyses.h"
#include "pm/Instrumentation.h"
#include "pm/Pass.h"
#include "runtime/Evaluator.h"
#include "runtime/Runtime.h"
#include "runtime/Timeline.h"
#include "sim/AccessTrace.h"
#include "sim/Memory.h"
#include "support/MathUtil.h"
#include "verify/AccessPhaseAudit.h"
#include "verify/DifferentialChecker.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>

using namespace dae;
using namespace perfbench;
using dae::harness::AppResult;
using dae::harness::DaeVerifyResult;
using dae::harness::MixResult;
using dae::harness::ProfileGuidedResult;
using dae::runtime::RunProfile;
using dae::runtime::RunTraces;
using dae::runtime::Task;
using dae::sim::MachineConfig;
using dae::workloads::Workload;

const std::vector<WorkloadSpec> &perfbench::allWorkloads() {
  static const std::vector<WorkloadSpec> All = [] {
    std::vector<WorkloadSpec> V(3);
    V[0].Name = "fig3-dense";
    V[0].Apps = {"lu", "cholesky", "lbm"};
    V[1].Name = "corun";
    V[1].Apps = {"libq", "cigar", "cholesky", "fft"};
    V[1].Mix = true;
    V[1].Backend = sim::SimBackend::Native;
    V[1].Cores = 8;
    V[2].Name = "verify";
    V[2].Apps = {"fft", "lbm"};
    V[2].Verify = true;
    return V;
  }();
  return All;
}

const WorkloadSpec *perfbench::findWorkload(const std::string &Name) {
  for (const WorkloadSpec &S : allWorkloads())
    if (S.Name == Name)
      return &S;
  return nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

MachineConfig machineFor(const WorkloadSpec &S) {
  MachineConfig Cfg;
  Cfg.NumCores = S.Cores;
  Cfg.SimThreads = 1;
  Cfg.Backend = S.Backend;
  return Cfg;
}

const char *scaleName(workloads::Scale S) {
  return S == workloads::Scale::Test ? "test" : "full";
}

std::vector<std::unique_ptr<Workload>> buildApps(const RepInput &In) {
  std::vector<std::unique_ptr<Workload>> Ws;
  for (const std::string &App : In.Order) {
    Ws.push_back(workloads::buildByName(App, In.Scale));
    if (!Ws.back())
      throw std::invalid_argument("unknown app '" + App + "'");
  }
  return Ws;
}

std::string digestOf(const std::vector<std::uint8_t> &Bytes) {
  std::uint64_t H = 1469598103934665603ull; // FNV-1a 64
  for (std::uint8_t B : Bytes) {
    H ^= B;
    H *= 1099511628211ull;
  }
  char Buf[24];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(H));
  return Buf;
}

/// Same byte layout as the harness's output snapshots.
std::vector<std::uint8_t> snapshotOutputs(const Workload &W, sim::Memory &Mem,
                                          const sim::Loader &L) {
  std::vector<std::uint8_t> Bytes;
  for (std::size_t G = 0; G != W.OutputGlobals.size(); ++G) {
    std::uint64_t Base = L.baseOf(W.OutputGlobals[G]);
    for (std::uint64_t Off = 0; Off != W.OutputSizes[G]; Off += 8) {
      std::int64_t V = Mem.loadI64(Base + Off);
      for (int B = 0; B != 8; ++B)
        Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * B)));
    }
  }
  return Bytes;
}

void fail(RepResult &R, std::string Why) {
  ++R.Failed;
  R.Problems.push_back(std::move(Why));
}

/// Checks one app's output bytes against the pinned digest; returns whether
/// they match. \p Record stores the digest (the CAE run's).
bool checkDigest(const RepInput &In, RepResult &R, const std::string &App,
                 const std::vector<std::uint8_t> &Bytes, bool Record) {
  std::string D = digestOf(Bytes);
  if (Record)
    R.Digests[App] = D;
  auto It = In.Expected->find({scaleName(In.Scale), {In.Spec->Name, App}});
  return It != In.Expected->end() && It->second == D;
}

void addPipelineCounts(RepResult &R) {
  std::uint64_t Runs = 0, Computes = 0, Hits = 0;
  for (const auto &[Name, S] : pm::PipelineStats::get().passes())
    Runs += S.Runs;
  for (const auto &[Name, S] : pm::PipelineStats::get().analyses()) {
    Computes += S.Computes;
    Hits += S.CacheHits;
  }
  R.Exact["pm.pass_runs"] = Runs;
  R.Exact["pm.analysis_computes"] = Computes;
  R.Exact["pm.analysis_cache_hits"] = Hits;
}

void addStats(RepResult &R, const std::string &Prefix,
              const sim::PhaseStats &S) {
  R.Exact[Prefix + "instructions"] += S.Instructions;
  R.Exact[Prefix + "events"] += S.Loads + S.Stores + S.Prefetches;
  R.Exact[Prefix + "l1_hits"] += S.L1Hits;
  R.Exact[Prefix + "l2_hits"] += S.L2Hits;
  R.Exact[Prefix + "llc_hits"] += S.LLCHits;
  R.Exact[Prefix + "dram_accesses"] += S.MemAccesses;
}

void countPhases(RepResult &R, const std::vector<AccessPhaseResult> &Gen) {
  for (const AccessPhaseResult &G : Gen) {
    const char *Key = "phases_rejected";
    if (G.Strategy == analysis::TaskClass::Affine)
      Key = "phases_affine";
    else if (G.Strategy == analysis::TaskClass::Skeleton)
      Key = "phases_skeleton";
    ++R.Exact[Key];
  }
}

void checkVerdict(RepResult &R, const std::string &What, bool Pure) {
  ++R.Attempted;
  if (!Pure)
    fail(R, What + ": impure verdict");
}

/// Output, oracle and guard checks over a suite's results, plus the Figure 3
/// pricing the suite driver performs (at 500 ns and 0 ns).
void checkSuite(const RepInput &In, const MachineConfig &Cfg,
                const std::vector<AppResult> &Results, RepResult &R,
                SpanRecorder *Rec) {
  std::vector<double> AutoOptEdp;
  R.StrictCoverageMin = In.Spec->Verify ? 1.0 : 0.0;
  for (const AppResult &A : Results) {
    const std::vector<std::uint8_t> *Outs[3] = {&A.CaeOutputs,
                                                &A.ManualOutputs,
                                                &A.AutoOutputs};
    const char *Schemes[3] = {"cae", "manual", "auto"};
    for (int S = 0; S != 3; ++S) {
      ++R.Attempted;
      if (*Outs[S] != A.CaeOutputs)
        fail(R, A.Name + "/" + Schemes[S] + ": output differs from CAE");
      else if (!checkDigest(In, R, A.Name, *Outs[S], S == 0))
        fail(R, A.Name + "/" + Schemes[S] + ": output digest mismatch");
    }
    for (const RunProfile *P : {&A.Cae, &A.Manual, &A.Auto})
      for (const runtime::TaskProfile &T : P->Tasks) {
        addStats(R, "", T.Access);
        addStats(R, "", T.Execute);
      }
    countPhases(R, A.Generation);

    const DaeVerifyResult *Vs[2] = {&A.ManualVerify, &A.AutoVerify};
    for (int V = 0; V != 2; ++V) {
      if (!Vs[V]->Ran)
        continue;
      checkVerdict(R, A.Name + (V ? "/auto verify" : "/manual verify"),
                   Vs[V]->AuditPure && Vs[V]->Diff.pure());
      R.Exact["verify.baseline_misses"] += Vs[V]->Diff.BaselineExecMisses;
      R.Exact["verify.strict_covered_misses"] +=
          Vs[V]->Diff.StrictCoveredMisses;
    }
    if (A.AutoVerify.Ran)
      R.StrictCoverageMin =
          std::min(R.StrictCoverageMin, A.AutoVerify.Diff.strictCoverage());
    if (A.AutoPg.Ran) {
      checkVerdict(R, A.Name + "/refinement",
                   A.AutoPg.AuditPure && A.AutoPg.After.pure());
      R.Exact["refined_tasks"] += A.AutoPg.RefinedTasks;
    }

    Scope S(Rec, "priceFig3", "runtime.price");
    for (double Latency : {500.0, 0.0}) {
      harness::Fig3Row Row = harness::priceFig3(A, Cfg, Latency);
      if (Latency == 500.0)
        AutoOptEdp.push_back(Row.AutoOpt[2]);
    }
  }
  R.EdpGainPct = (1.0 - geometricMean(AutoOptEdp)) * 100.0;
  addPipelineCounts(R);
}

/// Output and policy checks over a co-run's results. \p CaeOutputs holds
/// each stream's CAE output bytes when the caller observed them.
void checkMix(const RepInput &In, const MixResult &M, RepResult &R,
              const std::vector<std::vector<std::uint8_t>> *CaeOutputs) {
  for (std::size_t I = 0; I != M.Streams.size(); ++I) {
    const harness::MixStreamResult &St = M.Streams[I];
    R.Attempted += 2; // the stream's CAE and DAE solo runs
    if (!St.OutputsMatch)
      fail(R, St.Name + ": DAE output differs from CAE");
    if (CaeOutputs && !checkDigest(In, R, St.Name, (*CaeOutputs)[I], true))
      fail(R, St.Name + ": output digest mismatch");
  }
  const runtime::TimelineReport *Policies[5] = {
      &M.CaeMax, &M.CaeOndemand, &M.CaeConservative, &M.DaeMinMax,
      &M.DaeOracle};
  for (const runtime::TimelineReport *T : Policies) {
    ++R.Attempted;
    if (!(std::isfinite(T->EdpJs) && T->EdpJs > 0.0))
      fail(R, "timeline policy produced a non-positive EDP");
    for (const runtime::CoreTimelineReport &C : T->Cores) {
      addStats(R, "timeline.", C.Total);
      R.Exact["timeline.dram_misses"] += C.DramMisses;
    }
  }
  R.OracleEdpNorm = M.DaeOracle.EdpJs / M.CaeMax.EdpJs;
  R.EdpGainPct = (1.0 - R.OracleEdpNorm) * 100.0;
  addPipelineCounts(R);
}

} // namespace

double perfbench::measureSetup(const RepInput &In) {
  Clock::time_point T0 = Clock::now();
  auto Ws = buildApps(In);
  double Sec = secondsSince(T0);
  Ws.clear();
  return Sec;
}

RepResult perfbench::runUntraced(const RepInput &In) {
  RepResult R;
  const WorkloadSpec &Spec = *In.Spec;
  MachineConfig Cfg = machineFor(Spec);

  Clock::time_point T0 = Clock::now();
  auto Ws = buildApps(In);
  R.SetupSec = secondsSince(T0);

  pm::PipelineStats::get().reset();
  Clock::time_point T1 = Clock::now();
  GenerationMemo Memo;
  if (Spec.Mix) {
    std::vector<Workload *> Mix;
    for (auto &W : Ws)
      Mix.push_back(W.get());
    harness::MixConfig MC;
    MC.Memo = &Memo;
    MixResult M = harness::runMix(Mix, Cfg, MC);
    checkMix(In, M, R, nullptr);
  } else {
    std::vector<harness::SuiteItem> Items;
    for (auto &W : Ws)
      Items.push_back({W.get(), nullptr});
    harness::SuiteConfig SC;
    SC.Memo = &Memo;
    SC.DaeVerify = Spec.Verify;
    SC.DaeProfileGuided = Spec.Verify;
    std::vector<AppResult> Results = harness::runSuite(Items, Cfg, SC);
    checkSuite(In, Cfg, Results, R, nullptr);
  }
  R.WallSec = secondsSince(T1);
  return R;
}

//===----------------------------------------------------------------------===//
// Traced flavour
//===----------------------------------------------------------------------===//

namespace {

/// Trace-derived counts of the traced flavour.
struct TraceTally {
  std::uint64_t Events = 0;
  std::uint64_t SameLine = 0;
  std::uint64_t PeakBytes = 0;
  std::uint64_t Bytes = 0;

  void add(const RunTraces &T, unsigned LineShift) {
    // Same-line events are counted within a phase: the first event of each
    // trace has no predecessor.
    for (const runtime::TaskTraces &TT : T.Tasks)
      for (const sim::AccessTrace *Tr : {&TT.Access, &TT.Execute}) {
        const std::vector<std::uint64_t> &E = Tr->events();
        std::uint64_t Prev = ~0ull;
        for (std::uint64_t Ev : E) {
          std::uint64_t Line = sim::AccessTrace::addrOf(Ev) >> LineShift;
          SameLine += Line == Prev;
          Prev = Line;
        }
        std::uint64_t B = E.size() * sizeof(std::uint64_t);
        Events += E.size();
        Bytes += B;
        PeakBytes = std::max(PeakBytes, B);
      }
  }

  void merge(const TraceTally &O) {
    Events += O.Events;
    SameLine += O.SameLine;
    Bytes += O.Bytes;
    PeakBytes = std::max(PeakBytes, O.PeakBytes);
  }
};

/// Counters the traced flavour accumulates besides its spans.
struct TracedCounters {
  /// Traces of the scheme (solo) runs, counted by the probe.
  TraceTally Solo;
  std::uint64_t Instructions = 0;
  double FunctionalSec = 0.0;
  std::uint64_t Checks = 0;
  std::uint64_t TimelineEvents = 0;
  double QueueNs = 0.0;
};

struct Ctx {
  const RepInput &In;
  const MachineConfig &Cfg;
  SpanRecorder &Rec;
  TracedCounters &C;
  unsigned LineShift;
};

/// Mirror of the harness's PreparedApp plus the scheme-run slots.
struct TracedApp {
  Workload *W = nullptr;
  std::vector<AccessPhaseResult> Generation;
  std::vector<Task> SchemeTasks[3];
  std::unique_ptr<sim::Loader> L;
  ProfileGuidedResult Pg;
  RunProfile Profiles[3];
  std::vector<std::uint8_t> Outputs[3];
  RunTraces Traces[3];
  DaeVerifyResult Verify[2];
};

std::vector<std::string> auditPhase(Ctx &X, ir::Function &AccessFn,
                                    pm::FunctionAnalysisManager &FAM) {
  Scope S(&X.Rec, "auditAccessPhase", "verify.audit");
  std::vector<std::string> Out;
  verify::AuditReport Rep = verify::auditAccessPhase(AccessFn, FAM);
  for (const verify::AuditViolation &Viol : Rep.Violations) {
    std::string Msg = AccessFn.getName() + ": " + Viol.Reason;
    if (Viol.Inst)
      Msg += ": " + ir::printInstruction(*Viol.Inst);
    Out.push_back(std::move(Msg));
  }
  return Out;
}

verify::DifferentialResult
check(Ctx &X, const verify::DifferentialChecker &Checker,
      const std::vector<Task> &Tasks,
      std::vector<runtime::TaskObservation> *Obs, RunProfile *Profile) {
  Scope S(&X.Rec, "DifferentialChecker::check", "verify.check");
  ++X.C.Checks;
  return Checker.check(Tasks, Obs, Profile);
}

double priceMinMax(Ctx &X, const RunProfile &P) {
  Scope S(&X.Rec, "evaluate", "runtime.price");
  return runtime::evaluate(P, X.Cfg, harness::minMaxConfig(X.Cfg, 0.0)).EdpJs;
}

verify::DifferentialSpec specOf(const Workload &W) {
  verify::DifferentialSpec Spec;
  Spec.Init = W.Init;
  Spec.OutputGlobals = W.OutputGlobals;
  Spec.OutputSizes = W.OutputSizes;
  return Spec;
}

/// Mirror of the harness's refineAutoScheme.
ProfileGuidedResult refineAuto(Ctx &X, Workload &W, TracedApp &P,
                               pm::FunctionAnalysisManager &FAM,
                               GenerationMemo &Memo) {
  ProfileGuidedResult R;
  bool AnyAccess = std::any_of(P.SchemeTasks[2].begin(),
                               P.SchemeTasks[2].end(),
                               [](const Task &T) { return T.Access; });
  if (!AnyAccess)
    return R;
  R.Ran = true;

  verify::DifferentialChecker Checker(X.Cfg, *P.L, specOf(W));
  std::vector<runtime::TaskObservation> Obs;
  RunProfile Before;
  R.Before = check(X, Checker, P.SchemeTasks[2], &Obs, &Before);
  R.EdpBefore = priceMinMax(X, Before);

  dae::AccessProfile Profile;
  dae::RefinementConfig RC;
  RC.PhaseSplitFootprintBytes = X.Cfg.L2.SizeBytes;
  std::set<const ir::Instruction *> Cold;
  std::vector<ir::Function *> TaskFns = W.taskFunctions();
  std::unique_ptr<dae::ProfileGuidedRefinementPass> PassPtr;
  {
    Scope S(&X.Rec, "AccessProfile::record", "dae.refine");
    for (std::size_t I = 0; I != P.SchemeTasks[2].size(); ++I) {
      if (!P.SchemeTasks[2][I].Access)
        continue;
      auto *TaskFn = const_cast<ir::Function *>(P.SchemeTasks[2][I].Execute);
      Profile.record(taskContentFingerprint(*TaskFn, FAM), Obs[I]);
    }
    for (ir::Function *F : TaskFns) {
      dae::TaskProfileData D;
      if (Profile.lookup(taskContentFingerprint(*F, FAM), D) &&
          D.overshoot() > RC.OvershootBudget) {
        Scope C(&X.Rec, "profileColdLoads", "harness.cold_profile");
        Cold = harness::profileColdLoads(W, X.Cfg);
        if (!Cold.empty())
          RC.ColdLoads = &Cold;
        break;
      }
    }
  }

  auto Pass = std::make_unique<dae::ProfileGuidedRefinementPass>(
      *W.M, Profile, W.Opts, RC, &Memo);
  dae::ProfileGuidedRefinementPass *Refiner = Pass.get();
  {
    Scope S(&X.Rec, "ProfileGuidedRefinementPass", "dae.refine");
    for (std::size_t GI = 0; GI != TaskFns.size(); ++GI)
      Refiner->noteBaseline(TaskFns[GI], P.Generation[GI]);
    pm::PassManager Mgr("dae-profile-guided");
    Mgr.addPass(std::move(Pass));
    for (ir::Function *F : TaskFns)
      Mgr.run(*F, FAM);

    if (Refiner->numRefined() == 0) {
      R.After = R.Before;
      R.EdpAfter = R.EdpBefore;
      return R;
    }
  }
  R.RefinedTasks = Refiner->numRefined();

  for (std::size_t GI = 0; GI != TaskFns.size(); ++GI) {
    const AccessPhaseResult *RR = Refiner->refinedResult(TaskFns[GI]);
    if (!RR)
      continue;
    P.Generation[GI] = *RR;
    R.Actions.push_back(TaskFns[GI]->getName() + ": " + RR->RefinementNote);
    for (Task &T : P.SchemeTasks[2])
      if (T.Execute == TaskFns[GI])
        T.Access = RR->AccessFn;
    for (std::string &Viol : auditPhase(X, *RR->AccessFn, FAM)) {
      R.AuditPure = false;
      R.AuditViolations.push_back(std::move(Viol));
    }
  }

  RunProfile After;
  R.After = check(X, Checker, P.SchemeTasks[2], nullptr, &After);
  R.EdpAfter = priceMinMax(X, After);
  return R;
}

/// Mirror of the harness's prepareApp.
void prepare(Ctx &X, TracedApp &P, Workload &W, GenerationMemo &Memo,
             bool Refine) {
  P.W = &W;
  pm::FunctionAnalysisManager FAM;
  std::map<const ir::Function *, const ir::Function *> AutoAccess;
  for (ir::Function *F : W.taskFunctions()) {
    Scope S(&X.Rec, "GenerationMemo::generate", "dae.generate");
    AccessPhaseResult G = Memo.generate(*W.M, *F, W.Opts, FAM);
    if (G.AccessFn)
      AutoAccess[F] = G.AccessFn;
    (void)FAM.getResult<pm::TaskClassificationAnalysis>(*F);
    P.Generation.push_back(std::move(G));
  }

  for (auto &List : P.SchemeTasks)
    List = W.Tasks;
  for (std::size_t I = 0; I != W.Tasks.size(); ++I) {
    P.SchemeTasks[0][I].Access = nullptr;
    auto MIt = W.ManualAccess.find(W.Tasks[I].Execute);
    P.SchemeTasks[1][I].Access =
        MIt == W.ManualAccess.end() ? nullptr : MIt->second;
    auto AIt = AutoAccess.find(W.Tasks[I].Execute);
    P.SchemeTasks[2][I].Access =
        AIt == AutoAccess.end() ? nullptr : AIt->second;
  }

  {
    Scope S(&X.Rec, "Loader", "workloads.init");
    P.L = std::make_unique<sim::Loader>(*W.M);
  }
  if (Refine)
    P.Pg = refineAuto(X, W, P, FAM, Memo);
}

/// Mirror of the harness's runScheme. \p Traces retains the run's traces
/// when non-null (a co-run needs them for its timeline).
RunProfile runScheme(Ctx &X, const MachineConfig &Cfg, TracedApp &P,
                     int Scheme, RunTraces *Traces) {
  sim::Memory Mem;
  {
    Scope S(&X.Rec, "Init", "workloads.init");
    P.W->Init(Mem, *P.L);
  }
  runtime::TaskRuntime RT(Cfg, Mem, *P.L);
  RunProfile Prof;
  {
    Scope S(&X.Rec, "TaskRuntime::execute", "runtime.replay");
    Prof = RT.execute(P.SchemeTasks[Scheme], /*RunAccess=*/true, nullptr,
                      Traces);
    X.Rec.addChild("functional pass", "sim.functional",
                   Prof.FunctionalSeconds);
  }
  X.C.FunctionalSec += Prof.FunctionalSeconds;
  for (const runtime::TaskProfile &T : Prof.Tasks)
    X.C.Instructions += T.Access.Instructions + T.Execute.Instructions;
  P.Outputs[Scheme] = snapshotOutputs(*P.W, Mem, *P.L);
  return Prof;
}

/// Mirror of the harness's verifyScheme.
DaeVerifyResult verifyScheme(Ctx &X, const Workload &W,
                             const std::vector<Task> &Tasks,
                             const sim::Loader &L) {
  DaeVerifyResult V;
  V.AuditPure = true;
  bool AnyAccess = false;
  pm::FunctionAnalysisManager FAM;
  std::set<const ir::Function *> Audited;
  for (const Task &T : Tasks) {
    if (!T.Access)
      continue;
    AnyAccess = true;
    if (!Audited.insert(T.Access).second)
      continue;
    auto &AccessFn = *const_cast<ir::Function *>(T.Access);
    for (std::string &Viol : auditPhase(X, AccessFn, FAM)) {
      V.AuditPure = false;
      V.AuditViolations.push_back(std::move(Viol));
    }
  }
  if (!AnyAccess)
    return V;
  V.Ran = true;
  verify::DifferentialChecker Checker(X.Cfg, L, specOf(W));
  V.Diff = check(X, Checker, Tasks, nullptr, nullptr);
  return V;
}

/// Mirror of the harness's assembleApp.
AppResult assemble(Ctx &X, TracedApp &P) {
  AppResult R;
  R.Name = P.W->Name;
  R.Cae = std::move(P.Profiles[0]);
  R.Manual = std::move(P.Profiles[1]);
  R.Auto = std::move(P.Profiles[2]);
  R.Generation = std::move(P.Generation);
  R.OutputsMatch =
      P.Outputs[0] == P.Outputs[1] && P.Outputs[0] == P.Outputs[2];
  R.CaeOutputs = std::move(P.Outputs[0]);
  R.ManualOutputs = std::move(P.Outputs[1]);
  R.AutoOutputs = std::move(P.Outputs[2]);
  (void)priceMinMax(X, R.Auto); // the Table 1 row
  R.AutoPg = std::move(P.Pg);
  R.ManualVerify = std::move(P.Verify[0]);
  R.AutoVerify = std::move(P.Verify[1]);
  return R;
}

void tracedSuite(Ctx &X, std::vector<std::unique_ptr<Workload>> &Ws,
                 std::vector<TracedApp> &Apps, RepResult &R) {
  const bool Verify = X.In.Spec->Verify;
  GenerationMemo Memo;
  for (std::size_t I = 0; I != Ws.size(); ++I)
    prepare(X, Apps[I], *Ws[I], Memo, Verify);
  for (TracedApp &P : Apps) {
    for (int S = 0; S != 3; ++S)
      P.Profiles[S] = runScheme(X, X.Cfg, P, S, nullptr);
    if (Verify)
      for (int D = 0; D != 2; ++D)
        P.Verify[D] = verifyScheme(X, *P.W, P.SchemeTasks[D + 1], *P.L);
  }
  std::vector<AppResult> Results;
  for (TracedApp &P : Apps)
    Results.push_back(assemble(X, P));
  checkSuite(X.In, X.Cfg, Results, R, &X.Rec);
}

/// Mirror of the harness's runMix (the traces stay in \p Streams).
void tracedMix(Ctx &X, std::vector<std::unique_ptr<Workload>> &Ws,
               std::vector<TracedApp> &Streams, RepResult &R) {
  GenerationMemo Memo;
  MachineConfig SoloCfg = X.Cfg;
  SoloCfg.NumCores = 1;
  for (std::size_t I = 0; I != Ws.size(); ++I)
    prepare(X, Streams[I], *Ws[I], Memo, /*Refine=*/false);
  for (TracedApp &P : Streams) {
    P.Profiles[0] = runScheme(X, SoloCfg, P, 0, &P.Traces[0]);
    P.Profiles[2] = runScheme(X, SoloCfg, P, 2, &P.Traces[2]);
  }

  MixResult M;
  std::vector<runtime::CoreStream> CaeStreams, DaeStreams;
  std::vector<std::vector<std::uint8_t>> CaeOutputs;
  for (std::size_t I = 0; I != Streams.size(); ++I) {
    TracedApp &P = Streams[I];
    countPhases(R, P.Generation);
    harness::MixStreamResult MS;
    MS.Name = P.W->Name;
    MS.OutputsMatch = P.Outputs[0] == P.Outputs[2];
    M.Streams.push_back(std::move(MS));
    CaeOutputs.push_back(P.Outputs[0]);
    std::uint64_t Bias = static_cast<std::uint64_t>(I) << 40;
    CaeStreams.push_back({&P.Profiles[0], &P.Traces[0], Bias});
    DaeStreams.push_back({&P.Profiles[2], &P.Traces[2], Bias});
  }

  auto Price = [&](const std::vector<runtime::CoreStream> &Streams,
                   runtime::TimelinePolicy Policy) {
    Scope S(&X.Rec, runtime::timelinePolicyName(Policy), "runtime.timeline");
    runtime::TimelineConfig TC;
    TC.Policy = Policy;
    return runtime::interleaveTimeline(Streams, X.Cfg, TC);
  };
  M.CaeMax = Price(CaeStreams, runtime::TimelinePolicy::FixedMax);
  M.CaeOndemand = Price(CaeStreams, runtime::TimelinePolicy::Ondemand);
  M.CaeConservative = Price(CaeStreams, runtime::TimelinePolicy::Conservative);
  M.DaeMinMax = Price(DaeStreams, runtime::TimelinePolicy::DaeMinMax);
  M.DaeOracle = Price(DaeStreams, runtime::TimelinePolicy::OracleEdp);
  for (const runtime::CoreTimelineReport &C : M.DaeOracle.Cores)
    X.C.QueueNs += C.QueueNs;
  checkMix(X.In, M, R, &CaeOutputs);
}

/// Counts the traces of every scheme run, outside the measured total so the
/// traced run keeps the runtime's trace recycling. A suite does not retain
/// its traces, so each scheme run is simulated once more with retention; a
/// co-run still holds the traces its timeline consumed. Scanned buffers go
/// back to the trace pool, as the runtime would have returned them.
void probeTraces(Ctx &X, std::vector<TracedApp> &Apps, bool Mix) {
  std::uint64_t CaeEvents = 0, DaeEvents = 0;
  for (TracedApp &P : Apps)
    for (int S = 0; S != 3; ++S) {
      if (Mix && S == 1)
        continue;
      RunTraces &T = P.Traces[S];
      if (!Mix) {
        sim::Memory Mem;
        P.W->Init(Mem, *P.L);
        runtime::TaskRuntime RT(X.Cfg, Mem, *P.L);
        RT.execute(P.SchemeTasks[S], /*RunAccess=*/true, nullptr, &T);
      }
      TraceTally Tally;
      Tally.add(T, X.LineShift);
      X.C.Solo.merge(Tally);
      (S == 0 ? CaeEvents : DaeEvents) += Tally.Events;
      for (runtime::TaskTraces &TT : T.Tasks) {
        TT.Access.releaseTo(sim::TracePool::global());
        TT.Execute.releaseTo(sim::TracePool::global());
      }
      T.Tasks.clear();
    }
  // Fixed-max, ondemand and conservative replay the CAE traces; the two DAE
  // policies replay the DAE traces.
  if (Mix)
    X.C.TimelineEvents = 3 * CaeEvents + 2 * DaeEvents;
}

double ratio(double Num, double Den) { return Den > 0.0 ? Num / Den : 0.0; }

} // namespace

RepResult perfbench::runTraced(const RepInput &In, SpanRecorder &Rec) {
  RepResult R;
  const WorkloadSpec &Spec = *In.Spec;
  MachineConfig Cfg = machineFor(Spec);
  TracedCounters C;
  Ctx X{In, Cfg, Rec, C, sim::lineShiftOf(Cfg.L1.LineBytes)};

  int Setup = Rec.begin("build " + Spec.Name, "workloads.build");
  auto Ws = buildApps(In);
  Rec.end(Setup);
  R.SetupSec = Rec.seconds(Setup);

  pm::PipelineStats::get().reset();
  std::vector<TracedApp> Apps(Ws.size());
  int Root = Rec.begin(Spec.Name, "harness.other");
  if (Spec.Mix)
    tracedMix(X, Ws, Apps, R);
  else
    tracedSuite(X, Ws, Apps, R);
  Rec.end(Root);
  R.WallSec = Rec.seconds(Root);
  int Probe = Rec.begin("probe traces", "perfbench.probe");
  probeTraces(X, Apps, Spec.Mix);
  Rec.end(Probe);

  std::map<std::string, double> &L = R.Layers;
  for (const char *Layer :
       {"dae.generate", "dae.refine", "harness.cold_profile", "harness.other",
        "runtime.price", "runtime.replay",
        "runtime.timeline", "sim.functional", "verify.audit", "verify.check",
        "workloads.init"})
    L[std::string(Layer) + "_s"] = 0.0;
  for (const auto &[Layer, Sec] : Rec.selfSeconds(Root))
    L[Layer + "_s"] = Sec;
  L["workloads.build_s"] = R.SetupSec;
  L["perfbench.probe_s"] = Rec.seconds(Probe);
  L["harness.traced_total_s"] = R.WallSec;

  auto Count = [&R](const std::string &Key) -> double {
    auto It = R.Exact.find(Key);
    return It == R.Exact.end() ? 0.0 : static_cast<double>(It->second);
  };
  // Suites report the scheme runs' replay counts; a co-run reports what its
  // timeline replayed.
  const std::string Replayed = Spec.Mix ? "timeline." : "";
  // Every recorded trace event is one simulated load, store or prefetch;
  // the runtime's own counters must agree with the traces.
  if (!Spec.Mix && Count("events") != static_cast<double>(C.Solo.Events))
    R.Problems.push_back("trace events disagree with the simulated counts");

  const double Mb = 1e-6;
  L["sim.instructions"] = static_cast<double>(C.Instructions);
  L["sim.functional_s"] = C.FunctionalSec;
  L["sim.minst_per_s"] = ratio(C.Instructions * 1e-6, C.FunctionalSec);
  L["sim.trace_events"] = static_cast<double>(C.Solo.Events);
  L["sim.same_line_ratio"] =
      ratio(static_cast<double>(C.Solo.SameLine), C.Solo.Events);
  L["sim.trace_peak_mb"] = C.Solo.PeakBytes * Mb;
  L["runtime.replay_mevents_per_s"] =
      ratio(C.Solo.Events * 1e-6, L["runtime.replay_s"]);
  L["runtime.l1_hit_ratio"] =
      ratio(Count(Replayed + "l1_hits"), Count(Replayed + "events"));
  L["runtime.dram_accesses"] = Count(Replayed + "dram_accesses");
  L["runtime.timeline_mevents_per_s"] =
      ratio(C.TimelineEvents * 1e-6, L["runtime.timeline_s"]);
  // A co-run holds every solo trace until its timeline is done.
  L["runtime.retained_trace_mb"] = Spec.Mix ? C.Solo.Bytes * Mb : 0.0;
  L["runtime.timeline_queue_ns"] = C.QueueNs;
  L["runtime.oracle_edp_norm"] = R.OracleEdpNorm;
  L["verify.checks"] = static_cast<double>(C.Checks);
  L["verify.strict_coverage_min"] = R.StrictCoverageMin;
  for (const char *Key :
       {"refined_tasks", "phases_affine", "phases_skeleton", "phases_rejected"})
    L[std::string("dae.") + Key] = Count(Key);
  for (const char *Key :
       {"pm.pass_runs", "pm.analysis_computes", "pm.analysis_cache_hits"})
    L[Key] = Count(Key);
  // Counts only the traced flavour observes join the exact set under a
  // "traced." prefix, so the repeat check covers them too.
  R.Exact["traced.trace_events"] = C.Solo.Events;
  R.Exact["traced.same_line_events"] = C.Solo.SameLine;
  R.Exact["traced.timeline_events"] = C.TimelineEvents;
  R.Exact["traced.verify_checks"] = C.Checks;
  R.Exact["traced.instructions"] = C.Instructions;
  return R;
}
