//===- harness/Harness.cpp - Paper experiment driver -------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "analysis/TaskAnalysis.h"
#include "dae/AccessProfile.h"
#include "dae/GenerationMemo.h"
#include "dae/ProfileGuidedRefinement.h"
#include "harness/JobPool.h"
#include "ir/Function.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "passes/Passes.h"
#include "pm/Analyses.h"
#include "sim/AccessTrace.h"
#include "sim/CacheSim.h"
#include "sim/Interpreter.h"
#include "verify/AccessPhaseAudit.h"
#include "verify/DifferentialChecker.h"

#include <cassert>
#include <memory>
#include <set>
#include <stdexcept>
#include <unordered_map>

using namespace dae;
using namespace dae::harness;
using namespace dae::runtime;
using namespace dae::sim;
using dae::workloads::Workload;

namespace {

/// Snapshot of the workload's output arrays.
std::vector<std::uint8_t> snapshotOutputs(const Workload &W, Memory &Mem,
                                          const Loader &L) {
  std::vector<std::uint8_t> Bytes;
  for (size_t G = 0; G != W.OutputGlobals.size(); ++G) {
    std::uint64_t Base = L.baseOf(W.OutputGlobals[G]);
    for (std::uint64_t Off = 0; Off != W.OutputSizes[G]; Off += 8) {
      std::int64_t V = Mem.loadI64(Base + Off);
      for (int B = 0; B != 8; ++B)
        Bytes.push_back(static_cast<std::uint8_t>(V >> (8 * B)));
    }
  }
  return Bytes;
}

/// Runs one scheme (fresh memory + init) and snapshots the outputs. When
/// \p Traces is non-null the run's traces are retained for a later
/// contention-timeline interleave.
RunProfile runScheme(const Workload &W, const std::vector<Task> &Tasks,
                     const MachineConfig &Cfg, const Loader &L,
                     std::vector<std::uint8_t> &OutBytes,
                     RunTraces *Traces = nullptr) {
  Memory Mem;
  W.Init(Mem, L);
  TaskRuntime RT(Cfg, Mem, L);
  RunProfile P = RT.execute(Tasks, /*RunAccess=*/true, nullptr, Traces);
  OutBytes = snapshotOutputs(W, Mem, L);
  return P;
}

/// The per-scheme correctness oracle (--dae-verify): static purity audit of
/// every access phase in \p Tasks, then the with/without-access dynamic
/// differential. Returns Ran == false for schemes with no decoupled tasks
/// (there is nothing to verify; CAE always lands here).
DaeVerifyResult verifyScheme(const Workload &W,
                             const std::vector<Task> &Tasks,
                             const MachineConfig &Cfg, const Loader &L) {
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
    // The audit only reads the function; the analysis manager's interface
    // is mutable because passes share it.
    auto &AccessFn = *const_cast<ir::Function *>(T.Access);
    verify::AuditReport Rep = verify::auditAccessPhase(AccessFn, FAM);
    for (const verify::AuditViolation &Viol : Rep.Violations) {
      V.AuditPure = false;
      std::string S = T.Access->getName() + ": " + Viol.Reason;
      if (Viol.Inst)
        S += ": " + ir::printInstruction(*Viol.Inst);
      V.AuditViolations.push_back(std::move(S));
    }
  }
  if (!AnyAccess)
    return V;
  V.Ran = true;

  verify::DifferentialSpec Spec;
  Spec.Init = W.Init;
  Spec.OutputGlobals = W.OutputGlobals;
  Spec.OutputSizes = W.OutputSizes;
  verify::DifferentialChecker Checker(Cfg, L, std::move(Spec));
  V.Diff = Checker.check(Tasks);
  return V;
}

/// Everything one app needs before its three scheme simulations can run:
/// generated access phases, the three task lists, and the loader. Shared by
/// runApp (sequential) and runSuite (job pool).
struct PreparedApp {
  const Workload *W = nullptr;
  std::vector<AccessPhaseResult> Generation;
  unsigned AffineLoops = 0, TotalLoops = 0;
  /// Task lists indexed by Scheme (Cae, Manual, Auto).
  std::vector<Task> SchemeTasks[3];
  std::unique_ptr<Loader> L;
  /// Profile-guided refinement outcome (when prepareApp ran it).
  ProfileGuidedResult Pg;
};

/// The profile-guided refinement loop over one prepared app's Auto scheme
/// (see dae/ProfileGuidedRefinement.h): measure per-task coverage/overshoot
/// from the differential checker's captures, persist them into an
/// AccessProfile keyed by task fingerprint, run the pm-registered
/// refinement pass over the task functions, then swap the refined phases
/// into SchemeTasks[2] (and Generation) and re-measure. Runs inside the
/// app-preparation step, *before* any scheme simulation is submitted, so
/// the Auto simulations always see the final phases.
ProfileGuidedResult refineAutoScheme(Workload &W, PreparedApp &P,
                                     const MachineConfig &Cfg,
                                     const DaeOptions &Opts,
                                     GenerationMemo *Memo,
                                     pm::FunctionAnalysisManager &FAM) {
  ProfileGuidedResult R;
  bool AnyAccess = false;
  for (const Task &T : P.SchemeTasks[2])
    if (T.Access) {
      AnyAccess = true;
      break;
    }
  if (!AnyAccess)
    return R;
  R.Ran = true;

  verify::DifferentialSpec Spec;
  Spec.Init = W.Init;
  Spec.OutputGlobals = W.OutputGlobals;
  Spec.OutputSizes = W.OutputSizes;
  verify::DifferentialChecker Checker(Cfg, *P.L, std::move(Spec));

  std::vector<TaskObservation> Obs;
  RunProfile BeforeProfile;
  R.Before = Checker.check(P.SchemeTasks[2], &Obs, &BeforeProfile);
  R.EdpBefore = evaluate(BeforeProfile, Cfg, minMaxConfig(Cfg, 0.0)).EdpJs;

  // Persist the observations keyed by task content fingerprint; instances
  // of the same task function merge into one record.
  dae::AccessProfile Profile;
  for (size_t I = 0; I != P.SchemeTasks[2].size(); ++I) {
    if (!P.SchemeTasks[2][I].Access)
      continue;
    auto *Task = const_cast<ir::Function *>(P.SchemeTasks[2][I].Execute);
    Profile.record(taskContentFingerprint(*Task, FAM), Obs[I]);
  }

  dae::RefinementConfig RC;
  // A merged phase whose footprint exceeds the private L2 has a reuse
  // distance spanning into the shared LLC — the planner's split signal.
  RC.PhaseSplitFootprintBytes = Cfg.L2.SizeBytes;
  // Cold-load profiling costs an instrumented coupled run; only pay for it
  // when some phase actually overshoots the budget.
  std::set<const ir::Instruction *> Cold;
  std::vector<ir::Function *> TaskFns = W.taskFunctions();
  for (ir::Function *F : TaskFns) {
    dae::TaskProfileData D;
    if (Profile.lookup(taskContentFingerprint(*F, FAM), D) &&
        D.overshoot() > RC.OvershootBudget) {
      Cold = profileColdLoads(W, Cfg);
      if (!Cold.empty())
        RC.ColdLoads = &Cold;
      break;
    }
  }

  // Run the refinement pass through a pass manager so it is instrumented
  // (PipelineStats) and honors --verify-each like every other pass.
  auto PassPtr = std::make_unique<dae::ProfileGuidedRefinementPass>(
      *W.M, Profile, Opts, RC, Memo);
  dae::ProfileGuidedRefinementPass *Refiner = PassPtr.get();
  for (size_t GI = 0; GI != TaskFns.size(); ++GI)
    Refiner->noteBaseline(TaskFns[GI], P.Generation[GI]);
  pm::PassManager Mgr("dae-profile-guided");
  Mgr.addPass(std::move(PassPtr));
  for (ir::Function *F : TaskFns)
    Mgr.run(*F, FAM);

  if (Refiner->numRefined() == 0) {
    R.After = R.Before;
    R.EdpAfter = R.EdpBefore;
    return R;
  }
  R.RefinedTasks = Refiner->numRefined();

  // Swap the refined phases into the Auto scheme and the generation
  // diagnostics, auditing each one — refinement must never trade purity
  // for coverage.
  for (size_t GI = 0; GI != TaskFns.size(); ++GI) {
    const AccessPhaseResult *RR = Refiner->refinedResult(TaskFns[GI]);
    if (!RR)
      continue;
    P.Generation[GI] = *RR;
    R.Actions.push_back(TaskFns[GI]->getName() + ": " + RR->RefinementNote);
    for (Task &T : P.SchemeTasks[2])
      if (T.Execute == TaskFns[GI])
        T.Access = RR->AccessFn;
    verify::AuditReport Rep = verify::auditAccessPhase(*RR->AccessFn, FAM);
    for (const verify::AuditViolation &Viol : Rep.Violations) {
      R.AuditPure = false;
      std::string S = RR->AccessFn->getName() + ": " + Viol.Reason;
      if (Viol.Inst)
        S += ": " + ir::printInstruction(*Viol.Inst);
      R.AuditViolations.push_back(std::move(S));
    }
  }

  RunProfile AfterProfile;
  R.After = Checker.check(P.SchemeTasks[2], nullptr, &AfterProfile);
  R.EdpAfter = evaluate(AfterProfile, Cfg, minMaxConfig(Cfg, 0.0)).EdpJs;
  return R;
}

PreparedApp prepareApp(Workload &W, const DaeOptions *OptsOverride,
                       GenerationMemo *Memo,
                       const MachineConfig *PgCfg = nullptr) {
  PreparedApp P;
  P.W = &W;
  const DaeOptions &Opts = OptsOverride ? *OptsOverride : W.Opts;

  // Generate the Auto DAE access phase per task function. Generation
  // optimizes the task body first (shared by all schemes). One analysis
  // cache serves the whole app: classification computed during generation
  // is reused for the Table 1 loop counts below.
  pm::FunctionAnalysisManager FAM;
  std::map<const ir::Function *, const ir::Function *> AutoAccess;
  for (ir::Function *F : W.taskFunctions()) {
    AccessPhaseResult G = Memo ? Memo->generate(*W.M, *F, Opts, FAM)
                               : generateAccessPhase(*W.M, *F, Opts, FAM);
    if (G.AccessFn)
      AutoAccess[F] = G.AccessFn;
    const analysis::TaskClassification &Cls =
        FAM.getResult<pm::TaskClassificationAnalysis>(*F);
    P.AffineLoops += Cls.AffineLoops;
    P.TotalLoops += Cls.TotalLoops;
    P.Generation.push_back(std::move(G));
  }

  // Build the three task lists.
  for (auto &List : P.SchemeTasks)
    List = W.Tasks;
  for (size_t I = 0; I != W.Tasks.size(); ++I) {
    P.SchemeTasks[0][I].Access = nullptr;
    auto MIt = W.ManualAccess.find(W.Tasks[I].Execute);
    P.SchemeTasks[1][I].Access =
        MIt == W.ManualAccess.end() ? nullptr : MIt->second;
    auto AIt = AutoAccess.find(W.Tasks[I].Execute);
    P.SchemeTasks[2][I].Access =
        AIt == AutoAccess.end() ? nullptr : AIt->second;
  }

  P.L = std::make_unique<Loader>(*W.M);

  // Profile-guided refinement runs here — after the Loader exists (the
  // differential runs need it; regeneration adds functions but no globals,
  // so the layout stays valid) and before any scheme simulation can start.
  if (PgCfg)
    P.Pg = refineAutoScheme(W, P, *PgCfg, Opts, Memo, FAM);
  return P;
}

AppResult assembleApp(PreparedApp &P, RunProfile Profiles[3],
                      std::vector<std::uint8_t> Outputs[3],
                      const MachineConfig &Cfg) {
  AppResult R;
  R.Name = P.W->Name;
  R.Cae = std::move(Profiles[0]);
  R.Manual = std::move(Profiles[1]);
  R.Auto = std::move(Profiles[2]);
  R.Generation = std::move(P.Generation);
  R.OutputsMatch = Outputs[0] == Outputs[1] && Outputs[0] == Outputs[2];
  R.CaeOutputs = std::move(Outputs[0]);
  R.ManualOutputs = std::move(Outputs[1]);
  R.AutoOutputs = std::move(Outputs[2]);

  // Table 1 row, measured from the Auto DAE profile at the Min/Max policy
  // (access at fmin as in the paper's TA methodology).
  RunReport Rep = evaluate(R.Auto, Cfg, minMaxConfig(Cfg, 0.0));
  R.Row.Name = P.W->Name;
  R.Row.AffineLoops = P.AffineLoops;
  R.Row.TotalLoops = P.TotalLoops;
  R.Row.NumTasks = P.W->Tasks.size();
  R.Row.AccessTimePercent = Rep.accessTimeFraction() * 100.0;
  R.Row.AccessTimeUs = Rep.avgAccessUs();
  R.AutoPg = std::move(P.Pg);
  return R;
}

} // namespace

AppResult harness::runApp(Workload &W, const MachineConfig &Cfg,
                          const DaeOptions *OptsOverride,
                          GenerationMemo *Memo, bool DaeVerify,
                          bool DaeProfileGuided) {
  PreparedApp P =
      prepareApp(W, OptsOverride, Memo, DaeProfileGuided ? &Cfg : nullptr);
  RunProfile Profiles[3];
  std::vector<std::uint8_t> Outputs[3];
  for (int S = 0; S != 3; ++S)
    Profiles[S] = runScheme(W, P.SchemeTasks[S], Cfg, *P.L, Outputs[S]);
  AppResult R = assembleApp(P, Profiles, Outputs, Cfg);
  if (DaeVerify) {
    R.ManualVerify = verifyScheme(W, P.SchemeTasks[1], Cfg, *P.L);
    R.AutoVerify = verifyScheme(W, P.SchemeTasks[2], Cfg, *P.L);
  }
  return R;
}

std::vector<AppResult> harness::runSuite(const std::vector<SuiteItem> &Items,
                                         const MachineConfig &Cfg,
                                         const SuiteConfig &SC) {
  JobPool Pool(SC.Jobs);

  struct AppSlot {
    PreparedApp P;
    RunProfile Profiles[3];
    std::vector<std::uint8_t> Outputs[3];
    DaeVerifyResult Verify[2]; ///< Manual, Auto (under SC.DaeVerify).
  };
  std::vector<AppSlot> Slots(Items.size());

  // One preparation job per app; each fans out its three scheme simulations
  // (plus, under --dae-verify, the two DAE-scheme oracle runs) as further
  // jobs (private Memory per simulation; the Loader and the module are
  // shared read-only between them).
  for (size_t I = 0; I != Items.size(); ++I) {
    Pool.submit([&Pool, &Slots, &Items, &Cfg, &SC, I] {
      AppSlot &S = Slots[I];
      S.P = prepareApp(*Items[I].W, Items[I].OptsOverride, SC.Memo,
                       SC.DaeProfileGuided ? &Cfg : nullptr);
      for (int Sch = 0; Sch != 3; ++Sch)
        Pool.submit([&S, &Cfg, Sch] {
          S.Profiles[Sch] = runScheme(*S.P.W, S.P.SchemeTasks[Sch], Cfg,
                                      *S.P.L, S.Outputs[Sch]);
        });
      if (SC.DaeVerify)
        for (int D = 0; D != 2; ++D)
          Pool.submit([&S, &Cfg, D] {
            S.Verify[D] = verifyScheme(*S.P.W, S.P.SchemeTasks[D + 1],
                                       Cfg, *S.P.L);
          });
    });
  }
  Pool.wait();

  // Assemble in item order, independent of completion order.
  std::vector<AppResult> Results;
  Results.reserve(Slots.size());
  for (AppSlot &S : Slots) {
    AppResult R = assembleApp(S.P, S.Profiles, S.Outputs, Cfg);
    R.ManualVerify = std::move(S.Verify[0]);
    R.AutoVerify = std::move(S.Verify[1]);
    Results.push_back(std::move(R));
  }
  return Results;
}

MixResult harness::runMix(const std::vector<Workload *> &Mix,
                          const MachineConfig &Cfg, const MixConfig &MC) {
  if (Mix.empty() || Mix.size() > Cfg.NumCores)
    throw std::invalid_argument("mix size must be in [1, NumCores]");

  JobPool Pool(MC.Jobs);
  // Solo runs are single-core: each stream is one program pinned to one
  // timeline core, so its tasks execute sequentially and its retained traces
  // are already in that core's execution order.
  MachineConfig SoloCfg = Cfg;
  SoloCfg.NumCores = 1;

  struct StreamSlot {
    PreparedApp P;
    RunProfile CaeProfile, DaeProfile;
    RunTraces CaeTraces, DaeTraces;
    std::vector<std::uint8_t> CaeOut, DaeOut;
    DaeVerifyResult Verify;
  };
  std::vector<StreamSlot> Slots(Mix.size());

  // One preparation job per stream, fanning out the two traced scheme runs
  // (and, under DaeVerify, the per-stream differential oracle) as further
  // jobs — the same shape as runSuite.
  for (size_t I = 0; I != Mix.size(); ++I) {
    Pool.submit([&Pool, &Slots, &Mix, &SoloCfg, &MC, I] {
      StreamSlot &S = Slots[I];
      S.P = prepareApp(*Mix[I], nullptr, MC.Memo);
      Pool.submit([&S, &SoloCfg] {
        S.CaeProfile = runScheme(*S.P.W, S.P.SchemeTasks[0], SoloCfg, *S.P.L,
                                 S.CaeOut, &S.CaeTraces);
      });
      Pool.submit([&S, &SoloCfg] {
        S.DaeProfile = runScheme(*S.P.W, S.P.SchemeTasks[2], SoloCfg, *S.P.L,
                                 S.DaeOut, &S.DaeTraces);
      });
      if (MC.DaeVerify)
        Pool.submit([&S, &SoloCfg] {
          S.Verify =
              verifyScheme(*S.P.W, S.P.SchemeTasks[2], SoloCfg, *S.P.L);
        });
    });
  }
  Pool.wait();

  MixResult R;
  std::vector<CoreStream> CaeStreams, DaeStreams;
  for (size_t I = 0; I != Mix.size(); ++I) {
    StreamSlot &S = Slots[I];
    MixStreamResult MS;
    MS.Name = S.P.W->Name;
    MS.OutputsMatch = S.CaeOut == S.DaeOut;
    MS.Verify = std::move(S.Verify);
    R.Streams.push_back(std::move(MS));
    // Co-runners are distinct address spaces: bias each stream far above any
    // footprint so they never falsely alias in the shared LLC (the bias
    // stays well inside the trace encoding's 62-bit address space).
    std::uint64_t Bias = static_cast<std::uint64_t>(I) << 40;
    CaeStreams.push_back({&S.CaeProfile, &S.CaeTraces, Bias});
    DaeStreams.push_back({&S.DaeProfile, &S.DaeTraces, Bias});
  }

  auto Price = [&](const std::vector<CoreStream> &Streams,
                   runtime::TimelinePolicy P) {
    runtime::TimelineConfig TC;
    TC.Policy = P;
    TC.TransitionNs = MC.TransitionNs;
    TC.Governor = MC.Governor;
    return interleaveTimeline(Streams, Cfg, TC);
  };
  R.CaeMax = Price(CaeStreams, runtime::TimelinePolicy::FixedMax);
  R.CaeOndemand = Price(CaeStreams, runtime::TimelinePolicy::Ondemand);
  R.CaeConservative = Price(CaeStreams, runtime::TimelinePolicy::Conservative);
  R.DaeMinMax = Price(DaeStreams, runtime::TimelinePolicy::DaeMinMax);
  R.DaeOracle = Price(DaeStreams, runtime::TimelinePolicy::OracleEdp);
  for (size_t I = 0; I != Mix.size(); ++I) {
    R.Streams[I].CaeProfile = std::move(Slots[I].CaeProfile);
    R.Streams[I].DaeProfile = std::move(Slots[I].DaeProfile);
  }
  return R;
}

runtime::RunReport harness::priceCaeMax(const AppResult &R,
                                        const MachineConfig &Cfg,
                                        double TransitionNs) {
  return evaluateCoupled(R.Cae, Cfg, Cfg.fmax(), TransitionNs);
}

EvalConfig harness::minMaxConfig(const MachineConfig &Cfg,
                                 double TransitionNs) {
  EvalConfig MinMax;
  MinMax.Policy = FreqPolicy::Fixed;
  MinMax.AccessFreqGHz = Cfg.fmin();
  MinMax.ExecFreqGHz = Cfg.fmax();
  MinMax.TransitionNs = TransitionNs;
  return MinMax;
}

EvalConfig harness::optimalEdpConfig(double TransitionNs) {
  EvalConfig Opt;
  Opt.Policy = FreqPolicy::OptimalEdp;
  Opt.TransitionNs = TransitionNs;
  return Opt;
}

Fig3Row harness::priceFig3(const AppResult &R, const MachineConfig &Cfg,
                           double TransitionNs) {
  RunReport Base = priceCaeMax(R, Cfg, TransitionNs);

  auto Norm = [&](const RunReport &Rep, double Out[3]) {
    Out[0] = Rep.TimeSec / Base.TimeSec;
    Out[1] = Rep.EnergyJ / Base.EnergyJ;
    Out[2] = Rep.EdpJs / Base.EdpJs;
  };

  EvalConfig Opt = optimalEdpConfig(TransitionNs);
  EvalConfig MinMax = minMaxConfig(Cfg, TransitionNs);

  Fig3Row Row;
  Row.Name = R.Name;
  Norm(evaluate(R.Cae, Cfg, Opt), Row.CaeOpt);
  Norm(evaluate(R.Manual, Cfg, MinMax), Row.ManualMinMax);
  Norm(evaluate(R.Manual, Cfg, Opt), Row.ManualOpt);
  Norm(evaluate(R.Auto, Cfg, MinMax), Row.AutoMinMax);
  Norm(evaluate(R.Auto, Cfg, Opt), Row.AutoOpt);
  return Row;
}

std::vector<Fig4Point> harness::priceFig4(const AppResult &R,
                                          const MachineConfig &Cfg,
                                          Scheme Which, double TransitionNs) {
  const RunProfile &P = Which == Scheme::Cae      ? R.Cae
                        : Which == Scheme::Manual ? R.Manual
                                                  : R.Auto;
  std::vector<Fig4Point> Series;
  for (double F : Cfg.FrequenciesGHz) {
    EvalConfig E;
    E.Policy = FreqPolicy::Fixed;
    // DAE: access pinned at fmin, execute swept (Figure 4's x axis); CAE:
    // the whole task swept.
    E.AccessFreqGHz = Which == Scheme::Cae ? F : Cfg.fmin();
    E.ExecFreqGHz = F;
    E.TransitionNs = TransitionNs;
    RunReport Rep = evaluate(P, Cfg, E);

    Fig4Point Pt;
    Pt.FreqGHz = F;
    Pt.PrefetchSec = Rep.AccessTimeSec;
    Pt.TaskSec = Rep.ExecuteTimeSec;
    Pt.OsiSec = Rep.OsiTimeSec;
    // Energy split proportional to the per-bucket core time at that
    // bucket's frequency; a faithful split would need per-phase bookkeeping,
    // so approximate by time share (the buckets' power levels are close).
    double TotalSec = Pt.PrefetchSec + Pt.TaskSec + Pt.OsiSec;
    double Scale = TotalSec > 0.0 ? Rep.EnergyJ / TotalSec : 0.0;
    Pt.PrefetchJ = Pt.PrefetchSec * Scale;
    Pt.TaskJ = Pt.TaskSec * Scale;
    Pt.OsiJ = Pt.OsiSec * Scale;
    Series.push_back(Pt);
  }
  return Series;
}

std::set<const ir::Instruction *>
harness::profileColdLoads(Workload &W, const MachineConfig &Cfg,
                          double MissRateThreshold) {
  // Match the generator's precondition: tasks are optimized before access
  // phases are derived, so the profiled instruction identities are the ones
  // the skeleton generator will clone.
  pm::FunctionAnalysisManager FAM;
  for (ir::Function *F : W.taskFunctions())
    passes::optimizeFunction(*F, FAM);

  Loader L(*W.M);
  Memory Mem;
  W.Init(Mem, L);
  Interpreter Interp(Cfg, Mem, L);
  // Each task runs functionally with a load-site sink; its trace then walks,
  // in order, through one private core's hierarchy — the access order a
  // coupled run presents to the caches — charging every load and DRAM miss
  // to its site.
  CacheHierarchy Caches(Cfg, 1);
  struct SiteCounts {
    std::uint64_t Loads = 0;
    std::uint64_t Misses = 0;
  };
  std::unordered_map<const ir::Instruction *, SiteCounts> Sites;
  AccessTrace Trace;
  std::vector<const ir::Instruction *> LoadSites;
  for (const Task &T : W.Tasks) {
    Trace.clear();
    LoadSites.clear();
    Interp.runTraced(*T.Execute, T.Args, Trace, /*RetOut=*/nullptr,
                     &LoadSites);
    auto Site = LoadSites.begin();
    for (std::uint64_t Event : Trace.events()) {
      HitLevel Level = Caches.access(0, AccessTrace::addrOf(Event));
      if (AccessTrace::kindOf(Event) != AccessTrace::Kind::Load)
        continue;
      SiteCounts &C = Sites[*Site++];
      ++C.Loads;
      if (Level == HitLevel::Memory)
        ++C.Misses;
    }
    assert(Site == LoadSites.end() && "one load site per load event");
  }

  std::set<const ir::Instruction *> Cold;
  for (const auto &[Inst, C] : Sites)
    if (static_cast<double>(C.Misses) / static_cast<double>(C.Loads) <
        MissRateThreshold)
      Cold.insert(Inst);
  return Cold;
}
