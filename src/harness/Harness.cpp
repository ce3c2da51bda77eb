//===- harness/Harness.cpp - Paper experiment driver -------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/Harness.h"

#include "analysis/TaskAnalysis.h"
#include "dae/AccessProfile.h"
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
#include "support/MathUtil.h"
#include "verify/AccessPhaseAudit.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <unordered_map>

using namespace dae;
using namespace dae::harness;
using namespace dae::runtime;
using namespace dae::sim;
using dae::workloads::Workload;

namespace {

/// Runs one scheme (fresh memory + init) and snapshots the outputs. With
/// \p Capture the run also records the oracle capture and hashes the final
/// memory image. When \p Traces is non-null the run's traces are retained
/// for a later contention-timeline interleave.
verify::CapturedRun runScheme(const Workload &W, const std::vector<Task> &Tasks,
                              const MachineConfig &Cfg, const Loader &L,
                              bool Capture, RunTraces *Traces = nullptr) {
  Memory Mem;
  W.Init(Mem, L);
  TaskRuntime RT(Cfg, Mem, L);
  verify::CapturedRun Run;
  Run.Profile = RT.execute(Tasks, /*RunAccess=*/true,
                           Capture ? &Run.Capture : nullptr, Traces);
  if (Capture)
    Run.ImageHash = Mem.imageHash();
  Run.Outputs =
      verify::snapshotOutputs(W.OutputGlobals, W.OutputSizes, Mem, L);
  return Run;
}

/// Appends the static purity audit's findings for \p AccessFn to
/// \p Violations (one string each) and clears \p Pure when there are any.
void auditInto(const ir::Function &AccessFn, pm::FunctionAnalysisManager &FAM,
               bool &Pure, std::vector<std::string> &Violations) {
  // The audit only reads the function; the analysis manager's interface
  // is mutable because passes share it.
  verify::AuditReport Rep =
      verify::auditAccessPhase(const_cast<ir::Function &>(AccessFn), FAM);
  for (const verify::AuditViolation &Viol : Rep.Violations) {
    Pure = false;
    std::string S = AccessFn.getName() + ": " + Viol.Reason;
    if (Viol.Inst)
      S += ": " + ir::printInstruction(*Viol.Inst);
    Violations.push_back(std::move(S));
  }
}

/// The per-scheme correctness oracle (--dae-verify): static purity audit of
/// every access phase in \p Tasks, then the dynamic differential of the
/// scheme's captured run \p With against the captured CAE run \p Cae (the
/// scheme's run with its access phases suppressed). \p Diff, when non-null,
/// is that pair's differential, already computed (refinement's After), and
/// is taken instead of comparing again. Returns Ran == false for schemes
/// with no decoupled tasks (there is nothing to verify).
DaeVerifyResult verifyScheme(const std::vector<Task> &Tasks,
                             const verify::CapturedRun &With,
                             const verify::CapturedRun &Cae,
                             const verify::DifferentialResult *Diff = nullptr) {
  DaeVerifyResult V;
  V.AuditPure = true;

  bool AnyAccess = false;
  pm::FunctionAnalysisManager FAM;
  std::set<const ir::Function *> Audited;
  for (const Task &T : Tasks) {
    if (!T.Access)
      continue;
    AnyAccess = true;
    if (Audited.insert(T.Access).second)
      auditInto(*T.Access, FAM, V.AuditPure, V.AuditViolations);
  }
  if (!AnyAccess)
    return V;
  V.Ran = true;
  V.Diff = Diff ? *Diff : verify::compare(With, Cae);
  return V;
}

/// Everything one app needs before its scheme simulations can run:
/// generated access phases, the three task lists, and the loader.
struct PreparedApp {
  Workload *W = nullptr;
  /// The generator options the Auto phases were generated with.
  const DaeOptions *Opts = nullptr;
  std::vector<AccessPhaseResult> Generation;
  unsigned AffineLoops = 0, TotalLoops = 0;
  /// Task lists indexed by Scheme (Cae, Manual, Auto).
  std::vector<Task> SchemeTasks[3];
  std::unique_ptr<Loader> L;
  /// Generation's analysis cache, kept for refinement (null otherwise).
  std::unique_ptr<pm::FunctionAnalysisManager> FAM;
};

/// What runApps derives for each app beside its three scheme runs.
struct AppPlan {
  /// Profile-guided refinement of the Auto scheme.
  bool Refine = false;
  /// Oracle verdicts of both DAE schemes.
  bool Verify = false;

  /// Whether scheme \p S's run carries the oracle capture: the CAE run is
  /// every comparison's baseline, and a DAE run is captured when its
  /// verdict (or, for Auto, refinement) reads it.
  bool captures(int S) const { return Verify || (Refine && S != 1); }
};

/// One app's pipeline state inside runApps.
struct AppSlot {
  PreparedApp P;
  /// Scheme runs, indexed by Scheme.
  verify::CapturedRun Runs[3];
  /// Scheme runs still in flight; the one that brings it to zero finishes
  /// the app.
  std::atomic<unsigned> Pending{0};
  DaeVerifyResult Verify[2]; ///< Manual, Auto.
  ProfileGuidedResult Pg;
};

/// The profile-guided refinement loop over one app's Auto scheme (see
/// dae/ProfileGuidedRefinement.h): measure per-task coverage/overshoot from
/// the captured Auto and CAE runs, persist them into an AccessProfile keyed
/// by task fingerprint, run the pm-registered refinement pass over the task
/// functions (with generation's analysis cache), then swap the refined
/// phases into SchemeTasks[2] (and Generation) and re-simulate the Auto
/// scheme. Refinement only adds and renames access functions, never changes
/// a task function, so the CAE and Manual runs stand.
ProfileGuidedResult refineAutoScheme(AppSlot &S, const MachineConfig &Cfg) {
  PreparedApp &P = S.P;
  Workload &W = *P.W;
  pm::FunctionAnalysisManager &FAM = *P.FAM;
  std::vector<Task> &AutoTasks = P.SchemeTasks[2];
  ProfileGuidedResult R;
  if (std::none_of(AutoTasks.begin(), AutoTasks.end(),
                   [](const Task &T) { return T.Access; }))
    return R;
  R.Ran = true;

  std::vector<TaskObservation> Obs;
  R.Before = verify::compare(S.Runs[2], S.Runs[0], &Obs);
  R.EdpBefore =
      evaluate(S.Runs[2].Profile, Cfg, minMaxConfig(Cfg, 0.0)).EdpJs;

  // Persist the observations keyed by task content fingerprint; instances
  // of the same task function merge into one record.
  dae::AccessProfile Profile;
  for (size_t I = 0; I != AutoTasks.size(); ++I) {
    if (!AutoTasks[I].Access)
      continue;
    auto *Task = const_cast<ir::Function *>(AutoTasks[I].Execute);
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
      *W.M, Profile, *P.Opts, RC);
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
    for (Task &T : AutoTasks)
      if (T.Execute == TaskFns[GI])
        T.Access = RR->AccessFn;
    auditInto(*RR->AccessFn, FAM, R.AuditPure, R.AuditViolations);
  }

  S.Runs[2] = runScheme(W, AutoTasks, Cfg, *P.L, /*Capture=*/true);
  R.After = verify::compare(S.Runs[2], S.Runs[0]);
  R.EdpAfter = evaluate(S.Runs[2].Profile, Cfg, minMaxConfig(Cfg, 0.0)).EdpJs;
  return R;
}

PreparedApp prepareApp(Workload &W, const DaeOptions *OptsOverride,
                       bool KeepAnalyses) {
  PreparedApp P;
  P.W = &W;
  P.Opts = OptsOverride ? OptsOverride : &W.Opts;

  // Generate the Auto DAE access phase per task function. Generation
  // optimizes the task body first (shared by all schemes). One analysis
  // cache serves the whole app: classification computed during generation
  // is reused for the Table 1 loop counts below.
  auto FAM = std::make_unique<pm::FunctionAnalysisManager>();
  std::map<const ir::Function *, const ir::Function *> AutoAccess;
  for (ir::Function *F : W.taskFunctions()) {
    AccessPhaseResult G = generateAccessPhase(*W.M, *F, *P.Opts, *FAM);
    if (G.AccessFn)
      AutoAccess[F] = G.AccessFn;
    const analysis::TaskClassification &Cls =
        FAM->getResult<pm::TaskClassificationAnalysis>(*F);
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

  // Refinement adds functions but no globals, so the layout stays valid.
  P.L = std::make_unique<Loader>(*W.M);
  // Refinement reuses generation's analyses: its fingerprints and the
  // regeneration's task optimization are then cache hits.
  if (KeepAnalyses)
    P.FAM = std::move(FAM);
  return P;
}

/// Runs \p Plan over every item on a JobPool of \p Jobs: one preparation job
/// per app fans out the app's scheme runs as further jobs (a private Memory
/// each; the Loader and the module are shared read-only between them), and
/// the run that finishes last derives the app's refinement and oracle
/// verdicts inline from the captured runs, then frees the captures and the
/// analysis cache. Slots are returned in item order.
std::vector<AppSlot> runApps(const std::vector<SuiteItem> &Items,
                             const MachineConfig &Cfg, const AppPlan &Plan,
                             unsigned Jobs) {
  JobPool Pool(Jobs);
  std::vector<AppSlot> Slots(Items.size());

  auto Finish = [&Cfg, &Plan](AppSlot &S) {
    if (Plan.Refine)
      S.Pg = refineAutoScheme(S, Cfg);
    // Refinement's After already compares the final Auto run with the CAE
    // run; the Auto verdict takes it and only adds the audit.
    if (Plan.Verify)
      for (int D = 0; D != 2; ++D)
        S.Verify[D] =
            verifyScheme(S.P.SchemeTasks[D + 1], S.Runs[D + 1], S.Runs[0],
                         D == 1 && S.Pg.Ran ? &S.Pg.After : nullptr);
    for (verify::CapturedRun &Run : S.Runs)
      Run.Capture = RunCapture();
    S.P.FAM.reset();
  };

  for (size_t I = 0; I != Items.size(); ++I) {
    Pool.submit([&Pool, &Slots, &Items, &Cfg, &Plan, &Finish, I] {
      AppSlot &S = Slots[I];
      S.P = prepareApp(*Items[I].W, Items[I].OptsOverride, Plan.Refine);
      S.Pending = 3;
      for (int Sch = 0; Sch != 3; ++Sch)
        Pool.submit([&S, &Cfg, &Plan, &Finish, Sch] {
          S.Runs[Sch] = runScheme(*S.P.W, S.P.SchemeTasks[Sch], Cfg, *S.P.L,
                                  Plan.captures(Sch));
          if (--S.Pending == 0)
            Finish(S);
        });
    });
  }
  Pool.wait();
  return Slots;
}

AppResult assembleApp(AppSlot &S, const MachineConfig &Cfg) {
  AppResult R;
  R.Name = S.P.W->Name;
  R.Cae = std::move(S.Runs[0].Profile);
  R.Manual = std::move(S.Runs[1].Profile);
  R.Auto = std::move(S.Runs[2].Profile);
  R.Generation = std::move(S.P.Generation);
  R.CaeOutputs = std::move(S.Runs[0].Outputs);
  R.ManualOutputs = std::move(S.Runs[1].Outputs);
  R.AutoOutputs = std::move(S.Runs[2].Outputs);
  R.OutputsMatch =
      R.CaeOutputs == R.ManualOutputs && R.CaeOutputs == R.AutoOutputs;

  // Table 1 row, measured from the Auto DAE profile at the Min/Max policy
  // (access at fmin as in the paper's TA methodology).
  RunReport Rep = evaluate(R.Auto, Cfg, minMaxConfig(Cfg, 0.0));
  R.Row.Name = R.Name;
  R.Row.AffineLoops = S.P.AffineLoops;
  R.Row.TotalLoops = S.P.TotalLoops;
  R.Row.NumTasks = S.P.W->Tasks.size();
  R.Row.AccessTimePercent = Rep.accessTimeFraction() * 100.0;
  R.Row.AccessTimeUs = Rep.avgAccessUs();
  R.ManualVerify = std::move(S.Verify[0]);
  R.AutoVerify = std::move(S.Verify[1]);
  R.AutoPg = std::move(S.Pg);
  return R;
}

} // namespace

AppResult harness::runApp(Workload &W, const MachineConfig &Cfg,
                          const DaeOptions *OptsOverride, bool DaeVerify,
                          bool DaeProfileGuided) {
  SuiteConfig SC;
  SC.DaeVerify = DaeVerify;
  SC.DaeProfileGuided = DaeProfileGuided;
  return std::move(runSuite({{&W, OptsOverride}}, Cfg, SC).front());
}

std::vector<AppResult> harness::runSuite(const std::vector<SuiteItem> &Items,
                                         const MachineConfig &Cfg,
                                         const SuiteConfig &SC) {
  AppPlan Plan;
  Plan.Refine = SC.DaeProfileGuided;
  Plan.Verify = SC.DaeVerify;
  std::vector<AppSlot> Slots = runApps(Items, Cfg, Plan, SC.Jobs);

  std::vector<AppResult> Results;
  Results.reserve(Slots.size());
  for (AppSlot &S : Slots)
    Results.push_back(assembleApp(S, Cfg));
  return Results;
}

std::vector<MixResult>
harness::runMixes(const std::vector<std::vector<Workload *>> &Mixes,
                  const MachineConfig &Cfg, const MixConfig &MC) {
  for (const std::vector<Workload *> &Mix : Mixes)
    if (Mix.empty() || Mix.size() > Cfg.NumCores)
      throw std::invalid_argument("mix size must be in [1, NumCores]");

  // Solo runs are single-core: each stream is one program pinned to one
  // timeline core, so its tasks execute sequentially and its retained traces
  // are already in that core's execution order.
  MachineConfig SoloCfg = Cfg;
  SoloCfg.NumCores = 1;

  // Each distinct workload simulates its CAE and Auto DAE schemes once, with
  // retained traces, however many streams run it; under DaeVerify its one
  // oracle verdict comes from that pair. Runs and traces are indexed by
  // side: 0 is CAE, 1 is Auto DAE.
  struct MixApp {
    PreparedApp P;
    verify::CapturedRun Runs[2];
    RunTraces Traces[2];
    DaeVerifyResult Verify;
  };
  std::vector<Workload *> Ws;
  std::map<const Workload *, std::size_t> AppOf;
  for (const std::vector<Workload *> &Mix : Mixes)
    for (Workload *W : Mix)
      if (AppOf.emplace(W, Ws.size()).second)
        Ws.push_back(W);
  std::vector<MixApp> Apps(Ws.size());

  // Every stream points into its app's runs, per side. Co-runners are
  // distinct address spaces: bias each stream far above any footprint so
  // they never falsely alias in the shared LLC (the bias stays well inside
  // the trace encoding's 62-bit address space).
  std::vector<std::vector<CoreStream>> Streams[2];
  for (int Side = 0; Side != 2; ++Side) {
    Streams[Side].resize(Mixes.size());
    for (size_t M = 0; M != Mixes.size(); ++M)
      for (size_t I = 0; I != Mixes[M].size(); ++I) {
        MixApp &A = Apps[AppOf.at(Mixes[M][I])];
        Streams[Side][M].push_back({&A.Runs[Side].Profile, &A.Traces[Side],
                                    static_cast<std::uint64_t>(I) << 40});
      }
  }

  // One job per (mix, policy): CAE streams under the performance and
  // reactive governors, Auto DAE streams under the DAE policies. The
  // interleaves only read the shared runs. Wider mixes go first, so the
  // longest interleaves do not start last.
  struct PolicyJob {
    TimelinePolicy Policy;
    int Side; ///< The streams it interleaves: 1 Auto DAE, 0 CAE.
    TimelineReport MixResult::*Out;
  };
  static const PolicyJob Policies[] = {
      {TimelinePolicy::FixedMax, 0, &MixResult::CaeMax},
      {TimelinePolicy::Ondemand, 0, &MixResult::CaeOndemand},
      {TimelinePolicy::Conservative, 0, &MixResult::CaeConservative},
      {TimelinePolicy::DaeMinMax, 1, &MixResult::DaeMinMax},
      {TimelinePolicy::OracleEdp, 1, &MixResult::DaeOracle},
  };
  std::vector<size_t> Order(Mixes.size());
  std::iota(Order.begin(), Order.end(), 0);
  std::stable_sort(Order.begin(), Order.end(), [&Mixes](size_t A, size_t B) {
    return Mixes[A].size() > Mixes[B].size();
  });

  // One side's traces live at a time, in one pool. Each app's first job
  // prepares it and runs its CAE solo run; the job that finishes the last
  // one submits the CAE interleaves, then the Auto DAE solo runs. Each Auto
  // run derives its app's verdict from its capture and the CAE run's and
  // frees both; the last one submits the DAE interleaves. The last
  // interleave of a side frees that side's traces. At one job (FIFO) the
  // Auto runs therefore start after the CAE traces are gone; a wider pool
  // overlaps the CAE interleaves' tail with the first Auto runs.
  std::vector<MixResult> Results(Mixes.size());
  std::atomic<std::size_t> SolosLeft[2] = {Apps.size(), Apps.size()};
  std::atomic<std::size_t> InterleavesLeft[2] = {0, 0};
  for (const PolicyJob &J : Policies)
    InterleavesLeft[J.Side] += Mixes.size();
  JobPool Pool(MC.Jobs);
  auto SubmitInterleaves = [&](int Side) {
    for (size_t M : Order)
      for (const PolicyJob &J : Policies)
        if (J.Side == Side)
          Pool.submit([&, M, J] {
            TimelineConfig TC;
            TC.Policy = J.Policy;
            Results[M].*J.Out =
                interleaveTimeline(Streams[J.Side][M], Cfg, TC);
            if (--InterleavesLeft[J.Side] == 0)
              for (MixApp &A : Apps)
                A.Traces[J.Side] = RunTraces();
          });
  };
  // Runs one side's solo run of A; true when it was that side's last.
  auto RunSolo = [&](MixApp &A, int Side) {
    A.Runs[Side] = runScheme(*A.P.W, A.P.SchemeTasks[Side ? 2 : 0], SoloCfg,
                             *A.P.L, MC.DaeVerify, &A.Traces[Side]);
    if (Side == 1 && MC.DaeVerify) {
      A.Verify = verifyScheme(A.P.SchemeTasks[2], A.Runs[1], A.Runs[0]);
      A.Runs[0].Capture = RunCapture();
      A.Runs[1].Capture = RunCapture();
    }
    return --SolosLeft[Side] == 0;
  };
  for (size_t I = 0; I != Apps.size(); ++I)
    Pool.submit([&, I] {
      Apps[I].P = prepareApp(*Ws[I], nullptr, /*KeepAnalyses=*/false);
      if (!RunSolo(Apps[I], 0))
        return;
      SubmitInterleaves(0);
      for (MixApp &A : Apps)
        Pool.submit([&RunSolo, &SubmitInterleaves, &A] {
          if (RunSolo(A, 1))
            SubmitInterleaves(1);
        });
    });
  Pool.wait();

  for (size_t M = 0; M != Mixes.size(); ++M)
    for (Workload *W : Mixes[M]) {
      const MixApp &A = Apps[AppOf.at(W)];
      MixStreamResult MS;
      MS.Name = W->Name;
      MS.OutputsMatch = A.Runs[0].Outputs == A.Runs[1].Outputs;
      MS.Verify = A.Verify;
      MS.CaeProfile = A.Runs[0].Profile;
      MS.DaeProfile = A.Runs[1].Profile;
      Results[M].Streams.push_back(std::move(MS));
    }
  return Results;
}

MixResult harness::runMix(const std::vector<Workload *> &Mix,
                          const MachineConfig &Cfg, const MixConfig &MC) {
  return std::move(runMixes({Mix}, Cfg, MC).front());
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
    Pt.PrefetchJ = Rep.AccessEnergyJ;
    Pt.TaskJ = Rep.ExecuteEnergyJ;
    Pt.OsiJ = Rep.OsiEnergyJ;
    Series.push_back(Pt);
  }
  return Series;
}

PaperFigures harness::paperFigures(const std::vector<AppResult> &Results,
                                   const MachineConfig &Cfg) {
  PaperFigures F;
  for (const AppResult &R : Results)
    F.Table1.push_back(R.Row);

  // Figure 3 prints the sweep's 500 ns and 0 ns rows, so its geomeans and
  // the sweep's agree by construction.
  for (double Ns : {0.0, 100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0}) {
    std::vector<Fig3Row> Rows;
    std::vector<double> Man, Auto, AutoTime;
    for (const AppResult &R : Results) {
      Rows.push_back(priceFig3(R, Cfg, Ns));
      Man.push_back(Rows.back().ManualOpt[2]);
      Auto.push_back(Rows.back().AutoOpt[2]);
      AutoTime.push_back(Rows.back().AutoOpt[0]);
    }
    F.Latency.push_back({Ns, geometricMean(Man), geometricMean(Auto),
                         geometricMean(AutoTime)});
    if (Ns == 500.0)
      F.Fig3At500 = std::move(Rows);
    else if (Ns == 0.0)
      F.Fig3At0 = std::move(Rows);
  }

  // The paper's three case studies: Cholesky (polyhedral access), FFT and
  // LibQ (skeleton access).
  for (const char *App : {"Cholesky", "FFT", "LibQ"})
    for (const AppResult &R : Results)
      if (R.Name == App)
        for (Scheme Which : {Scheme::Cae, Scheme::Manual, Scheme::Auto})
          F.Fig4.push_back({R.Name, Which, priceFig4(R, Cfg, Which, 500.0)});
  return F;
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
  // Only the switch backend records load sites; the trace and the sites do
  // not depend on the backend, so neither does the result.
  MachineConfig SwitchCfg = Cfg;
  SwitchCfg.Backend = SimBackend::Switch;
  Interpreter Interp(SwitchCfg, Mem, L);
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
