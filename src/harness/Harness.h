//===- harness/Harness.h - Paper experiment driver --------------*- C++ -*-===//
//
// Part of daecc, a reproduction of "Fix the code. Don't tweak the hardware"
// (CGO 2014). Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives one workload through the full pipeline: generate Auto DAE access
/// phases, simulate the three schemes (CAE / Manual DAE / Auto DAE) once
/// each, verify that all three produce bit-identical outputs (the access
/// phase is a pure prefetch), and price every paper configuration from the
/// profiles. The correctness oracle and profile-guided refinement read the
/// same scheme runs; only a refined Auto scheme is simulated again.
/// paperFigures then prices every paper section (Table 1, Figures 3 and 4,
/// the section 6.1 latency sweep) from one suite's results, without
/// simulating again; the bench drivers only print what it returns.
/// runMixes does the same for co-run mixes: it simulates each distinct
/// workload's solo runs once and prices every mix's contention timelines
/// from them.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_HARNESS_HARNESS_H
#define DAECC_HARNESS_HARNESS_H

#include "dae/AccessGenerator.h"
#include "runtime/Evaluator.h"
#include "runtime/Runtime.h"
#include "runtime/Timeline.h"
#include "verify/Differential.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace dae {

class GenerationMemo;

namespace harness {

/// Table 1 row for one application.
struct Table1Row {
  std::string Name;
  unsigned AffineLoops = 0;
  unsigned TotalLoops = 0;
  std::size_t NumTasks = 0;
  double AccessTimePercent = 0.0; ///< TA%.
  double AccessTimeUs = 0.0;      ///< TA (usec).
};

/// Oracle verdict for one (app, scheme); produced under --dae-verify /
/// DAECC_DAE_VERIFY (see verify/). Ran is false when verification was off
/// or the scheme has no decoupled tasks to check. The dynamic half compares
/// the scheme's own run against the CAE run (verify/Differential.h).
struct DaeVerifyResult {
  bool Ran = false;
  /// Static half: every access phase of the scheme passed AccessPhaseAudit.
  bool AuditPure = false;
  /// Static-half findings, one string per violation (empty when pure).
  std::vector<std::string> AuditViolations;
  /// Dynamic half: with/without-access differential + coverage/overshoot.
  verify::DifferentialResult Diff;
};

/// Outcome of the profile-guided refinement loop over one app's Auto DAE
/// scheme (--dae-profile-guided / DAECC_DAE_PG; see
/// dae/ProfileGuidedRefinement.h). Ran is false when refinement was off or
/// the scheme had no decoupled tasks. When Ran is true the Auto scheme's
/// simulated profile (AppResult::Auto) reflects the *refined* phases.
struct ProfileGuidedResult {
  bool Ran = false;
  /// Differential verdicts of the Auto scheme before and after refinement:
  /// Before compares the Auto scheme run against the CAE run, After the
  /// refined Auto run (the only scheme run simulated twice) against the same
  /// CAE run. When no task warranted regeneration, After == Before.
  verify::DifferentialResult Before, After;
  /// Every refined access phase passed the static purity audit.
  bool AuditPure = true;
  std::vector<std::string> AuditViolations;
  /// Task functions whose access phase was regenerated.
  std::size_t RefinedTasks = 0;
  /// One "<task>: <actions>" line per refined task function.
  std::vector<std::string> Actions;
  /// Min/Max-policy EDP of the Auto scheme before/after refinement (J*s);
  /// -1 when not priced.
  double EdpBefore = -1.0, EdpAfter = -1.0;
};

/// Everything measured for one application.
struct AppResult {
  std::string Name;

  // Raw per-scheme profiles (one simulation each).
  runtime::RunProfile Cae;
  runtime::RunProfile Manual;
  runtime::RunProfile Auto;

  // Per-task-function generation results (diagnostics).
  std::vector<AccessPhaseResult> Generation;

  Table1Row Row;

  /// True when CAE, Manual DAE and Auto DAE produced identical outputs.
  bool OutputsMatch = false;

  /// Byte snapshots of the workload's output globals after each scheme
  /// (little-endian, concatenated in OutputGlobals order). Kept so
  /// suite-level determinism can be asserted end to end.
  std::vector<std::uint8_t> CaeOutputs;
  std::vector<std::uint8_t> ManualOutputs;
  std::vector<std::uint8_t> AutoOutputs;

  /// Oracle verdicts for the two DAE schemes (Manual, Auto), populated only
  /// under --dae-verify.
  DaeVerifyResult ManualVerify;
  DaeVerifyResult AutoVerify;

  /// Profile-guided refinement outcome (under --dae-profile-guided).
  ProfileGuidedResult AutoPg;
};

/// Figure 3 bars for one application at one transition latency, normalized
/// to CAE at max frequency.
struct Fig3Row {
  std::string Name;
  // [time, energy, edp] per configuration.
  double CaeOpt[3];
  double ManualMinMax[3];
  double ManualOpt[3];
  double AutoMinMax[3];
  double AutoOpt[3];
};

/// Runs the full pipeline for one workload. \p Opts overrides the workload's
/// generator options when non-null. \p DaeVerify and \p DaeProfileGuided
/// act as the SuiteConfig fields do. A one-item runSuite at one job.
AppResult runApp(workloads::Workload &W, const sim::MachineConfig &Cfg,
                 const DaeOptions *OptsOverride = nullptr,
                 bool DaeVerify = false, bool DaeProfileGuided = false);

/// One unit of suite work: a workload plus optional per-item generator
/// options (the ablation drivers pass a different override per variant).
struct SuiteItem {
  workloads::Workload *W = nullptr;
  const DaeOptions *OptsOverride = nullptr;
};

/// Suite execution parameters.
struct SuiteConfig {
  /// Concurrent jobs (--jobs / DAECC_JOBS). 1 = sequential reference.
  unsigned Jobs = 1;
  /// Has no effect; deleted in the next benchmark revision.
  GenerationMemo *Memo = nullptr;
  /// Run the DAE correctness oracle per (app, DAE scheme): static
  /// AccessPhaseAudit over every access phase plus the with/without-access
  /// differential of the scheme's run against the CAE run, both captured
  /// (--dae-verify / DAECC_DAE_VERIFY). Results land in
  /// AppResult::ManualVerify / AutoVerify; simulated profiles and outputs
  /// are unaffected, and no extra run is simulated.
  bool DaeVerify = false;
  /// Run the profile-guided refinement loop per app once its CAE and Auto
  /// runs are done (--dae-profile-guided / DAECC_DAE_PG): measure the Auto
  /// scheme's per-task coverage/overshoot from those two captured runs,
  /// regenerate the phases the planner flags, and, when any phase changed,
  /// simulate the Auto scheme again with the refined phases. Results land
  /// in AppResult::AutoPg. Unlike DaeVerify this *changes* the Auto profile
  /// (that is its purpose); with the flag off nothing is touched.
  bool DaeProfileGuided = false;
};

/// Runs every item through the full per-app pipeline on a JobPool: each app
/// is prepared (generation) as one job that fans out its three scheme
/// simulations as further jobs, every simulation with a private Memory and
/// TaskRuntime. Under DaeVerify or DaeProfileGuided the runs carry the
/// oracle capture, and whichever of an app's runs finishes last derives the
/// app's refinement and verdicts from them (re-simulating Auto only when
/// refinement changed a phase), then frees the captures. Results are
/// returned in item order regardless of completion order and are
/// bit-identical to a sequential runApp loop for every Jobs value.
std::vector<AppResult> runSuite(const std::vector<SuiteItem> &Items,
                                const sim::MachineConfig &Cfg,
                                const SuiteConfig &SC);

/// One co-runner's outcome within a mix.
struct MixStreamResult {
  std::string Name;
  /// True when the stream's CAE and Auto DAE solo runs produced identical
  /// outputs (the DAE access phase must be a pure prefetch per core).
  bool OutputsMatch = false;
  /// Per-stream correctness oracle over the Auto DAE scheme (under
  /// MixConfig::DaeVerify), derived from the stream's two solo runs: every
  /// stream of one workload reports that workload's one verdict.
  DaeVerifyResult Verify;
  /// The stream's solo CAE and Auto DAE run profiles (NumCores=1). Streams
  /// of one workload carry copies of the same two runs.
  runtime::RunProfile CaeProfile, DaeProfile;
};

/// A co-scheduled workload mix priced on the contention timeline under the
/// paper's policy and the reactive-governor baselines. CAE-based policies
/// interleave the coupled traces, DAE-based ones the Auto DAE traces — the
/// same stream set, so EDP ratios isolate the policy.
struct MixResult {
  std::vector<MixStreamResult> Streams;
  runtime::TimelineReport CaeMax;          ///< Performance governor base.
  runtime::TimelineReport CaeOndemand;     ///< Reactive ondemand baseline.
  runtime::TimelineReport CaeConservative; ///< Reactive conservative baseline.
  runtime::TimelineReport DaeMinMax;       ///< DAE naive min/max split.
  runtime::TimelineReport DaeOracle;       ///< DAE per-phase EDP oracle.
};

/// Mix execution parameters (see SuiteConfig for the shared fields).
struct MixConfig {
  unsigned Jobs = 1;
  /// Has no effect; deleted in the next benchmark revision.
  GenerationMemo *Memo = nullptr;
  /// Derive an oracle verdict per workload from its CAE and Auto DAE solo
  /// runs, which then carry the capture until the verdict is out: the
  /// workload's Auto run derives it and frees both captures, before any DAE
  /// interleave runs (the CAE interleaves may run first).
  bool DaeVerify = false;
};

/// Runs every mix of \p Mixes co-scheduled, one workload per core (each
/// mix's size must be in [1, Cfg.NumCores]), and returns one MixResult per
/// mix, in order. Workloads are keyed by pointer: each distinct one
/// simulates its solo CAE and Auto DAE runs once, with retained traces
/// (NumCores=1, so per-stream profiles are sequential), however many
/// streams of however many mixes run it. Every (mix, policy) interleave
/// runs on the shared-LLC / bandwidth-throttled timeline, its streams
/// pointing into the shared runs, with DVFS transitions taking
/// Cfg.DvfsTransitionNs. Everything runs as jobs of one JobPool, one side
/// at a time: the CAE solo runs, then the CAE interleaves followed by the
/// Auto DAE solo runs, then the DAE interleaves. Each side's traces are
/// freed by its last interleave, so at Jobs == 1 the two sides' traces are
/// never live together. Results equal a runMix per mix on fresh workloads
/// and are bit-identical for every Jobs value (MultiCoreDeterminismTest).
std::vector<MixResult>
runMixes(const std::vector<std::vector<workloads::Workload *>> &Mixes,
         const sim::MachineConfig &Cfg, const MixConfig &MC);

/// Runs one mix: runMixes({Mix}, Cfg, MC).front().
MixResult runMix(const std::vector<workloads::Workload *> &Mix,
                 const sim::MachineConfig &Cfg, const MixConfig &MC);

/// Prices the Figure 3 configurations from \p R at \p TransitionNs.
Fig3Row priceFig3(const AppResult &R, const sim::MachineConfig &Cfg,
                  double TransitionNs);

/// Per-frequency breakdown series for Figure 4: for each ladder frequency,
/// the (Prefetch, Task, OSI) time and energy of one scheme.
struct Fig4Point {
  double FreqGHz;
  double PrefetchSec, TaskSec, OsiSec;
  double PrefetchJ, TaskJ, OsiJ;
};
enum class Scheme { Cae, Manual, Auto };
std::vector<Fig4Point> priceFig4(const AppResult &R,
                                 const sim::MachineConfig &Cfg,
                                 Scheme Which, double TransitionNs);

/// One Figure 4 series: one application under one scheme.
struct Fig4Series {
  std::string App;
  Scheme Which;
  std::vector<Fig4Point> Points;
};

/// One point of the section 6.1 transition-latency sweep: geomeans over
/// every application of the Optimal-EDP configurations, normalized to CAE at
/// max frequency.
struct LatencyPoint {
  double Ns;
  double ManualOptEdp, AutoOptEdp, AutoOptTime;
};

/// Every paper section, priced from one suite's results.
struct PaperFigures {
  /// Each application's AppResult::Row, in suite order.
  std::vector<Table1Row> Table1;
  /// priceFig3 per application at 500 ns and at 0 ns, in suite order.
  std::vector<Fig3Row> Fig3At500, Fig3At0;
  /// Cholesky, FFT and LibQ (those in the suite), each under CAE, Manual DAE
  /// and Auto DAE, at 500 ns.
  std::vector<Fig4Series> Fig4;
  /// 0, 100, 250, 500, 1000, 2000 and 4000 ns, in that order.
  std::vector<LatencyPoint> Latency;
};

/// Prices every paper section from \p Results (one runSuite over the
/// applications, at least one): the paper's evaluation protocol — which
/// latencies, which Figure 4 applications — is named here only. Pure: no
/// simulation runs.
PaperFigures paperFigures(const std::vector<AppResult> &Results,
                          const sim::MachineConfig &Cfg);

/// Helper: evaluates one profile under the paper's named configurations.
runtime::RunReport priceCaeMax(const AppResult &R,
                               const sim::MachineConfig &Cfg,
                               double TransitionNs);

/// The naive Min/Max policy: access phases at fmin, execute at fmax.
runtime::EvalConfig minMaxConfig(const sim::MachineConfig &Cfg,
                                 double TransitionNs);

/// The paper's per-phase Optimal-EDP search (section 3.1 policy (b)).
runtime::EvalConfig optimalEdpConfig(double TransitionNs);

/// Profile-guided selective prefetching (the paper's proposed refinement,
/// sections 5.2.2/6.2.3): optimizes the workload's task functions, runs the
/// coupled tasks once through a switch-backend Interpreter with a load-site
/// sink, walks each trace in order through a private one-core cache
/// hierarchy, and returns the loads whose DRAM miss rate stays below
/// \p MissRateThreshold — candidates to skip when prefetching (pass the
/// result via DaeOptions::ColdLoads). The result does not depend on the
/// configured backend.
std::set<const ir::Instruction *>
profileColdLoads(workloads::Workload &W, const sim::MachineConfig &Cfg,
                 double MissRateThreshold = 0.02);

} // namespace harness
} // namespace dae

#endif // DAECC_HARNESS_HARNESS_H
