//===- bench/BenchUtil.h - Shared bench harness helpers ---------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Small shared helpers for the table/figure regeneration binaries: scale
/// and job-count selection via argv/env, consistent row printing, and host
/// wall-clock throughput reporting into BENCH_<name>.json (simulated
/// instructions per second — the metric that shows the --jobs speedup on
/// multi-core hosts, since simulated results are bit-identical by
/// construction).
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_BENCH_BENCHUTIL_H
#define DAECC_BENCH_BENCHUTIL_H

#include "harness/Harness.h"
#include "pm/Instrumentation.h"
#include "runtime/Task.h"
#include "sim/AccessTrace.h"
#include "sim/MachineConfig.h"
#include "support/EnvParse.h"
#include "workloads/Workload.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

namespace dae {
namespace bench {

/// Strict positive-integer flag value. Garbage (non-numeric, trailing junk,
/// zero, negative) is a hard configuration error (exit 2), never a silent
/// fall-back to a default — a sweep that asked for 8 cores and silently got
/// 1 would mislabel its own results. Environment fallbacks go through the
/// same contract via support::envUnsignedOr / envBool01Or.
inline unsigned parseUnsignedFlag(const char *Flag, const char *Value) {
  char *End = nullptr;
  errno = 0;
  long long N = std::strtoll(Value, &End, 10);
  if (End == Value || *End != '\0' || errno == ERANGE || N <= 0 ||
      N > static_cast<long long>(std::numeric_limits<unsigned>::max())) {
    std::fprintf(stderr,
                 "error: invalid %s value '%s' (expected a positive "
                 "integer)\n",
                 Flag, Value);
    std::exit(2);
  }
  return static_cast<unsigned>(N);
}

/// Full scale by default; `--test-scale` (or DAECC_TEST_SCALE=1) shrinks the
/// inputs so the whole suite runs in seconds (used by ctest smoke runs).
inline workloads::Scale scaleFromArgs(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--test-scale") == 0)
      return workloads::Scale::Test;
  return support::envBool01Or("DAECC_TEST_SCALE", false)
             ? workloads::Scale::Test
             : workloads::Scale::Full;
}

/// Concurrent suite jobs for harness::runSuite: `--jobs=N` (or
/// DAECC_JOBS=N). Defaults to 1, the sequential reference; any value
/// produces bit-identical simulated results (see harness/JobPool.h).
inline unsigned jobsFromArgs(int Argc, char **Argv) {
  // Repeated flags deterministically last-win (matching BenchOptions::parse),
  // so a sweep script appending overrides to a base command behaves as
  // expected instead of silently keeping the first value.
  const char *Last = nullptr;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--jobs=", 7) == 0)
      Last = Argv[I] + 7;
  if (Last)
    return parseUnsignedFlag("--jobs", Last);
  return support::envUnsignedOr("DAECC_JOBS", 1u);
}

/// Functional execution backend: `--sim-backend={switch,threaded,native}`
/// overrides the process default (DAECC_SIM_BACKEND, else threaded; see
/// sim::defaultSimBackend). Every backend produces bit-identical simulated
/// results; the flag exists to measure the backends' host-side win (the
/// `interp` block of BENCH_<name>.json) and to keep the reference
/// interpreter reachable for differential debugging. An unknown value is a
/// hard error (exit 2), never a silent fall-back — a sweep that thinks it
/// measured one backend but ran another would produce wrong conclusions.
inline sim::SimBackend backendFromArgs(int Argc, char **Argv) {
  // Last occurrence wins (see jobsFromArgs); every occurrence is still
  // validated so a typo can't hide behind a later correct repeat.
  bool HaveFlag = false;
  sim::SimBackend Chosen = sim::SimBackend::Switch;
  for (int I = 1; I < Argc; ++I)
    if (std::strncmp(Argv[I], "--sim-backend=", 14) == 0) {
      const char *V = Argv[I] + 14;
      sim::SimBackend B;
      if (!sim::simBackendFromName(V, B)) {
        std::fprintf(stderr,
                     "error: unknown --sim-backend value '%s' (expected %s)\n",
                     V, sim::simBackendValidValues());
        std::exit(2);
      }
      Chosen = B;
      HaveFlag = true;
    }
  return HaveFlag ? Chosen : sim::defaultSimBackend();
}

/// Compilation-pipeline switches shared by the drivers: `--verify-each` and
/// `--print-after-all` flip pm::config() (same effect as DAECC_VERIFY_EACH=1
/// / DAECC_PRINT_AFTER_ALL=1); returns true when `--pass-stats` was given,
/// in which case the driver prints pm::PipelineStats before exiting. The
/// per-pass timing block goes into BENCH_<name>.json unconditionally.
inline bool pipelineFlagsFromArgs(int Argc, char **Argv) {
  bool PassStats = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--verify-each") == 0)
      pm::config().VerifyEach = true;
    else if (std::strcmp(Argv[I], "--print-after-all") == 0)
      pm::config().PrintAfterAll = true;
    else if (std::strcmp(Argv[I], "--pass-stats") == 0)
      PassStats = true;
  }
  return PassStats;
}

/// DAE correctness oracle switch: `--dae-verify` (or DAECC_DAE_VERIFY=1)
/// runs the static purity audit + dynamic differential checker per (app,
/// DAE scheme); verdicts print per app and land in the dae_verify block of
/// BENCH_<name>.json. Simulated profiles and outputs are unchanged.
inline bool daeVerifyFromArgs(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--dae-verify") == 0)
      return true;
  return support::envBool01Or("DAECC_DAE_VERIFY", false);
}

/// Profile-guided DAE refinement switch: `--dae-profile-guided` (or
/// DAECC_DAE_PG=1) closes the profiling feedback loop per app before the
/// scheme simulations (see dae/ProfileGuidedRefinement.h). Unlike
/// --dae-verify this changes the Auto DAE profile — that is its purpose;
/// before/after verdicts print per app and land in the dae_pg block of
/// BENCH_<name>.json.
inline bool daeProfileGuidedFromArgs(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--dae-profile-guided") == 0)
      return true;
  return support::envBool01Or("DAECC_DAE_PG", false);
}

/// The suite drivers' shared command-line surface, parsed once. Every driver
/// used to repeat the same half-dozen *FromArgs calls plus its own ad-hoc
/// loops; BenchOptions::parse is the single place flags (and their env
/// fallbacks) are interpreted, and machineConfig() is the single place they
/// are applied to a MachineConfig. Unknown flags, and unknown values of
/// closed-set flags, are hard errors (exit 2): a typo such as `--dae-verfy`
/// must not silently run the suite without the check it asked for.
struct BenchOptions {
  workloads::Scale Scale = workloads::Scale::Full;
  unsigned Jobs = 1;
  sim::SimBackend Backend = sim::defaultSimBackend();
  bool PassStats = false;
  bool DaeVerify = false;
  bool DaeProfileGuided = false;
  /// --cores=N: simulated core count (0 keeps the machine default). The
  /// contention driver also uses it to bound the co-run sweep.
  unsigned Cores = 0;
  /// --big-little=B,L: heterogeneous topology (see
  /// sim::MachineConfig::makeBigLittle). Overrides --cores.
  unsigned BigCores = 0, LittleCores = 0;
  /// --mix=a,b,c: workload names co-scheduled on the contention timeline
  /// (validated against the registry by the driver via
  /// workloads::buildByName).
  std::vector<std::string> Mix;
  /// --governor={ondemand,conservative,both}: which reactive baselines the
  /// contention driver reports.
  std::string Governor = "both";

  static BenchOptions parse(int Argc, char **Argv) {
    BenchOptions O;
    O.Scale = scaleFromArgs(Argc, Argv);
    O.Jobs = jobsFromArgs(Argc, Argv);
    O.Backend = backendFromArgs(Argc, Argv);
    O.PassStats = pipelineFlagsFromArgs(Argc, Argv);
    O.DaeVerify = daeVerifyFromArgs(Argc, Argv);
    O.DaeProfileGuided = daeProfileGuidedFromArgs(Argc, Argv);
    for (int I = 1; I < Argc; ++I) {
      const char *A = Argv[I];
      if (std::strncmp(A, "--cores=", 8) == 0) {
        O.Cores = parseUnsignedFlag("--cores", A + 8);
      } else if (std::strncmp(A, "--big-little=", 13) == 0) {
        const char *V = A + 13;
        const char *Comma = std::strchr(V, ',');
        if (!Comma || Comma == V || Comma[1] == '\0') {
          std::fprintf(stderr,
                       "error: invalid --big-little value '%s' (expected "
                       "BIG,LITTLE counts, e.g. 4,4)\n",
                       V);
          std::exit(2);
        }
        std::string Big(V, Comma);
        O.BigCores = parseUnsignedFlag("--big-little", Big.c_str());
        O.LittleCores = parseUnsignedFlag("--big-little", Comma + 1);
      } else if (std::strncmp(A, "--mix=", 6) == 0) {
        // Repeated --mix flags last-win like every other flag: each
        // occurrence replaces the list instead of silently appending (which
        // used to co-schedule the union of every --mix on the command line).
        O.Mix.clear();
        const char *V = A + 6;
        while (*V) {
          const char *Comma = std::strchr(V, ',');
          std::string Name = Comma ? std::string(V, Comma) : std::string(V);
          if (Name.empty()) {
            std::fprintf(stderr,
                         "error: invalid --mix value '%s' (empty workload "
                         "name)\n",
                         A + 6);
            std::exit(2);
          }
          O.Mix.push_back(std::move(Name));
          V = Comma ? Comma + 1 : V + std::strlen(V);
          if (Comma && !*V) {
            std::fprintf(stderr,
                         "error: invalid --mix value '%s' (trailing comma)\n",
                         A + 6);
            std::exit(2);
          }
        }
        if (O.Mix.empty()) {
          std::fprintf(stderr, "error: --mix requires at least one workload "
                               "name\n");
          std::exit(2);
        }
      } else if (std::strncmp(A, "--governor=", 11) == 0) {
        const char *V = A + 11;
        if (std::strcmp(V, "ondemand") != 0 &&
            std::strcmp(V, "conservative") != 0 &&
            std::strcmp(V, "both") != 0) {
          std::fprintf(stderr,
                       "error: unknown --governor value '%s' (expected "
                       "'ondemand', 'conservative' or 'both')\n",
                       V);
          std::exit(2);
        }
        O.Governor = V;
      } else if (!parsedByHelper(A)) {
        std::fprintf(stderr, "error: unknown flag '%s'\n", A);
        std::exit(2);
      }
    }
    return O;
  }

  /// Applies the machine-shaping options to a fresh MachineConfig.
  sim::MachineConfig machineConfig() const {
    sim::MachineConfig Cfg;
    Cfg.Backend = Backend;
    if (BigCores + LittleCores > 0)
      Cfg.makeBigLittle(BigCores, LittleCores);
    else if (Cores)
      Cfg.NumCores = Cores;
    return Cfg;
  }

private:
  /// Flags the *FromArgs helpers above interpret (and validate).
  static bool parsedByHelper(const char *A) {
    for (const char *Flag :
         {"--test-scale", "--verify-each", "--print-after-all", "--pass-stats",
          "--dae-verify", "--dae-profile-guided"})
      if (std::strcmp(A, Flag) == 0)
        return true;
    for (const char *Prefix : {"--jobs=", "--sim-backend="})
      if (std::strncmp(A, Prefix, std::strlen(Prefix)) == 0)
        return true;
    return false;
  }
};

inline void printRule(int Width = 78) {
  for (int I = 0; I != Width; ++I)
    std::putchar('-');
  std::putchar('\n');
}

/// Simulated instructions retired in \p P (access + execute phases).
inline std::uint64_t simInstructions(const runtime::RunProfile &P) {
  std::uint64_t N = 0;
  for (const runtime::TaskProfile &T : P.Tasks)
    N += T.Access.Instructions + T.Execute.Instructions;
  return N;
}

/// Wall-clocks the simulation section of a bench binary and writes the
/// throughput to BENCH_<name>.json. Call start() before the simulation loop
/// (this eagerly writes the file with status "started", so even a crash or
/// partial failure leaves a record), add instructions as profiles arrive,
/// then report() once.
///
/// BENCH_<name>.json schema — one flat JSON object per bench run:
///   bench                     string  bench name (matches the file name)
///   jobs                      int     concurrent suite jobs (--jobs)
///   wall_seconds              double  simulation-section wall clock
///   sim_instructions          int     simulated instructions retired
///   sim_instructions_per_sec  double  sim_instructions / wall_seconds
///   pass_stats                object  compilation-pipeline instrumentation
///                                     (pm::PipelineStats): per-pass runs /
///                                     changed / wall_seconds and
///                                     per-analysis computes / cache_hits /
///                                     wall_seconds — where generation time
///                                     goes across the suite's jobs
///   dae_verify                array   DAE correctness oracle verdicts, one
///                                     object per (app, scheme) checked
///                                     under --dae-verify / DAECC_DAE_VERIFY
///                                     (empty when verification was off):
///                                     app, scheme ("manual"|"auto"), purity
///                                     (audit + differential both clean),
///                                     coverage (footprint), strict_coverage
///                                     (same-task), overshoot (see
///                                     verify/DifferentialChecker.h for the
///                                     definitions), baseline_misses,
///                                     covered_misses, strict_covered_misses,
///                                     prefetched_lines, unused_lines,
///                                     decoupled_tasks
///   dae_pg                    array   profile-guided refinement outcomes,
///                                     one object per app whose Auto scheme
///                                     went through the feedback loop under
///                                     --dae-profile-guided / DAECC_DAE_PG
///                                     (empty when refinement was off): app,
///                                     refined_tasks, actions (comma-joined
///                                     "<task>: <rules>" lines), purity
///                                     (refined phases passed the audit and
///                                     the after-differential is clean),
///                                     strict_before/strict_after,
///                                     overshoot_before/overshoot_after,
///                                     coverage_before/coverage_after,
///                                     edp_before/edp_after (Min/Max-policy
///                                     EDP of the Auto scheme, J*s)
///   interp                    object  functional-pass (value-producing)
///                                     interpreter throughput — the quantity
///                                     the execution backend changes, unlike
///                                     the bit-identical simulated results:
///                                       backend                  string
///                                         "switch", "threaded" or "native"
///                                         (--sim-backend /
///                                         DAECC_SIM_BACKEND)
///                                       functional_wall_seconds  double  host
///                                         wall clock spent inside the
///                                         functional pass, summed over tasks
///                                         and runs
///                                         (RunProfile::FunctionalSeconds)
///                                       functional_instr_per_sec double
///                                         sim_instructions /
///                                         functional_wall_seconds; -1 when
///                                         no functional time was recorded
///                                       trace_retained_bytes     int     trace
///                                         storage capacity held in the
///                                         process-wide TracePool free-list
///                                         at report time
///                                       trace_peak_bytes         int
///                                         high-water mark of a single
///                                         trace's recorded bytes across the
///                                         run (sizing evidence for the
///                                         reserve-doubling growth policy)
///   contention                array   multi-core co-run sweep entries
///                                     (bench/fig_contention.cpp), one object
///                                     per way count: ways, mix (comma-joined
///                                     workload names), absolute EDP (J*s)
///                                     per policy — cae_max_edp,
///                                     cae_ondemand_edp,
///                                     cae_conservative_edp, dae_minmax_edp,
///                                     dae_oracle_edp — normalized EDP
///                                     (policy / cae_max) per policy as
///                                     *_norm, plus makespan_ns /
///                                     queue_ns / dram_misses of the
///                                     dae_oracle timeline (the bandwidth
///                                     pressure signal). Empty when the
///                                     driver ran no co-run sweep.
///   failures                  int     apps whose schemes disagreed (or
///                                     otherwise failed)
///   status                    string  "started" while running, then "ok"
///                                     (failures == 0) or "partial"
///
/// The file is published atomically (written to a same-directory temp file,
/// then renamed over BENCH_<name>.json), so a concurrent reader — a sweep
/// script or a dashboard tailing a long run — never observes a truncated or
/// half-written object. The temp name carries the pid so two processes
/// publishing the same bench name from one directory cannot interleave
/// their half-written temp files either.
///
/// Thread safety: every mutator and the JSON publication run under one
/// internal mutex, so callers may record from any thread and two
/// publications never race on the counters or the temp file.
class ThroughputReporter {
public:
  explicit ThroughputReporter(std::string BenchName, unsigned Jobs = 1)
      : Name(std::move(BenchName)), Jobs(Jobs) {}

  void start() {
    std::lock_guard<std::mutex> Lock(Mu);
    Start = std::chrono::steady_clock::now();
    End = Start;
    writeJson("started");
  }
  void stop() {
    std::lock_guard<std::mutex> Lock(Mu);
    End = std::chrono::steady_clock::now();
  }
  void add(const runtime::RunProfile &P) {
    std::lock_guard<std::mutex> Lock(Mu);
    Instructions += simInstructions(P);
    FunctionalSeconds += P.FunctionalSeconds;
  }
  /// Records a partial failure (e.g. one app's schemes disagreed). The JSON
  /// is still written; status becomes "partial".
  void noteFailure() {
    std::lock_guard<std::mutex> Lock(Mu);
    ++Failures;
  }
  /// Records the run's functional execution backend for the interp JSON
  /// block.
  void setBackend(sim::SimBackend B) {
    std::lock_guard<std::mutex> Lock(Mu);
    Backend = B;
  }

  /// Records one (app, scheme) oracle verdict for the dae_verify JSON block
  /// and prints the human-readable line. Impure verdicts also count as
  /// failures. No-op when the verdict did not run (scheme fully coupled).
  void addDaeVerify(const std::string &App, const char *SchemeName,
                    const harness::DaeVerifyResult &V) {
    if (!V.Ran)
      return;
    bool Pure = V.AuditPure && V.Diff.pure();
    std::printf("[dae-verify] %-9s %-6s purity=%s coverage=%.3f "
                "strict=%.3f overshoot=%.3f (%llu/%llu baseline misses "
                "covered, %zu decoupled tasks)\n",
                App.c_str(), SchemeName, Pure ? "pass" : "FAIL",
                V.Diff.coverage(), V.Diff.strictCoverage(),
                V.Diff.overshoot(),
                static_cast<unsigned long long>(V.Diff.CoveredMisses),
                static_cast<unsigned long long>(V.Diff.BaselineExecMisses),
                V.Diff.DecoupledTasks);
    for (const std::string &Viol : V.AuditViolations)
      std::printf("[dae-verify]   audit violation: %s\n", Viol.c_str());

    char Buf[640];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"app\": \"%s\", \"scheme\": \"%s\", \"purity\": %s, "
        "\"coverage\": %.6f, \"strict_coverage\": %.6f, \"overshoot\": %.6f, "
        "\"baseline_misses\": %llu, \"covered_misses\": %llu, "
        "\"strict_covered_misses\": %llu, "
        "\"prefetched_lines\": %llu, \"unused_lines\": %llu, "
        "\"decoupled_tasks\": %zu}",
        App.c_str(), SchemeName, Pure ? "true" : "false", V.Diff.coverage(),
        V.Diff.strictCoverage(), V.Diff.overshoot(),
        static_cast<unsigned long long>(V.Diff.BaselineExecMisses),
        static_cast<unsigned long long>(V.Diff.CoveredMisses),
        static_cast<unsigned long long>(V.Diff.StrictCoveredMisses),
        static_cast<unsigned long long>(V.Diff.PrefetchedLines),
        static_cast<unsigned long long>(V.Diff.UnusedPrefetchedLines),
        V.Diff.DecoupledTasks);
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Pure)
      ++Failures;
    DaeVerifyEntries.push_back(Buf);
  }

  /// Records one app's profile-guided refinement outcome for the dae_pg
  /// JSON block and prints the human-readable before/after line. An impure
  /// outcome (audit violation in a refined phase, or the refined scheme's
  /// differential no longer clean) counts as a failure. No-op when
  /// refinement did not run for the app.
  void addDaePg(const std::string &App,
                const harness::ProfileGuidedResult &Pg) {
    if (!Pg.Ran)
      return;
    bool Pure = Pg.AuditPure && Pg.After.pure();
    std::printf("[dae-pg] %-9s refined=%zu purity=%s strict=%.3f->%.3f "
                "overshoot=%.3f->%.3f coverage=%.3f->%.3f edp=%.3e->%.3e\n",
                App.c_str(), Pg.RefinedTasks, Pure ? "pass" : "FAIL",
                Pg.Before.strictCoverage(), Pg.After.strictCoverage(),
                Pg.Before.overshoot(), Pg.After.overshoot(),
                Pg.Before.coverage(), Pg.After.coverage(), Pg.EdpBefore,
                Pg.EdpAfter);
    for (const std::string &A : Pg.Actions)
      std::printf("[dae-pg]   %s\n", A.c_str());
    for (const std::string &Viol : Pg.AuditViolations)
      std::printf("[dae-pg]   audit violation: %s\n", Viol.c_str());

    std::string Actions;
    for (size_t I = 0; I != Pg.Actions.size(); ++I) {
      Actions += I ? "; " : "";
      Actions += Pg.Actions[I];
    }
    char Buf[768];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"app\": \"%s\", \"refined_tasks\": %zu, \"actions\": \"%s\", "
        "\"purity\": %s, "
        "\"strict_before\": %.6f, \"strict_after\": %.6f, "
        "\"overshoot_before\": %.6f, \"overshoot_after\": %.6f, "
        "\"coverage_before\": %.6f, \"coverage_after\": %.6f, "
        "\"edp_before\": %.6e, \"edp_after\": %.6e}",
        App.c_str(), Pg.RefinedTasks, Actions.c_str(),
        Pure ? "true" : "false", Pg.Before.strictCoverage(),
        Pg.After.strictCoverage(), Pg.Before.overshoot(),
        Pg.After.overshoot(), Pg.Before.coverage(), Pg.After.coverage(),
        Pg.EdpBefore, Pg.EdpAfter);
    std::lock_guard<std::mutex> Lock(Mu);
    if (!Pure)
      ++Failures;
    DaePgEntries.push_back(Buf);
  }

  /// Records one co-run sweep point for the contention JSON block: the five
  /// policies' EDPs (absolute and normalized to CAE at fmax) plus the oracle
  /// timeline's bandwidth-pressure signal.
  void addContention(unsigned Ways, const std::string &MixNames,
                     const harness::MixResult &R) {
    double Base = R.CaeMax.EdpJs;
    auto Norm = [Base](double Edp) { return Base > 0.0 ? Edp / Base : -1.0; };
    double QueueNs = 0.0;
    std::uint64_t DramMisses = 0;
    for (const runtime::CoreTimelineReport &C : R.DaeOracle.Cores) {
      QueueNs += C.QueueNs;
      DramMisses += C.DramMisses;
    }
    char Buf[768];
    std::snprintf(
        Buf, sizeof(Buf),
        "{\"ways\": %u, \"mix\": \"%s\", "
        "\"cae_max_edp\": %.6e, \"cae_ondemand_edp\": %.6e, "
        "\"cae_conservative_edp\": %.6e, \"dae_minmax_edp\": %.6e, "
        "\"dae_oracle_edp\": %.6e, "
        "\"cae_ondemand_norm\": %.4f, \"cae_conservative_norm\": %.4f, "
        "\"dae_minmax_norm\": %.4f, \"dae_oracle_norm\": %.4f, "
        "\"makespan_ns\": %.1f, \"queue_ns\": %.1f, \"dram_misses\": %llu}",
        Ways, MixNames.c_str(), R.CaeMax.EdpJs, R.CaeOndemand.EdpJs,
        R.CaeConservative.EdpJs, R.DaeMinMax.EdpJs, R.DaeOracle.EdpJs,
        Norm(R.CaeOndemand.EdpJs), Norm(R.CaeConservative.EdpJs),
        Norm(R.DaeMinMax.EdpJs), Norm(R.DaeOracle.EdpJs),
        R.DaeOracle.MakespanNs, QueueNs,
        static_cast<unsigned long long>(DramMisses));
    std::lock_guard<std::mutex> Lock(Mu);
    ContentionEntries.push_back(Buf);
  }

  double seconds() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return secondsLocked();
  }

  /// Prints the throughput line and finalizes BENCH_<name>.json in the
  /// binary's working directory.
  void report() {
    std::lock_guard<std::mutex> Lock(Mu);
    double Seconds = secondsLocked();
    double Ips = Seconds > 0.0 ? static_cast<double>(Instructions) / Seconds
                               : 0.0;
    std::printf("\n[throughput] %s: %llu simulated instructions in %.3f s "
                "(%.2f M inst/s, %u job%s)\n",
                Name.c_str(),
                static_cast<unsigned long long>(Instructions), Seconds,
                Ips / 1e6, Jobs, Jobs == 1 ? "" : "s");
    if (FunctionalSeconds > 0.0)
      std::printf("[interp] %s: backend %s, functional pass %.3f s "
                  "(%.2f M inst/s)\n",
                  Name.c_str(), sim::simBackendName(Backend),
                  FunctionalSeconds,
                  static_cast<double>(Instructions) / FunctionalSeconds / 1e6);
    writeJson(Failures == 0 ? "ok" : "partial");
  }

private:
  double secondsLocked() const {
    return std::chrono::duration<double>(End - Start).count();
  }

  /// Requires Mu held: reads every counter and owns the temp-file publish.
  void writeJson(const char *Status) {
    double Seconds = secondsLocked();
    double Ips = Seconds > 0.0 ? static_cast<double>(Instructions) / Seconds
                               : 0.0;
    double FunctionalIps =
        FunctionalSeconds > 0.0
            ? static_cast<double>(Instructions) / FunctionalSeconds
            : -1.0;
    std::string DaeVerify = "[";
    for (size_t I = 0; I != DaeVerifyEntries.size(); ++I) {
      DaeVerify += I ? ", " : "";
      DaeVerify += DaeVerifyEntries[I];
    }
    DaeVerify += "]";
    std::string DaePg = "[";
    for (size_t I = 0; I != DaePgEntries.size(); ++I) {
      DaePg += I ? ", " : "";
      DaePg += DaePgEntries[I];
    }
    DaePg += "]";
    std::string Contention = "[";
    for (size_t I = 0; I != ContentionEntries.size(); ++I) {
      Contention += I ? ", " : "";
      Contention += ContentionEntries[I];
    }
    Contention += "]";
    // Temp-file + rename publication: readers polling the file (dashboards,
    // sweep scripts) must never see a truncated object. The temp
    // file lives in the same directory so the rename cannot cross a
    // filesystem boundary, and carries the pid so two processes publishing
    // the same bench name cannot write through each other's temp file.
    std::string Path = "BENCH_" + Name + ".json";
    std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
    if (std::FILE *F = std::fopen(Tmp.c_str(), "w")) {
      std::fprintf(F,
                   "{\n"
                   "  \"bench\": \"%s\",\n"
                   "  \"jobs\": %u,\n"
                   "  \"wall_seconds\": %.6f,\n"
                   "  \"sim_instructions\": %llu,\n"
                   "  \"sim_instructions_per_sec\": %.1f,\n"
                   "  \"pass_stats\": %s,\n"
                   "  \"dae_verify\": %s,\n"
                   "  \"dae_pg\": %s,\n"
                   "  \"interp\": {\"backend\": \"%s\", "
                   "\"functional_wall_seconds\": %.6f, "
                   "\"functional_instr_per_sec\": %.1f, "
                   "\"trace_retained_bytes\": %zu, "
                   "\"trace_peak_bytes\": %zu},\n"
                   "  \"contention\": %s,\n"
                   "  \"failures\": %u,\n"
                   "  \"status\": \"%s\"\n"
                   "}\n",
                   Name.c_str(), Jobs, Seconds,
                   static_cast<unsigned long long>(Instructions), Ips,
                   pm::PipelineStats::get().json().c_str(), DaeVerify.c_str(),
                   DaePg.c_str(),
                   sim::simBackendName(Backend), FunctionalSeconds,
                   FunctionalIps, sim::TracePool::global().retainedBytes(),
                   sim::TracePool::global().peakBytes(), Contention.c_str(),
                   Failures, Status);
      std::fclose(F);
      std::rename(Tmp.c_str(), Path.c_str());
    }
  }

  /// Serializes the mutators and publications against each other.
  mutable std::mutex Mu;
  std::string Name;
  unsigned Jobs;
  unsigned Failures = 0;
  sim::SimBackend Backend = sim::defaultSimBackend();
  double FunctionalSeconds = 0.0;
  std::uint64_t Instructions = 0;
  std::vector<std::string> DaeVerifyEntries;
  std::vector<std::string> DaePgEntries;
  std::vector<std::string> ContentionEntries;
  std::chrono::steady_clock::time_point Start, End;
};

} // namespace bench
} // namespace dae

#endif // DAECC_BENCH_BENCHUTIL_H
