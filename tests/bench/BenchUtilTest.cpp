//===- tests/bench/BenchUtilTest.cpp - Bench flag parsing ------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// Unit tests for the bench drivers' shared flag parsing, centered on the
// backend selection: every valid --sim-backend / DAECC_SIM_BACKEND name maps
// to its SimBackend, and any unknown value is a hard error (exit 2) naming
// the valid choices — never a silent fall-back that would let a sweep
// mislabel which backend it measured.
//
//===----------------------------------------------------------------------===//

#include "bench/BenchUtil.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace dae;
using namespace dae::bench;
using namespace dae::sim;

namespace {

SimBackend parse(const char *Flag) {
  char Prog[] = "bench";
  char Arg[64];
  std::snprintf(Arg, sizeof(Arg), "%s", Flag);
  char *Argv[] = {Prog, Arg};
  return backendFromArgs(2, Argv);
}

TEST(BenchUtil, BackendFlagMapsEveryValidName) {
  EXPECT_EQ(parse("--sim-backend=switch"), SimBackend::Switch);
  EXPECT_EQ(parse("--sim-backend=threaded"), SimBackend::Threaded);
  EXPECT_EQ(parse("--sim-backend=native"), SimBackend::Native);
}

TEST(BenchUtil, BackendDefaultsWithoutFlag) {
  unsetenv("DAECC_SIM_BACKEND");
  char Prog[] = "bench";
  char *Argv[] = {Prog};
  EXPECT_EQ(backendFromArgs(1, Argv), SimBackend::Threaded);
}

TEST(BenchUtil, BackendEnvOverridesDefault) {
  setenv("DAECC_SIM_BACKEND", "native", 1);
  char Prog[] = "bench";
  char *Argv[] = {Prog};
  EXPECT_EQ(backendFromArgs(1, Argv), SimBackend::Native);
  setenv("DAECC_SIM_BACKEND", "switch", 1);
  EXPECT_EQ(backendFromArgs(1, Argv), SimBackend::Switch);
  unsetenv("DAECC_SIM_BACKEND");
}

TEST(BenchUtil, FlagOverridesEnv) {
  setenv("DAECC_SIM_BACKEND", "switch", 1);
  EXPECT_EQ(parse("--sim-backend=native"), SimBackend::Native);
  unsetenv("DAECC_SIM_BACKEND");
}

TEST(BenchUtilDeathTest, UnknownBackendFlagIsAHardError) {
  EXPECT_EXIT(parse("--sim-backend=fastest"),
              ::testing::ExitedWithCode(2),
              "unknown --sim-backend value 'fastest'.*'switch', 'threaded' "
              "or 'native'");
}

TEST(BenchUtilDeathTest, UnknownBackendEnvIsAHardError) {
  char Prog[] = "bench";
  char *Argv[] = {Prog};
  EXPECT_EXIT(
      {
        setenv("DAECC_SIM_BACKEND", "turbo", 1);
        backendFromArgs(1, Argv);
      },
      ::testing::ExitedWithCode(2), "unknown DAECC_SIM_BACKEND value 'turbo'");
  unsetenv("DAECC_SIM_BACKEND");
}

// --- BenchOptions: the drivers' unified flag surface ----------------------

BenchOptions parseOpts(std::initializer_list<const char *> Flags) {
  std::vector<std::string> Storage = {"bench"};
  for (const char *F : Flags)
    Storage.push_back(F);
  std::vector<char *> Argv;
  for (std::string &S : Storage)
    Argv.push_back(S.data());
  return BenchOptions::parse(static_cast<int>(Argv.size()), Argv.data());
}

TEST(BenchOptions, DefaultsMatchTheOldPerDriverParsing) {
  unsetenv("DAECC_SIM_BACKEND");
  unsetenv("DAECC_DAE_VERIFY");
  BenchOptions O = parseOpts({});
  EXPECT_EQ(O.Scale, workloads::Scale::Full);
  EXPECT_EQ(O.Jobs, 1u);
  EXPECT_FALSE(O.PassStats);
  EXPECT_FALSE(O.DaeVerify);
  EXPECT_EQ(O.Cores, 0u);
  EXPECT_EQ(O.BigCores + O.LittleCores, 0u);
  EXPECT_TRUE(O.Mix.empty());
  EXPECT_EQ(O.Governor, "both");

  sim::MachineConfig Cfg = O.machineConfig();
  sim::MachineConfig Ref;
  EXPECT_EQ(Cfg.NumCores, Ref.NumCores);
  EXPECT_TRUE(Cfg.CoreLadders.empty());
}

TEST(BenchOptions, ParsesTheNewFlags) {
  BenchOptions O = parseOpts({"--test-scale", "--jobs=3", "--cores=8",
                              "--mix=libq,cigar,fft", "--governor=ondemand",
                              "--dae-verify"});
  EXPECT_EQ(O.Scale, workloads::Scale::Test);
  EXPECT_EQ(O.Jobs, 3u);
  EXPECT_EQ(O.Cores, 8u);
  ASSERT_EQ(O.Mix.size(), 3u);
  EXPECT_EQ(O.Mix[0], "libq");
  EXPECT_EQ(O.Mix[1], "cigar");
  EXPECT_EQ(O.Mix[2], "fft");
  EXPECT_EQ(O.Governor, "ondemand");
  EXPECT_TRUE(O.DaeVerify);
  EXPECT_EQ(O.machineConfig().NumCores, 8u);
}

TEST(BenchOptions, BigLittleShapesTheMachine) {
  BenchOptions O = parseOpts({"--big-little=2,2", "--cores=16"});
  EXPECT_EQ(O.BigCores, 2u);
  EXPECT_EQ(O.LittleCores, 2u);
  sim::MachineConfig Cfg = O.machineConfig();
  // --big-little overrides --cores and installs per-core ladders.
  EXPECT_EQ(Cfg.NumCores, 4u);
  ASSERT_EQ(Cfg.CoreLadders.size(), 4u);
  EXPECT_EQ(Cfg.ladder(0), Cfg.FrequenciesGHz);
  EXPECT_DOUBLE_EQ(Cfg.fmaxOf(3), 1.4);
}

TEST(BenchUtilDeathTest, GarbageCoresIsAHardError) {
  EXPECT_EXIT(parseOpts({"--cores=many"}), ::testing::ExitedWithCode(2),
              "invalid --cores value 'many'");
  EXPECT_EXIT(parseOpts({"--cores=0"}), ::testing::ExitedWithCode(2),
              "invalid --cores value '0'");
  EXPECT_EXIT(parseOpts({"--cores=4x"}), ::testing::ExitedWithCode(2),
              "invalid --cores value '4x'");
}

TEST(BenchUtilDeathTest, MalformedBigLittleIsAHardError) {
  EXPECT_EXIT(parseOpts({"--big-little=4"}), ::testing::ExitedWithCode(2),
              "invalid --big-little value '4'");
  EXPECT_EXIT(parseOpts({"--big-little=4,"}), ::testing::ExitedWithCode(2),
              "invalid --big-little value '4,'");
  EXPECT_EXIT(parseOpts({"--big-little=,4"}), ::testing::ExitedWithCode(2),
              "invalid --big-little value ',4'");
  EXPECT_EXIT(parseOpts({"--big-little=a,b"}), ::testing::ExitedWithCode(2),
              "invalid --big-little value 'a'");
}

TEST(BenchUtilDeathTest, MalformedMixIsAHardError) {
  EXPECT_EXIT(parseOpts({"--mix="}), ::testing::ExitedWithCode(2),
              "--mix requires at least one workload name");
  EXPECT_EXIT(parseOpts({"--mix=libq,"}), ::testing::ExitedWithCode(2),
              "trailing comma");
  EXPECT_EXIT(parseOpts({"--mix=libq,,fft"}), ::testing::ExitedWithCode(2),
              "empty workload name");
}

TEST(BenchUtilDeathTest, UnknownGovernorIsAHardError) {
  EXPECT_EXIT(parseOpts({"--governor=powersave"}),
              ::testing::ExitedWithCode(2),
              "unknown --governor value 'powersave'.*'ondemand', "
              "'conservative' or 'both'");
}

TEST(BenchOptions, DaeProfileGuidedFlagAndEnv) {
  unsetenv("DAECC_DAE_PG");
  EXPECT_FALSE(parseOpts({}).DaeProfileGuided);
  EXPECT_TRUE(parseOpts({"--dae-profile-guided"}).DaeProfileGuided);
  setenv("DAECC_DAE_PG", "1", 1);
  EXPECT_TRUE(parseOpts({}).DaeProfileGuided);
  setenv("DAECC_DAE_PG", "0", 1);
  EXPECT_FALSE(parseOpts({}).DaeProfileGuided);
  unsetenv("DAECC_DAE_PG");
}

// --- Duplicate flags: deterministic last-win ------------------------------
//
// A sweep script appends overrides to a base command line, so repeating a
// flag must deterministically take the last occurrence. --cores used to keep
// the first value and --mix used to co-schedule the union of every
// occurrence.

TEST(BenchOptions, RepeatedScalarFlagsLastWin) {
  BenchOptions O =
      parseOpts({"--cores=2", "--jobs=2", "--cores=8", "--jobs=3"});
  EXPECT_EQ(O.Cores, 8u);
  EXPECT_EQ(O.Jobs, 3u);
}

TEST(BenchOptions, RepeatedMixReplacesInsteadOfAppending) {
  BenchOptions O = parseOpts({"--mix=libq,cigar", "--mix=fft"});
  ASSERT_EQ(O.Mix.size(), 1u) << "each --mix must replace the previous list";
  EXPECT_EQ(O.Mix[0], "fft");
}

TEST(BenchOptions, RepeatedGovernorLastWins) {
  BenchOptions O = parseOpts({"--governor=ondemand", "--governor=conservative"});
  EXPECT_EQ(O.Governor, "conservative");
}

TEST(BenchOptions, RepeatedBackendLastWins) {
  unsetenv("DAECC_SIM_BACKEND");
  BenchOptions O = parseOpts({"--sim-backend=switch", "--sim-backend=native"});
  EXPECT_EQ(O.Backend, SimBackend::Native);
}

TEST(BenchUtilDeathTest, EarlyInvalidOccurrenceStillHardErrors) {
  // Every occurrence is validated; a typo cannot hide behind a later
  // correct repeat.
  EXPECT_EXIT(parseOpts({"--sim-backend=fastest", "--sim-backend=native"}),
              ::testing::ExitedWithCode(2),
              "unknown --sim-backend value 'fastest'");
  EXPECT_EXIT(parseOpts({"--cores=many", "--cores=4"}),
              ::testing::ExitedWithCode(2), "invalid --cores value 'many'");
  EXPECT_EXIT(parseOpts({"--governor=powersave", "--governor=both"}),
              ::testing::ExitedWithCode(2),
              "unknown --governor value 'powersave'");
}

// The strict name mapping itself (shared by flag and env paths).
TEST(BenchUtil, SimBackendFromNameIsStrict) {
  SimBackend B = SimBackend::Switch;
  EXPECT_FALSE(simBackendFromName(nullptr, B));
  EXPECT_FALSE(simBackendFromName("", B));
  EXPECT_FALSE(simBackendFromName("Threaded", B)); // case-sensitive
  EXPECT_FALSE(simBackendFromName("threaded ", B));
  EXPECT_EQ(B, SimBackend::Switch) << "failed parse must not write Out";
  EXPECT_TRUE(simBackendFromName("native", B));
  EXPECT_EQ(B, SimBackend::Native);
}

// --- Unknown flags and the strict env integer parses ---------------------

TEST(BenchOptions, EveryKnownFlagParses) {
  // The full flag surface in one command line, as the drivers document it
  // and CI passes it: none of these may trip the unknown-flag check.
  const pm::PipelineConfig Saved = pm::config();
  BenchOptions O = parseOpts(
      {"--test-scale", "--jobs=2", "--sim-backend=switch", "--verify-each",
       "--print-after-all", "--pass-stats", "--dae-verify",
       "--dae-profile-guided", "--cores=4", "--big-little=2,2",
       "--mix=libq,fft", "--governor=ondemand"});
  EXPECT_EQ(O.Backend, SimBackend::Switch);
  EXPECT_EQ(O.Jobs, 2u);
  EXPECT_TRUE(O.PassStats);
  EXPECT_TRUE(O.DaeProfileGuided);
  EXPECT_EQ(O.BigCores, 2u);
  EXPECT_TRUE(pm::config().VerifyEach);
  pm::config() = Saved;
}

TEST(BenchUtilDeathTest, UnknownFlagIsAHardError) {
  // A typo such as --dae-verfy must not run the suite without the check it
  // asked for, and removed flags (the daemon's, the in-run thread count and
  // replay overlap, the in-driver baseline) must not silently run a suite
  // configured differently from what was asked.
  for (const char *Bad :
       {"--serve", "--socket=x", "--cache-dir=x", "--dae-verfy", "fig3",
        "--jobs", "--sim-threads=2", "--no-replay-overlap", "--no-baseline"})
    EXPECT_EXIT(parseOpts({"--test-scale", Bad}), ::testing::ExitedWithCode(2),
                std::string("error: unknown flag '") + Bad + "'")
        << "flag: '" << Bad << "'";
}

TEST(BenchUtilDeathTest, GarbageIntegerEnvIsAHardError) {
  // These env knobs used to go through atoi (garbage read as 0, then
  // silently clamped to 1): a sweep exporting DAECC_JOBS=8x would run
  // sequentially while its labels claimed 8 jobs.
  EXPECT_EXIT(
      {
        setenv("DAECC_JOBS", "8x", 1);
        parseOpts({});
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "invalid DAECC_JOBS value '8x'");
  unsetenv("DAECC_JOBS");
  EXPECT_EXIT(
      {
        setenv("DAECC_JOBS", "-3", 1);
        parseOpts({});
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "invalid DAECC_JOBS value '-3'");
  unsetenv("DAECC_JOBS");
  EXPECT_EXIT(
      {
        setenv("DAECC_DAE_VERIFY", "yes", 1);
        parseOpts({});
        std::exit(0);
      },
      ::testing::ExitedWithCode(2),
      "invalid DAECC_DAE_VERIFY value 'yes' \\(expected 0 or 1\\)");
  unsetenv("DAECC_DAE_VERIFY");
  EXPECT_EXIT(
      {
        setenv("DAECC_TEST_SCALE", "true", 1);
        parseOpts({});
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "invalid DAECC_TEST_SCALE value 'true'");
  unsetenv("DAECC_TEST_SCALE");
}

TEST(BenchUtilDeathTest, OutOfRangeIntegerEnvIsAHardError) {
  // strtol saturates on overflow and a too-wide value truncates through the
  // unsigned cast: DAECC_JOBS=4294967297 (2^32+1) used to silently read as
  // 1 — the exact silent-misconfiguration class the validated parse exists
  // to reject. Both the fits-in-long-long-but-not-unsigned case and the
  // saturating ERANGE case must exit 2.
  EXPECT_EXIT(
      {
        setenv("DAECC_JOBS", "4294967297", 1);
        parseOpts({});
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "invalid DAECC_JOBS value '4294967297'");
  unsetenv("DAECC_JOBS");
  EXPECT_EXIT(
      {
        setenv("DAECC_JOBS", "99999999999999999999999", 1);
        parseOpts({});
        std::exit(0);
      },
      ::testing::ExitedWithCode(2), "invalid DAECC_JOBS value");
  unsetenv("DAECC_JOBS");
  EXPECT_EXIT(parseOpts({"--jobs=4294967297"}), ::testing::ExitedWithCode(2),
              "invalid --jobs value '4294967297'");
}

TEST(BenchUtil, ValidIntegerEnvStillWorks) {
  setenv("DAECC_JOBS", "4", 1);
  BenchOptions O = parseOpts({});
  EXPECT_EQ(O.Jobs, 4u);
  unsetenv("DAECC_JOBS");
}

std::string readFile(const char *Path) {
  std::string Content;
  if (std::FILE *F = std::fopen(Path, "r")) {
    char Buf[4096];
    std::size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Content.append(Buf, N);
    std::fclose(F);
  }
  return Content;
}

TEST(BenchUtil, ReporterJsonIsPublishedAtomically) {
  // start() and report() publish BENCH_<name>.json via temp-file + rename;
  // after each returns there must be a complete file and no lingering temp.
  ThroughputReporter R("atomic_probe", 1);
  R.start();
  EXPECT_NE(readFile("BENCH_atomic_probe.json").find("\"status\": \"started\""),
            std::string::npos);
  R.report();
  std::string Content = readFile("BENCH_atomic_probe.json");
  EXPECT_NE(Content.find("\"status\": \"ok\""), std::string::npos);
  EXPECT_EQ(Content.rfind("}\n"), Content.size() - 2);
  std::string Tmp =
      "BENCH_atomic_probe.json.tmp." + std::to_string(::getpid());
  EXPECT_EQ(std::fopen(Tmp.c_str(), "r"), nullptr);
  std::remove("BENCH_atomic_probe.json");
}

TEST(BenchUtil, ConcurrentCheckpointsPublishCompleteJson) {
  // The reporter serializes publications internally, so however racing
  // start() and report() calls from several threads interleave, the
  // published file is always one complete JSON object and no temp file
  // lingers.
  ThroughputReporter R("concurrent_probe", 1);
  std::vector<std::thread> Ts;
  for (int T = 0; T != 4; ++T)
    Ts.emplace_back([&R] {
      for (int I = 0; I != 25; ++I) {
        if (I % 5 == 4)
          R.report();
        else
          R.start();
      }
    });
  for (std::thread &T : Ts)
    T.join();
  std::string Content = readFile("BENCH_concurrent_probe.json");
  EXPECT_EQ(Content.find("{\n  \"bench\": \"concurrent_probe\""), 0u);
  EXPECT_EQ(Content.rfind("}\n"), Content.size() - 2);
  std::string Tmp =
      "BENCH_concurrent_probe.json.tmp." + std::to_string(::getpid());
  EXPECT_EQ(std::fopen(Tmp.c_str(), "r"), nullptr);
  std::remove("BENCH_concurrent_probe.json");
}

} // namespace
