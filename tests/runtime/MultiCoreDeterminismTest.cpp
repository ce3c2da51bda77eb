//===- tests/runtime/MultiCoreDeterminismTest.cpp - Co-run determinism ------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
//
// The contention timeline's guarantee, extended from the single-run engine:
// co-run TimelineReports are bit-identical for every --jobs value. Solo
// artifacts are already deterministic; the interleave is single-threaded
// with a fixed tie-break, so nothing about the host may leak into the
// result. All comparisons are exact — EXPECT_EQ on doubles included.
//
// Also pins the timeline's outputs to golden hashes (TimelineGolden), covers
// the contention physics the sweep bench relies on (DRAM queuing appears
// under co-run, not solo) and the reactive-governor frequency dynamics.
//
//===----------------------------------------------------------------------===//

#include "dae/AccessGenerator.h"
#include "dae/GenerationMemo.h"
#include "harness/Harness.h"
#include "runtime/Evaluator.h"
#include "runtime/Timeline.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace dae;
using namespace dae::harness;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

void expectStatsEqual(const PhaseStats &A, const PhaseStats &B,
                      const std::string &Where) {
  EXPECT_EQ(A.Instructions, B.Instructions) << Where;
  EXPECT_EQ(A.ComputeCycles, B.ComputeCycles) << Where;
  EXPECT_EQ(A.StallNs, B.StallNs) << Where;
  EXPECT_EQ(A.Loads, B.Loads) << Where;
  EXPECT_EQ(A.Stores, B.Stores) << Where;
  EXPECT_EQ(A.Prefetches, B.Prefetches) << Where;
  EXPECT_EQ(A.L1Hits, B.L1Hits) << Where;
  EXPECT_EQ(A.L2Hits, B.L2Hits) << Where;
  EXPECT_EQ(A.LLCHits, B.LLCHits) << Where;
  EXPECT_EQ(A.MemAccesses, B.MemAccesses) << Where;
}

void expectReportsEqual(const TimelineReport &A, const TimelineReport &B,
                        const char *Policy) {
  EXPECT_EQ(A.MakespanNs, B.MakespanNs) << Policy;
  EXPECT_EQ(A.EnergyJ, B.EnergyJ) << Policy;
  EXPECT_EQ(A.EdpJs, B.EdpJs) << Policy;
  ASSERT_EQ(A.Cores.size(), B.Cores.size()) << Policy;
  for (size_t C = 0; C != A.Cores.size(); ++C) {
    const CoreTimelineReport &CA = A.Cores[C];
    const CoreTimelineReport &CB = B.Cores[C];
    EXPECT_EQ(CA.FinishNs, CB.FinishNs) << Policy << " core " << C;
    EXPECT_EQ(CA.EnergyJ, CB.EnergyJ) << Policy << " core " << C;
    EXPECT_EQ(CA.ComputeNs, CB.ComputeNs) << Policy << " core " << C;
    EXPECT_EQ(CA.StallNs, CB.StallNs) << Policy << " core " << C;
    EXPECT_EQ(CA.QueueNs, CB.QueueNs) << Policy << " core " << C;
    EXPECT_EQ(CA.Transitions, CB.Transitions) << Policy << " core " << C;
    EXPECT_EQ(CA.DramMisses, CB.DramMisses) << Policy << " core " << C;
    expectStatsEqual(CA.Total, CB.Total,
                     std::string(Policy) + " core " + std::to_string(C));
  }
}

void expectProfilesEqual(const RunProfile &A, const RunProfile &B,
                         const std::string &Where) {
  ASSERT_EQ(A.Tasks.size(), B.Tasks.size()) << Where;
  for (size_t T = 0; T != A.Tasks.size(); ++T) {
    std::string Task = Where + " task " + std::to_string(T);
    EXPECT_EQ(A.Tasks[T].Core, B.Tasks[T].Core) << Task;
    EXPECT_EQ(A.Tasks[T].HasAccess, B.Tasks[T].HasAccess) << Task;
    expectStatsEqual(A.Tasks[T].Access, B.Tasks[T].Access, Task + " access");
    expectStatsEqual(A.Tasks[T].Execute, B.Tasks[T].Execute,
                     Task + " execute");
  }
}

void expectMixesEqual(const MixResult &A, const MixResult &B) {
  ASSERT_EQ(A.Streams.size(), B.Streams.size());
  for (size_t I = 0; I != A.Streams.size(); ++I) {
    EXPECT_EQ(A.Streams[I].Name, B.Streams[I].Name) << "stream " << I;
    EXPECT_EQ(A.Streams[I].OutputsMatch, B.Streams[I].OutputsMatch)
        << "stream " << I;
    std::string Where = "stream " + std::to_string(I);
    expectProfilesEqual(A.Streams[I].CaeProfile, B.Streams[I].CaeProfile,
                        Where + " cae");
    expectProfilesEqual(A.Streams[I].DaeProfile, B.Streams[I].DaeProfile,
                        Where + " dae");
  }
  expectReportsEqual(A.CaeMax, B.CaeMax, "cae-max");
  expectReportsEqual(A.CaeOndemand, B.CaeOndemand, "ondemand");
  expectReportsEqual(A.CaeConservative, B.CaeConservative, "conservative");
  expectReportsEqual(A.DaeMinMax, B.DaeMinMax, "dae-minmax");
  expectReportsEqual(A.DaeOracle, B.DaeOracle, "dae-oracle");
}

MixResult runNamedMix(const std::vector<std::string> &Names,
                      const MachineConfig &Cfg, unsigned Jobs) {
  std::vector<std::unique_ptr<workloads::Workload>> Owned;
  std::vector<workloads::Workload *> Mix;
  for (const std::string &N : Names) {
    Owned.push_back(workloads::buildByName(N, workloads::Scale::Test));
    Mix.push_back(Owned.back().get());
  }
  GenerationMemo Memo;
  MixConfig MC;
  MC.Jobs = Jobs;
  MC.Memo = &Memo;
  return runMix(Mix, Cfg, MC);
}

TEST(MultiCoreDeterminism, CoRunIdenticalForAnyHostConfig) {
  MachineConfig Cfg;
  Cfg.NumCores = 4;
  std::vector<std::string> Names = {"libq", "cholesky", "fft"};

  MixResult Ref = runNamedMix(Names, Cfg, 1);
  ASSERT_EQ(Ref.Streams.size(), 3u);
  for (size_t I = 0; I != Names.size(); ++I) {
    const MixStreamResult &S = Ref.Streams[I];
    EXPECT_TRUE(S.OutputsMatch) << S.Name;
    // The solo profiles come back with the mix, one TaskProfile per task:
    // the contention driver's throughput line counts their instructions.
    size_t NumTasks =
        workloads::buildByName(Names[I], workloads::Scale::Test)->Tasks.size();
    for (const RunProfile *P : {&S.CaeProfile, &S.DaeProfile}) {
      EXPECT_EQ(P->Tasks.size(), NumTasks) << S.Name;
      std::uint64_t Instructions = 0;
      for (const TaskProfile &T : P->Tasks)
        Instructions += T.Access.Instructions + T.Execute.Instructions;
      EXPECT_GT(Instructions, 0u) << S.Name;
    }
  }

  for (unsigned Jobs : {2u, 3u, 4u}) {
    MixResult R = runNamedMix(Names, Cfg, Jobs);
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    expectMixesEqual(Ref, R);
  }
}

TEST(MultiCoreDeterminism, OneWaySanity) {
  MachineConfig Cfg;
  Cfg.NumCores = 4;
  MixResult R = runNamedMix({"libq"}, Cfg, 1);
  ASSERT_EQ(R.Streams.size(), 1u);
  EXPECT_TRUE(R.Streams[0].OutputsMatch);
  for (const TimelineReport *T :
       {&R.CaeMax, &R.CaeOndemand, &R.CaeConservative, &R.DaeMinMax,
        &R.DaeOracle}) {
    ASSERT_EQ(T->Cores.size(), 1u);
    EXPECT_GT(T->MakespanNs, 0.0);
    EXPECT_GT(T->EnergyJ, 0.0);
    EXPECT_GT(T->EdpJs, 0.0);
    EXPECT_EQ(T->Cores[0].FinishNs, T->MakespanNs);
  }
  // Alone on the channel, a single in-order core never outruns DRAM: each
  // miss stalls the clock past the line's occupancy before the next one can
  // issue, so queuing is a co-run phenomenon.
  EXPECT_EQ(R.CaeMax.Cores[0].QueueNs, 0.0);
}

TEST(MultiCoreDeterminism, CoRunnersQueueOnDram) {
  MachineConfig Cfg;
  Cfg.NumCores = 4;
  // Two memory-bound streams hammer the shared channel.
  MixResult Solo = runNamedMix({"libq"}, Cfg, 1);
  MixResult Duo = runNamedMix({"libq", "cigar"}, Cfg, 1);
  double QueueNs = 0.0;
  for (const CoreTimelineReport &C : Duo.CaeMax.Cores)
    QueueNs += C.QueueNs;
  EXPECT_GT(QueueNs, 0.0);
  // The co-run can only slow stream 0 down relative to its solo finish.
  EXPECT_GE(Duo.CaeMax.Cores[0].FinishNs, Solo.CaeMax.Cores[0].FinishNs);
}

TEST(MultiCoreDeterminism, MixValidation) {
  MachineConfig Cfg;
  Cfg.NumCores = 2;
  GenerationMemo Memo;
  MixConfig MC;
  MC.Memo = &Memo;
  std::vector<workloads::Workload *> Empty;
  EXPECT_THROW(runMix(Empty, Cfg, MC), std::invalid_argument);

  auto A = workloads::buildByName("libq", workloads::Scale::Test);
  auto B = workloads::buildByName("fft", workloads::Scale::Test);
  auto C = workloads::buildByName("cg", workloads::Scale::Test);
  std::vector<workloads::Workload *> TooMany = {A.get(), B.get(), C.get()};
  EXPECT_THROW(runMix(TooMany, Cfg, MC), std::invalid_argument);
}

TEST(MultiCoreDeterminism, InterleaveRejectsBadStreams) {
  MachineConfig Cfg;
  Cfg.NumCores = 2;
  TimelineConfig TC;
  EXPECT_THROW(interleaveTimeline({}, Cfg, TC), std::invalid_argument);

  RunProfile Solo;
  RunTraces Traces;
  EXPECT_THROW(interleaveTimeline({{nullptr, &Traces, 0}}, Cfg, TC),
               std::invalid_argument);
  EXPECT_THROW(interleaveTimeline({{&Solo, nullptr, 0}}, Cfg, TC),
               std::invalid_argument);
  CoreStream Ok{&Solo, &Traces, 0};
  EXPECT_THROW(interleaveTimeline({Ok, Ok, Ok}, Cfg, TC),
               std::invalid_argument);
  // The profile and the traces must describe the same tasks.
  RunProfile OneTask;
  OneTask.Tasks.resize(1);
  EXPECT_THROW(interleaveTimeline({Ok, {&OneTask, &Traces, 0}}, Cfg, TC),
               std::invalid_argument);
  // Well-formed empty streams are accepted.
  EXPECT_EQ(interleaveTimeline({Ok, Ok}, Cfg, TC).Cores.size(), 2u);
}

// --- Timeline goldens -------------------------------------------------------
//
// Bit-exact pins of interleaveTimeline's outputs: every TimelineReport field
// of every policy, on CAE and Auto DAE streams, at the default and at a zero
// DVFS transition latency, on test-scale mixes chosen to reach every branch
// of the interleave. Recorded from the per-event reference interleaver
// before the private run-ahead replaced it; a deliberate model change must
// re-record them (hash as below, paste the new values).

std::uint64_t fnv1a(const void *Data, size_t Len, std::uint64_t H) {
  const unsigned char *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Len; ++I) {
    H ^= P[I];
    H *= 1099511628211ull;
  }
  return H;
}

std::uint64_t hashU64(std::uint64_t V, std::uint64_t H) {
  return fnv1a(&V, sizeof V, H);
}

std::uint64_t hashDouble(double D, std::uint64_t H) {
  std::uint64_t Bits;
  std::memcpy(&Bits, &D, sizeof Bits);
  return hashU64(Bits, H);
}

std::uint64_t hashStats(const PhaseStats &S, std::uint64_t H) {
  H = hashU64(S.Instructions, H);
  H = hashDouble(S.ComputeCycles, H);
  H = hashDouble(S.StallNs, H);
  H = hashU64(S.Loads, H);
  H = hashU64(S.Stores, H);
  H = hashU64(S.Prefetches, H);
  H = hashU64(S.L1Hits, H);
  H = hashU64(S.L2Hits, H);
  H = hashU64(S.LLCHits, H);
  return hashU64(S.MemAccesses, H);
}

std::uint64_t hashReport(const TimelineReport &R, std::uint64_t H) {
  H = hashDouble(R.MakespanNs, H);
  H = hashDouble(R.EnergyJ, H);
  H = hashDouble(R.EdpJs, H);
  H = hashU64(R.Cores.size(), H);
  for (const CoreTimelineReport &C : R.Cores) {
    H = hashDouble(C.FinishNs, H);
    H = hashDouble(C.EnergyJ, H);
    H = hashDouble(C.ComputeNs, H);
    H = hashDouble(C.StallNs, H);
    H = hashDouble(C.QueueNs, H);
    H = hashU64(C.Transitions, H);
    H = hashU64(C.DramMisses, H);
    H = hashStats(C.Total, H);
  }
  return H;
}

/// One workload's solo artifacts as runMix produces them: its CAE and Auto
/// DAE runs on a one-core copy of the machine, traces retained.
struct SoloArtifacts {
  RunProfile Profiles[2]; ///< CAE, Auto DAE.
  RunTraces Traces[2];
};

SoloArtifacts runSolo(const std::string &Name, const MachineConfig &Cfg) {
  auto W = workloads::buildByName(Name, workloads::Scale::Test);
  std::map<const ir::Function *, const ir::Function *> AutoAccess;
  for (ir::Function *F : W->taskFunctions()) {
    AccessPhaseResult G = generateAccessPhase(*W->M, *F, W->Opts);
    if (G.AccessFn)
      AutoAccess[F] = G.AccessFn;
  }
  Loader L(*W->M);
  MachineConfig SoloCfg = Cfg;
  SoloCfg.NumCores = 1;
  SoloArtifacts A;
  for (int S = 0; S != 2; ++S) {
    std::vector<Task> Tasks = W->Tasks;
    for (Task &T : Tasks) {
      auto It = AutoAccess.find(T.Execute);
      T.Access = S == 1 && It != AutoAccess.end() ? It->second : nullptr;
    }
    Memory Mem;
    W->Init(Mem, L);
    TaskRuntime RT(SoloCfg, Mem, L);
    A.Profiles[S] = RT.execute(Tasks, /*RunAccess=*/true, nullptr,
                               &A.Traces[S]);
  }
  return A;
}

struct GoldenMix {
  const char *Name;
  std::vector<std::string> Workloads;
  /// Applied to a default MachineConfig.
  void (*Configure)(MachineConfig &);
  /// Every stream gets AddrBias 0 instead of runMix's (core << 40).
  bool SameBias;
  /// Hash of the mix's reports at the default and at a 0 ns transition.
  std::uint64_t DefaultTransition, ZeroTransition;
};

// Readable ctest names: print the mix name, not the struct's raw bytes.
void PrintTo(const GoldenMix &G, std::ostream *OS) { *OS << G.Name; }

const GoldenMix GoldenMixes[] = {
    {"one_way", {"libq"}, [](MachineConfig &C) { C.NumCores = 4; }, false,
     0xea036e7079be6eecull, 0x699e9365da066b86ull},
    {"three_way", {"libq", "cholesky", "fft"},
     [](MachineConfig &C) { C.NumCores = 4; }, false, 0x85c5b237346aa8f1ull,
     0xfd1ba89aaacf0af2ull},
    // Identical streams at identical addresses: the clocks tie on every
    // event and the lines alias in the LLC, so the tie-break decides who
    // misses and who hits.
    {"cigar_twins_same_bias", {"cigar", "cigar"},
     [](MachineConfig &C) { C.NumCores = 4; }, true, 0x116c0019b5d5be02ull,
     0x623c8244319b744full},
    {"no_next_line_prefetch", {"libq", "cigar", "cg"},
     [](MachineConfig &C) {
       C.NumCores = 4;
       C.HwNextLinePrefetch = false;
     },
     false, 0xd5aa33447b071175ull, 0x8f767c4a5c8be7efull},
    {"unthrottled_dram", {"libq", "cigar", "cg"},
     [](MachineConfig &C) {
       C.NumCores = 4;
       C.DramBandwidthGBs = 0.0;
     },
     false, 0x036f6085712ef5deull, 0x80f923ded0451659ull},
    {"big_little", {"libq", "cigar", "cholesky", "fft"},
     [](MachineConfig &C) { C.makeBigLittle(2, 2); }, false,
     0xb2714896bf7313a9ull, 0x03d5356d3f6a7220ull},
    {"eight_way",
     {"lu", "cholesky", "fft", "lbm", "libq", "cigar", "cg", "lu"},
     [](MachineConfig &C) { C.NumCores = 8; }, false, 0x7a20cc31d33f5904ull,
     0x54791e662a0cc1fdull},
};

class TimelineGolden : public ::testing::TestWithParam<GoldenMix> {};

TEST_P(TimelineGolden, MatchesReferenceInterleave) {
  const GoldenMix &G = GetParam();
  MachineConfig Cfg;
  G.Configure(Cfg);
  std::map<std::string, SoloArtifacts> Solos;
  for (const std::string &N : G.Workloads)
    if (!Solos.count(N))
      Solos.emplace(N, runSolo(N, Cfg));

  std::vector<CoreStream> Streams[2];
  for (size_t I = 0; I != G.Workloads.size(); ++I) {
    const SoloArtifacts &A = Solos.at(G.Workloads[I]);
    std::uint64_t Bias = G.SameBias ? 0 : static_cast<std::uint64_t>(I) << 40;
    for (int S = 0; S != 2; ++S)
      Streams[S].push_back({&A.Profiles[S], &A.Traces[S], Bias});
  }

  auto HashAll = [&](double TransitionNs) {
    std::uint64_t H = 1469598103934665603ull;
    for (const std::vector<CoreStream> &St : Streams)
      for (TimelinePolicy P :
           {TimelinePolicy::FixedMax, TimelinePolicy::DaeMinMax,
            TimelinePolicy::OracleEdp, TimelinePolicy::Ondemand,
            TimelinePolicy::Conservative}) {
        TimelineConfig TC;
        TC.Policy = P;
        TC.TransitionNs = TransitionNs;
        H = hashReport(interleaveTimeline(St, Cfg, TC), H);
      }
    return H;
  };
  EXPECT_EQ(HashAll(-1.0), G.DefaultTransition) << "default transition";
  EXPECT_EQ(HashAll(0.0), G.ZeroTransition) << "0 ns transition";
}

INSTANTIATE_TEST_SUITE_P(Mixes, TimelineGolden,
                         ::testing::ValuesIn(GoldenMixes),
                         [](const ::testing::TestParamInfo<GoldenMix> &Info) {
                           return std::string(Info.param.Name);
                         });

// --- Reactive governor dynamics (runtime/Evaluator.h) ---------------------

TEST(GovernorState, OndemandJumpsToMaxUnderLoad) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, /*Core=*/0, /*Conservative=*/false, P);
  EXPECT_EQ(G.frequency(), Cfg.fminOf(0));
  // One full window of >80% utilization: ondemand pins fmax immediately.
  double WindowNs = P.SampleUs * 1000.0;
  G.account(/*ComputeNs=*/0.95 * WindowNs, /*WallNs=*/WindowNs);
  EXPECT_EQ(G.frequency(), Cfg.fmaxOf(0));
}

TEST(GovernorState, OndemandScalesProportionallyWhenIdle) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, 0, false, P);
  double WindowNs = P.SampleUs * 1000.0;
  // 40% utilization: target = 0.4 * fmax / 0.8 = fmax / 2, rounded up to a
  // ladder rung (cpufreq CPUFREQ_RELATION_L).
  G.account(0.4 * WindowNs, WindowNs);
  double Target = 0.4 * Cfg.fmaxOf(0) / P.UpThreshold;
  EXPECT_EQ(G.frequency(), Cfg.rungAtOrAbove(0, Target));
  EXPECT_LT(G.frequency(), Cfg.fmaxOf(0));
}

TEST(GovernorState, ConservativeStepsOneRungAtATime) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, 0, /*Conservative=*/true, P);
  const std::vector<double> &L = Cfg.ladder(0);
  ASSERT_GE(L.size(), 3u);
  EXPECT_EQ(G.frequency(), L.front());
  double WindowNs = P.SampleUs * 1000.0;
  // Saturated windows climb exactly one rung each.
  G.account(WindowNs, WindowNs);
  EXPECT_EQ(G.frequency(), L[1]);
  G.account(WindowNs, WindowNs);
  EXPECT_EQ(G.frequency(), L[2]);
  // Idle windows walk back down, never skipping.
  G.account(0.0, WindowNs);
  EXPECT_EQ(G.frequency(), L[1]);
  G.account(0.0, WindowNs);
  EXPECT_EQ(G.frequency(), L[0]);
  G.account(0.0, WindowNs);
  EXPECT_EQ(G.frequency(), L[0]);
}

TEST(GovernorState, SubWindowActivityAccumulates) {
  MachineConfig Cfg;
  GovernorParams P;
  GovernorState G(Cfg, 0, false, P);
  double WindowNs = P.SampleUs * 1000.0;
  // Half a window of full load: no decision yet.
  G.account(0.5 * WindowNs, 0.5 * WindowNs);
  EXPECT_EQ(G.frequency(), Cfg.fminOf(0));
  // Completing the window triggers the decision over the whole window.
  G.account(0.5 * WindowNs, 0.5 * WindowNs);
  EXPECT_EQ(G.frequency(), Cfg.fmaxOf(0));
}

TEST(GovernorState, PerCoreLaddersOnBigLittle) {
  MachineConfig Cfg;
  Cfg.makeBigLittle(/*NumBig=*/1, /*NumLittle=*/1);
  GovernorParams P;
  GovernorState Big(Cfg, 0, false, P);
  GovernorState Little(Cfg, 1, false, P);
  double WindowNs = P.SampleUs * 1000.0;
  Big.account(WindowNs, WindowNs);
  Little.account(WindowNs, WindowNs);
  EXPECT_EQ(Big.frequency(), Cfg.fmaxOf(0));
  EXPECT_EQ(Little.frequency(), Cfg.fmaxOf(1));
  EXPECT_GT(Big.frequency(), Little.frequency());
}

} // namespace
