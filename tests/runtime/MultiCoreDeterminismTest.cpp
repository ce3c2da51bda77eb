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
// Also pins the timeline's outputs to golden hashes (TimelineGolden), checks
// that a sweep sharing solo runs across widths equals one runMix per width,
// and covers the contention physics the sweep bench relies on (DRAM queuing
// appears under co-run, not solo) and the reactive-governor frequency
// dynamics.
//
//===----------------------------------------------------------------------===//

#include "dae/AccessGenerator.h"
#include "harness/Harness.h"
#include "runtime/Evaluator.h"
#include "runtime/Timeline.h"
#include "workloads/Workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <ostream>
#include <set>
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
                      const MachineConfig &Cfg, unsigned Jobs,
                      bool DaeVerify = false) {
  std::vector<std::unique_ptr<workloads::Workload>> Owned;
  std::vector<workloads::Workload *> Mix;
  for (const std::string &N : Names) {
    Owned.push_back(workloads::buildByName(N, workloads::Scale::Test));
    Mix.push_back(Owned.back().get());
  }
  MixConfig MC;
  MC.Jobs = Jobs;
  MC.DaeVerify = DaeVerify;
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

/// Under DaeVerify each app's Auto DAE solo run derives the app's verdict
/// from its own capture and the CAE run's, while CAE interleaves may still
/// be running. Every verdict must hold and must not depend on the job
/// count, and the capture must change no profile and no timeline.
TEST(MultiCoreDeterminism, MixVerdictsIdenticalForAnyJobs) {
  MachineConfig Cfg;
  Cfg.NumCores = 4;
  const std::vector<std::string> Names = {"libq", "cholesky", "fft"};
  const MixResult Plain = runNamedMix(Names, Cfg, 1);
  for (const MixStreamResult &S : Plain.Streams)
    EXPECT_FALSE(S.Verify.Ran) << S.Name;

  const MixResult Ref = runNamedMix(Names, Cfg, 1, /*DaeVerify=*/true);
  for (unsigned Jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    const MixResult R =
        Jobs == 1 ? Ref : runNamedMix(Names, Cfg, Jobs, /*DaeVerify=*/true);
    expectMixesEqual(Plain, R);
    ASSERT_EQ(R.Streams.size(), Names.size());
    for (size_t I = 0; I != Names.size(); ++I) {
      const DaeVerifyResult &V = R.Streams[I].Verify;
      const DaeVerifyResult &RV = Ref.Streams[I].Verify;
      const std::string &Name = Names[I];
      EXPECT_TRUE(V.Ran) << Name;
      EXPECT_TRUE(V.AuditPure) << Name;
      EXPECT_TRUE(V.AuditViolations.empty()) << Name;
      EXPECT_TRUE(V.Diff.pure()) << Name;
      EXPECT_GT(V.Diff.DecoupledTasks, 0u) << Name;
      EXPECT_EQ(V.AuditViolations, RV.AuditViolations) << Name;
      EXPECT_EQ(V.Diff.MemoryMatch, RV.Diff.MemoryMatch) << Name;
      EXPECT_EQ(V.Diff.OutputsMatch, RV.Diff.OutputsMatch) << Name;
      EXPECT_EQ(V.Diff.BaselineExecMisses, RV.Diff.BaselineExecMisses) << Name;
      EXPECT_EQ(V.Diff.CoveredMisses, RV.Diff.CoveredMisses) << Name;
      EXPECT_EQ(V.Diff.StrictCoveredMisses, RV.Diff.StrictCoveredMisses)
          << Name;
      EXPECT_EQ(V.Diff.PrefetchedLines, RV.Diff.PrefetchedLines) << Name;
      EXPECT_EQ(V.Diff.UnusedPrefetchedLines, RV.Diff.UnusedPrefetchedLines)
          << Name;
      EXPECT_EQ(V.Diff.DecoupledTasks, RV.Diff.DecoupledTasks) << Name;
      EXPECT_EQ(V.Diff.TotalTasks, RV.Diff.TotalTasks) << Name;
    }
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
  MixConfig MC;
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

  // Every event's L1 outcome is read from a one-core solo run, so inputs
  // under which those outcomes would not hold are rejected: a multi-core
  // profile, a bias that is not line-aligned, L1 bits that do not cover
  // their trace, and bits recorded under another L1 geometry.
  RunProfile TwoCores;
  TwoCores.NumCores = 2;
  EXPECT_THROW(interleaveTimeline({{&TwoCores, &Traces, 0}}, Cfg, TC),
               std::invalid_argument);
  EXPECT_THROW(
      interleaveTimeline({{&Solo, &Traces, Cfg.L1.LineBytes / 2}}, Cfg, TC),
      std::invalid_argument);
  RunTraces OneTrace;
  OneTrace.L1 = Cfg.L1;
  OneTrace.Tasks.resize(1);
  for (std::uint64_t I = 0; I != 65; ++I)
    OneTrace.Tasks[0].Execute.push(AccessTrace::Kind::Load, 0x10000 + I * 8);
  OneTrace.Tasks[0].ExecuteL1Hits.assign(2, 0);
  const CoreStream Good{&OneTask, &OneTrace, Cfg.L1.LineBytes};
  EXPECT_EQ(interleaveTimeline({Good}, Cfg, TC).Cores.size(), 1u);
  auto Rejects = [&](void (*Break)(RunTraces &)) {
    RunTraces Bad = OneTrace;
    Break(Bad);
    return interleaveTimeline({{&OneTask, &Bad, 0}}, Cfg, TC);
  };
  EXPECT_THROW(Rejects([](RunTraces &T) { T.Tasks[0].ExecuteL1Hits.clear(); }),
               std::invalid_argument);
  EXPECT_THROW(
      Rejects([](RunTraces &T) { T.Tasks[0].ExecuteL1Hits.resize(1); }),
      std::invalid_argument);
  EXPECT_THROW(
      Rejects([](RunTraces &T) { T.Tasks[0].ExecuteL1Hits.resize(3); }),
      std::invalid_argument);
  EXPECT_THROW(Rejects([](RunTraces &T) {
                 T.Tasks[0].HasAccess = true;
                 T.Tasks[0].Access.push(AccessTrace::Kind::Prefetch, 0x10000);
               }),
               std::invalid_argument);
  EXPECT_THROW(Rejects([](RunTraces &T) { T.L1.Assoc *= 2; }),
               std::invalid_argument);
}

/// runMixes simulates each distinct workload's solo runs once and points
/// every stream of every mix into them. Each width's result must equal a
/// runMix on freshly built workloads. Widths 1, 2, 4 and 8 cycle 4 apps, so
/// the 8-way mix runs each app on two cores.
TEST(MultiCoreDeterminism, SweepEqualsOneMixPerWidth) {
  MachineConfig Cfg;
  Cfg.NumCores = 8;
  const std::vector<std::string> Apps = {"libq", "cigar", "cholesky", "fft"};
  const unsigned Widths[] = {1, 2, 4, 8};
  std::vector<MixResult> Ref;
  for (unsigned Ways : Widths) {
    std::vector<std::string> Names;
    for (unsigned I = 0; I != Ways; ++I)
      Names.push_back(Apps[I % Apps.size()]);
    Ref.push_back(runNamedMix(Names, Cfg, 1));
  }

  for (unsigned Jobs : {1u, 4u}) {
    std::map<std::string, std::unique_ptr<workloads::Workload>> Owned;
    std::vector<std::vector<workloads::Workload *>> Mixes;
    for (unsigned Ways : Widths) {
      Mixes.emplace_back();
      for (unsigned I = 0; I != Ways; ++I) {
        const std::string &Name = Apps[I % Apps.size()];
        std::unique_ptr<workloads::Workload> &W = Owned[Name];
        if (!W)
          W = workloads::buildByName(Name, workloads::Scale::Test);
        Mixes.back().push_back(W.get());
      }
    }
    MixConfig MC;
    MC.Jobs = Jobs;
    std::vector<MixResult> Sweep = runMixes(Mixes, Cfg, MC);
    ASSERT_EQ(Sweep.size(), Ref.size());
    for (size_t W = 0; W != Ref.size(); ++W) {
      SCOPED_TRACE("jobs=" + std::to_string(Jobs) + ", " +
                   std::to_string(Widths[W]) + "-way");
      expectMixesEqual(Ref[W], Sweep[W]);
    }
  }
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

  auto HashAll = [&](const MachineConfig &PriceCfg) {
    std::uint64_t H = 1469598103934665603ull;
    for (const std::vector<CoreStream> &St : Streams)
      for (TimelinePolicy P :
           {TimelinePolicy::FixedMax, TimelinePolicy::DaeMinMax,
            TimelinePolicy::OracleEdp, TimelinePolicy::Ondemand,
            TimelinePolicy::Conservative}) {
        TimelineConfig TC;
        TC.Policy = P;
        H = hashReport(interleaveTimeline(St, PriceCfg, TC), H);
      }
    return H;
  };
  MachineConfig Ideal = Cfg;
  Ideal.DvfsTransitionNs = 0.0;
  EXPECT_EQ(HashAll(Cfg), G.DefaultTransition) << "default transition";
  EXPECT_EQ(HashAll(Ideal), G.ZeroTransition) << "0 ns transition";
}

INSTANTIATE_TEST_SUITE_P(Mixes, TimelineGolden,
                         ::testing::ValuesIn(GoldenMixes),
                         [](const ::testing::TestParamInfo<GoldenMix> &Info) {
                           return std::string(Info.param.Name);
                         });

// --- Reactive governor dynamics (GovernorState, runtime/Timeline.h) -------

constexpr double WindowNs = GovernorState::SampleUs * 1000.0;

TEST(GovernorStateTest, OndemandJumpsToMaxUnderLoad) {
  MachineConfig Cfg;
  GovernorState G(Cfg, /*Conservative=*/false);
  EXPECT_EQ(G.frequency(), Cfg.fmin());
  // One full window of >80% utilization: ondemand pins fmax immediately.
  G.account(/*ComputeNs=*/0.95 * WindowNs, /*WallNs=*/WindowNs);
  EXPECT_EQ(G.frequency(), Cfg.fmax());
}

TEST(GovernorStateTest, OndemandScalesProportionallyWhenIdle) {
  MachineConfig Cfg;
  GovernorState G(Cfg, /*Conservative=*/false);
  // 40% utilization: target = 0.4 * fmax / 0.8 = fmax / 2, rounded up to a
  // ladder rung (cpufreq CPUFREQ_RELATION_L).
  G.account(0.4 * WindowNs, WindowNs);
  double Target = 0.4 * Cfg.fmax() / GovernorState::UpThreshold;
  EXPECT_EQ(G.frequency(), Cfg.rungAtOrAbove(Target));
  EXPECT_LT(G.frequency(), Cfg.fmax());
}

TEST(GovernorStateTest, ConservativeStepsOneRungAtATime) {
  MachineConfig Cfg;
  GovernorState G(Cfg, /*Conservative=*/true);
  const std::vector<double> &L = Cfg.FrequenciesGHz;
  ASSERT_GE(L.size(), 3u);
  EXPECT_EQ(G.frequency(), L.front());
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

// Degenerate accounting sequences.

TEST(GovernorStateTest, ZeroWallSpanIsDiscarded) {
  MachineConfig Cfg;
  GovernorState G(Cfg, /*Conservative=*/false);

  // A zero-wall span is unobservable: no division by zero, no frequency
  // change, and — critically — no stale compute smeared into later windows.
  G.account(1e9, 0.0);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.fmin());

  // A fully idle window right after must decide on 0% utilization, not on
  // the discarded span's compute.
  G.account(0.0, WindowNs);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.fmin());
}

TEST(GovernorStateTest, SubWindowSpansAccumulateChronologically) {
  MachineConfig Cfg;
  GovernorState G(Cfg, /*Conservative=*/false);

  // 90% of a window fully busy: no window has completed yet, so no decision.
  G.account(0.9 * WindowNs, 0.9 * WindowNs);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.fmin());

  // The next idle span completes the window. Its decision must see only the
  // time that fell inside the window: 90% busy + 10% idle = 90% > the 80%
  // up-threshold, so ondemand jumps to fmax.
  G.account(0.0, 0.2 * WindowNs);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.fmax());

  // The remaining 10% idle backlog belongs to the *next* window; after it
  // fills up fully idle, the decision is 0% utilization -> fmin. Stale
  // busy time from the first window must not leak in.
  G.account(0.0, 0.9 * WindowNs);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.fmin());
}

TEST(GovernorStateTest, OverfullComputeSaturatesItsOwnSpanOnly) {
  MachineConfig Cfg;
  GovernorState G(Cfg, /*Conservative=*/false);

  // More compute than wall time saturates at 100% for its own duration; a
  // window that is half saturated and half idle reads 50%, which ondemand
  // maps below fmax.
  G.account(10.0 * WindowNs, 0.5 * WindowNs);
  G.account(0.0, 0.5 * WindowNs);
  double F = G.frequency();
  EXPECT_LT(F, Cfg.fmax()) << "50% utilization must not read as busy";
  EXPECT_DOUBLE_EQ(F, Cfg.rungAtOrAbove(0.5 * Cfg.fmax() /
                                        GovernorState::UpThreshold));
}

TEST(GovernorStateTest, ConservativeStepsOneRungPerWindow) {
  MachineConfig Cfg;
  GovernorState G(Cfg, /*Conservative=*/true);

  // One fully busy multi-window span ramps one rung per completed window —
  // chronological consumption, not one decision for the whole span.
  G.account(3.0 * WindowNs, 3.0 * WindowNs);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.FrequenciesGHz[3]);

  // Zero-wall glitches between windows leave the ramp untouched.
  G.account(1e12, 0.0);
  G.account(WindowNs, WindowNs);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.FrequenciesGHz[4]);

  // Idle windows walk back down one rung at a time.
  G.account(0.0, WindowNs);
  EXPECT_DOUBLE_EQ(G.frequency(), Cfg.FrequenciesGHz[3]);
}

TEST(GovernorStateTest, ReversedLadderGivesTheAscendingSequence) {
  // Both governors pick rungs by value, so a ladder listed fmax..fmin must
  // program the same frequency after every window as the ascending default.
  MachineConfig Ascending;
  MachineConfig Reversed = Ascending;
  std::reverse(Reversed.FrequenciesGHz.begin(),
               Reversed.FrequenciesGHz.end());
  // A mid-ladder ondemand pick, a conservative climb and descent, and a
  // window between the thresholds.
  const double Utils[] = {0.4, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.5, 0.95, 0.1};
  for (bool Conservative : {false, true}) {
    GovernorState Asc(Ascending, Conservative);
    GovernorState Rev(Reversed, Conservative);
    std::set<double> Visited;
    for (std::size_t W = 0; W != std::size(Utils); ++W) {
      Asc.account(Utils[W] * WindowNs, WindowNs);
      Rev.account(Utils[W] * WindowNs, WindowNs);
      EXPECT_EQ(Rev.frequency(), Asc.frequency())
          << (Conservative ? "conservative" : "ondemand") << ", window " << W;
      Visited.insert(Asc.frequency());
    }
    // Interior rungs are visited, where list order could show.
    EXPECT_GT(Visited.size(), 2u);
  }
}

} // namespace
