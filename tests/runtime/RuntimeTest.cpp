//===- tests/runtime/RuntimeTest.cpp - Runtime & evaluator tests ------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "runtime/Evaluator.h"
#include "runtime/Replay.h"
#include "runtime/Runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

using namespace dae;
using namespace dae::ir;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

/// A module with one streaming task (Dst[i] = Src[i]) and one access fn.
struct RtFixture {
  Module M;
  Function *Exec;
  Function *Access;
  MachineConfig Cfg;

  RtFixture() {
    auto *Src = M.createGlobal("Src", (1 << 16) * 8);
    auto *Dst = M.createGlobal("Dst", (1 << 16) * 8);
    Exec = M.createFunction("stream", Type::Void, {Type::Int64, Type::Int64});
    {
      IRBuilder B(M, Exec->createBlock("entry"));
      emitCountedLoop(B, Exec->getArg(0), Exec->getArg(1), B.getInt(1), "i",
                      [&](IRBuilder &B, Value *I) {
        Value *V = B.createLoad(Type::Float64, B.createGep1D(Src, I, 8));
        B.createStore(V, B.createGep1D(Dst, I, 8));
      });
      B.createRet();
    }
    Access =
        M.createFunction("stream.acc", Type::Void, {Type::Int64, Type::Int64});
    {
      IRBuilder B(M, Access->createBlock("entry"));
      emitCountedLoop(B, Access->getArg(0), Access->getArg(1), B.getInt(8),
                      "p", [&](IRBuilder &B, Value *I) {
                        B.createPrefetch(B.createGep1D(Src, I, 8));
                      });
      B.createRet();
    }
  }

  std::vector<Task> makeTasks(unsigned NumTasks, unsigned Waves = 1) {
    std::vector<Task> Tasks;
    std::int64_t Chunk = (1 << 16) / NumTasks;
    for (unsigned T = 0; T != NumTasks; ++T)
      Tasks.push_back({Exec,
                       Access,
                       {RuntimeValue::ofInt(T * Chunk),
                        RuntimeValue::ofInt((T + 1) * Chunk)},
                       T % Waves});
    return Tasks;
  }
};

TEST(TaskRuntimeTest, RunsEveryTaskOnce) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(16));
  EXPECT_EQ(P.Tasks.size(), 16u);
  for (const TaskProfile &T : P.Tasks) {
    EXPECT_TRUE(T.HasAccess);
    EXPECT_GT(T.Access.Prefetches, 0u);
    EXPECT_GT(T.Execute.Instructions, 0u);
  }
}

TEST(TaskRuntimeTest, BalancesAcrossCores) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(32));
  std::vector<unsigned> PerCore(Fx.Cfg.NumCores, 0);
  for (const TaskProfile &T : P.Tasks)
    ++PerCore[T.Core];
  for (unsigned C = 0; C != Fx.Cfg.NumCores; ++C)
    EXPECT_GT(PerCore[C], 0u) << "core " << C << " starved";
}

TEST(TaskRuntimeTest, SkippingAccessRunsCoupled) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(8), /*RunAccess=*/false);
  for (const TaskProfile &T : P.Tasks) {
    EXPECT_FALSE(T.HasAccess);
    EXPECT_EQ(T.Access.Instructions, 0u);
  }
}

TEST(TaskRuntimeTest, WavesExecuteInOrder) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(16, /*Waves=*/4));
  unsigned LastWave = 0;
  for (const TaskProfile &T : P.Tasks) {
    EXPECT_GE(T.Wave, LastWave) << "wave barrier violated";
    LastWave = T.Wave;
  }
}

TEST(EvaluatorTest, LowerFrequencyCostsTimeSavesDynamicEnergy) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(8), /*RunAccess=*/false);

  RunReport Fast = evaluateCoupled(P, Fx.Cfg, Fx.Cfg.fmax());
  RunReport Slow = evaluateCoupled(P, Fx.Cfg, Fx.Cfg.fmin());
  EXPECT_GT(Slow.TimeSec, Fast.TimeSec);
  // A pure stream is memory-bound: the slowdown is far less than the
  // frequency ratio.
  EXPECT_LT(Slow.TimeSec / Fast.TimeSec, Fx.Cfg.fmax() / Fx.Cfg.fmin());
}

TEST(EvaluatorTest, TransitionsCostTimeAndCount) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(8));

  EvalConfig MinMax;
  MinMax.Policy = FreqPolicy::Fixed;
  MinMax.AccessFreqGHz = Fx.Cfg.fmin();
  MinMax.ExecFreqGHz = Fx.Cfg.fmax();

  MinMax.TransitionNs = 0.0;
  RunReport NoLatency = evaluate(P, Fx.Cfg, MinMax);
  MinMax.TransitionNs = 500.0;
  RunReport WithLatency = evaluate(P, Fx.Cfg, MinMax);

  // The policy switches frequency the same number of times regardless of
  // how long a switch takes; only the latency/energy charge depends on it.
  EXPECT_GT(NoLatency.NumTransitions, 0u);
  EXPECT_EQ(NoLatency.NumTransitions, WithLatency.NumTransitions);
  EXPECT_GT(WithLatency.TimeSec, NoLatency.TimeSec);
  EXPECT_GT(WithLatency.OsiTimeSec, NoLatency.OsiTimeSec);
}

/// Pins the exact transition count of a hand-built profile: one core, two
/// access+execute tasks under Min/Max (access at fmin, execute at fmax) is
/// fmax(boot) -> fmin -> fmax -> fmin -> fmax = 4 switches, at any
/// transition latency — and the 0 ns case charges nothing for them.
TEST(EvaluatorTest, TransitionCountsPinned) {
  MachineConfig Cfg;
  RunProfile P;
  P.NumCores = 1;
  P.PerTaskOverheadCycles = 0.0;
  TaskProfile T;
  T.HasAccess = true;
  T.Access.Instructions = 100;
  T.Access.ComputeCycles = 1000.0;
  T.Execute.Instructions = 100;
  T.Execute.ComputeCycles = 1000.0;
  P.Tasks = {T, T};

  EvalConfig MinMax;
  MinMax.Policy = FreqPolicy::Fixed;
  MinMax.AccessFreqGHz = Cfg.fmin();
  MinMax.ExecFreqGHz = Cfg.fmax();

  MinMax.TransitionNs = 0.0;
  RunReport Ideal = evaluate(P, Cfg, MinMax);
  EXPECT_EQ(Ideal.NumTransitions, 4u);

  MinMax.TransitionNs = 500.0;
  RunReport Current = evaluate(P, Cfg, MinMax);
  EXPECT_EQ(Current.NumTransitions, 4u);
  // Each of the 4 switches costs 500 ns of makespan on the single core.
  EXPECT_NEAR(Current.TimeSec - Ideal.TimeSec, 4 * 500e-9, 1e-15);

  // Same frequency for both phases at the boot frequency: no switches ever.
  EvalConfig Flat;
  Flat.Policy = FreqPolicy::Fixed;
  Flat.AccessFreqGHz = Cfg.fmax();
  Flat.ExecFreqGHz = Cfg.fmax();
  Flat.TransitionNs = 0.0;
  EXPECT_EQ(evaluate(P, Cfg, Flat).NumTransitions, 0u);
}

/// EDP ties break toward the lower frequency, independent of ladder order: a
/// zero-work phase has EDP 0 at every ladder point, so Optimal-EDP must
/// settle on the lowest frequency whether or not it is listed first.
TEST(EvaluatorTest, EdpTieBreaksTowardLowerFrequency) {
  RunProfile P;
  P.NumCores = 1;
  P.PerTaskOverheadCycles = 0.0;
  TaskProfile T;
  T.HasAccess = true; // Both phases zero work: every frequency ties at 0.
  P.Tasks = {T, T};

  EvalConfig Opt;
  Opt.Policy = FreqPolicy::OptimalEdp;
  Opt.TransitionNs = 0.0;

  // Ascending ladder: cores boot at fmax, every tied phase picks fmin —
  // exactly one switch on the single core.
  MachineConfig Cfg;
  EXPECT_EQ(evaluate(P, Cfg, Opt).NumTransitions, 1u)
      << "tied phases must all pick the lowest frequency";

  // Same ladder listed high-to-low: cores still boot at fmax (3.4, the first
  // entry) and a first-match scan would stay there with no switch; the
  // order-independent tie break drops every phase to 1.6 — again one switch.
  Cfg.FrequenciesGHz = {3.4, 2.8, 2.0, 1.6};
  EXPECT_EQ(evaluate(P, Cfg, Opt).NumTransitions, 1u)
      << "tie break must not depend on ladder order";
}

TEST(EvaluatorTest, SameFrequencyNeverTransitions) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(8));
  EvalConfig E;
  E.Policy = FreqPolicy::Fixed;
  E.AccessFreqGHz = 2.4;
  E.ExecFreqGHz = 2.4;
  E.TransitionNs = 500.0;
  RunReport R = evaluate(P, Fx.Cfg, E);
  // One initial switch from the boot frequency (fmax) at most per core.
  EXPECT_LE(R.NumTransitions, static_cast<std::size_t>(Fx.Cfg.NumCores));
}

TEST(EvaluatorTest, OptimalEdpBeatsOrMatchesFixedPolicies) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(8));

  EvalConfig Opt;
  Opt.Policy = FreqPolicy::OptimalEdp;
  Opt.TransitionNs = 0.0;
  RunReport OptRep = evaluate(P, Fx.Cfg, Opt);

  for (double FA : Fx.Cfg.FrequenciesGHz)
    for (double FE : Fx.Cfg.FrequenciesGHz) {
      EvalConfig E;
      E.Policy = FreqPolicy::Fixed;
      E.AccessFreqGHz = FA;
      E.ExecFreqGHz = FE;
      E.TransitionNs = 0.0;
      RunReport Fixed = evaluate(P, Fx.Cfg, E);
      // Local per-phase optimization is near-optimal for homogeneous tasks:
      // allow a small tolerance over the best grid point.
      EXPECT_LE(OptRep.EdpJs, Fixed.EdpJs * 1.02)
          << "fixed (" << FA << ", " << FE << ") beat OptimalEdp";
    }
}

// --- Fixed targets at and beyond the ladder's rails ------------------------

/// A hand-built two-core profile with one access+execute task per core.
static RunProfile twoCoreProfile() {
  RunProfile P;
  P.NumCores = 2;
  P.PerTaskOverheadCycles = 0.0;
  for (unsigned C = 0; C != 2; ++C) {
    TaskProfile T;
    T.Core = C;
    T.HasAccess = true;
    T.Access.Instructions = 100;
    T.Access.ComputeCycles = 1000.0;
    T.Execute.Instructions = 100;
    T.Execute.ComputeCycles = 1000.0;
    P.Tasks.push_back(T);
  }
  return P;
}

static EvalConfig fixedAt(double AccessGHz, double ExecGHz) {
  EvalConfig E;
  E.Policy = FreqPolicy::Fixed;
  E.AccessFreqGHz = AccessGHz;
  E.ExecFreqGHz = ExecGHz;
  E.TransitionNs = 500.0;
  return E;
}

/// Expects \p Off and \p Rail to price \p P identically on \p Cfg.
static void expectSamePrice(const RunProfile &P, const MachineConfig &Cfg,
                            const EvalConfig &Off, const EvalConfig &Rail) {
  RunReport A = evaluate(P, Cfg, Off);
  RunReport B = evaluate(P, Cfg, Rail);
  EXPECT_EQ(A.TimeSec, B.TimeSec);
  EXPECT_EQ(A.EnergyJ, B.EnergyJ);
  EXPECT_EQ(A.NumTransitions, B.NumTransitions);
}

TEST(EvaluatorTest, FixedTargetsClampToTheRails) {
  MachineConfig Cfg;
  RunProfile P = twoCoreProfile();
  // Fixed targets come from outside the machine model: one below fmin runs
  // (and is priced) exactly at fmin, one above fmax exactly at fmax, even
  // when the two phases fall off opposite ends of the ladder.
  expectSamePrice(P, Cfg, fixedAt(0.6, 9.0), fixedAt(Cfg.fmin(), Cfg.fmax()));
  expectSamePrice(P, Cfg, fixedAt(9.0, 0.6), fixedAt(Cfg.fmax(), Cfg.fmin()));
}

TEST(EvaluatorTest, TargetBelowFminClampsUpToFmin) {
  MachineConfig Cfg;
  RunProfile P = twoCoreProfile();
  // Both phases below fmin price exactly like both at fmin, and the clamped
  // run switches once per core, from the boot frequency down to fmin.
  expectSamePrice(P, Cfg, fixedAt(0.6, 0.6), fixedAt(Cfg.fmin(), Cfg.fmin()));
  EXPECT_EQ(evaluate(P, Cfg, fixedAt(0.6, 0.6)).NumTransitions, 2u);
}

TEST(EvaluatorTest, CoresBootAtTheirOwnFmax) {
  MachineConfig Cfg;
  RunProfile P = twoCoreProfile();
  // Every core boots at fmax, so a run at fmax, or at a target above it
  // that clamps there, never switches.
  EXPECT_EQ(evaluate(P, Cfg, fixedAt(Cfg.fmax(), Cfg.fmax())).NumTransitions,
            0u);
  EXPECT_EQ(evaluate(P, Cfg, fixedAt(9.0, 9.0)).NumTransitions, 0u);
}

TEST(EvaluatorTest, BreakdownBucketsSumSanely) {
  RtFixture Fx;
  Memory Mem;
  Loader L(Fx.M);
  TaskRuntime RT(Fx.Cfg, Mem, L);
  RunProfile P = RT.execute(Fx.makeTasks(8));
  EvalConfig E;
  E.Policy = FreqPolicy::Fixed;
  E.AccessFreqGHz = Fx.Cfg.fmin();
  E.ExecFreqGHz = Fx.Cfg.fmax();
  RunReport R = evaluate(P, Fx.Cfg, E);
  // Core-seconds across buckets equals cores x makespan.
  double Total = R.AccessTimeSec + R.ExecuteTimeSec + R.OsiTimeSec;
  EXPECT_NEAR(Total, R.TimeSec * Fx.Cfg.NumCores, R.TimeSec * 0.01);
  EXPECT_GT(R.AccessTimeSec, 0.0);
  EXPECT_GT(R.ExecuteTimeSec, 0.0);
  // The buckets' energies split the run's energy exactly, up to rounding.
  EXPECT_NEAR(R.AccessEnergyJ + R.ExecuteEnergyJ + R.OsiEnergyJ, R.EnergyJ,
              R.EnergyJ * 1e-12);
  EXPECT_GT(R.AccessEnergyJ, 0.0);
  EXPECT_GT(R.ExecuteEnergyJ, 0.0);
  EXPECT_GT(R.OsiEnergyJ, 0.0);
}

/// A captured replay records a phase's lines through a small direct-mapped
/// filter. Whatever the filter keeps or evicts, the recorded lines, sorted
/// and deduped as TaskRuntime::execute does, must be exactly the phase's
/// distinct lines, and MissLines every DRAM-missing load in order. The
/// trace's lines collide in the filter and in every cache level's set index
/// (so the second round sends them to DRAM again), each load is repeated
/// back to back, and a store and a prefetch far outside any global ride
/// along.
TEST(ReplayCaptureTest, RecordsEveryLineAndEveryLoadMiss) {
  MachineConfig Cfg;
  const unsigned LineShift = lineShiftOf(Cfg.L1.LineBytes);
  const std::uint64_t Base = 0x10000 >> LineShift;
  AccessTrace Tr;
  for (int Round = 0; Round != 2; ++Round)
    for (std::uint64_t K = 0; K != 20; ++K) {
      std::uint64_t Addr = (Base + K * CaptureFilterLines) << LineShift;
      Tr.push(AccessTrace::Kind::Load, Addr);
      Tr.push(AccessTrace::Kind::Load, Addr + 8);
      if (K % 5 == 0)
        Tr.push(AccessTrace::Kind::Store, Addr + Cfg.L1.LineBytes);
    }
  Tr.push(AccessTrace::Kind::Prefetch, 1ull << 40);
  Tr.push(AccessTrace::Kind::Load, Base << LineShift);

  // Reference: every event's line, and the loads a plain walk of the same
  // cold hierarchy sends to DRAM.
  std::vector<std::uint64_t> Lines, MissLines;
  CacheHierarchy Ref(Cfg, 1);
  for (std::uint64_t E : Tr.events()) {
    std::uint64_t Line = AccessTrace::addrOf(E) >> LineShift;
    Lines.push_back(Line);
    if (Ref.access(0, AccessTrace::addrOf(E)) == HitLevel::Memory &&
        AccessTrace::kindOf(E) == AccessTrace::Kind::Load)
      MissLines.push_back(Line);
  }
  std::sort(Lines.begin(), Lines.end());
  Lines.erase(std::unique(Lines.begin(), Lines.end()), Lines.end());
  ASSERT_GT(MissLines.size(),
            std::set<std::uint64_t>(MissLines.begin(), MissLines.end()).size())
      << "the trace must make some line miss DRAM twice";

  const ReplayCostModel Costs(Cfg);
  CacheHierarchy Caches(Cfg, 1);
  PhaseStats S;
  PhaseCapture Cap;
  replayTrace(Tr, Caches, 0, Costs, S, &Cap, LineShift);
  EXPECT_LT(Cap.Lines.size(), Tr.size()) << "repeats were not filtered";
  std::sort(Cap.Lines.begin(), Cap.Lines.end());
  Cap.Lines.erase(std::unique(Cap.Lines.begin(), Cap.Lines.end()),
                  Cap.Lines.end());
  EXPECT_EQ(Cap.Lines, Lines);
  EXPECT_EQ(Cap.MissLines, MissLines);

  // Capture is observational.
  CacheHierarchy Plain(Cfg, 1);
  PhaseStats P;
  replayTrace(Tr, Plain, 0, Costs, P, nullptr, LineShift);
  EXPECT_EQ(S.ComputeCycles, P.ComputeCycles);
  EXPECT_EQ(S.StallNs, P.StallNs);
  EXPECT_EQ(S.L1Hits, P.L1Hits);
  EXPECT_EQ(S.MemAccesses, P.MemAccesses);
}

} // namespace
