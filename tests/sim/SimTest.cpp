//===- tests/sim/SimTest.cpp - Simulator unit tests --------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "runtime/Replay.h"
#include "sim/AccessTrace.h"
#include "sim/CacheSim.h"
#include "sim/Interpreter.h"
#include "sim/MachineConfig.h"
#include "sim/Memory.h"
#include "sim/PowerModel.h"
#include "sim/SimOps.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <random>
#include <vector>

using namespace dae;
using namespace dae::ir;
using namespace dae::sim;

namespace {

TEST(MachineConfigTest, VoltageClampsOffLadderFrequencies) {
  MachineConfig Cfg;
  // On-ladder queries are monotone in frequency.
  EXPECT_LT(Cfg.voltageAt(Cfg.fmin()), Cfg.voltageAt(Cfg.fmax()));
  // Off-ladder queries clamp to the rail instead of extrapolating: a sweep
  // overshooting fmax (or an fmin-epsilon rounding artifact) must not
  // fabricate voltages outside the machine's range.
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(0.0), Cfg.voltageAt(Cfg.fmin()));
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(-1.0), Cfg.voltageAt(Cfg.fmin()));
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(100.0), Cfg.voltageAt(Cfg.fmax()));
  // Interior frequencies stay between the rails.
  double Mid = Cfg.voltageAt(2.6);
  EXPECT_GT(Mid, Cfg.voltageAt(Cfg.fmin()));
  EXPECT_LT(Mid, Cfg.voltageAt(Cfg.fmax()));
}

TEST(MachineConfigTest, PerCoreLaddersDefaultToMachineWide) {
  MachineConfig Cfg;
  // Homogeneous machine (empty CoreLadders): every core's ladder IS the
  // machine ladder, and the per-core voltage curve matches the global one
  // exactly — the bit-exactness contract the single-core path relies on.
  for (unsigned C : {0u, 1u, 3u, 17u}) {
    EXPECT_EQ(&Cfg.ladder(C), &Cfg.FrequenciesGHz);
    EXPECT_EQ(Cfg.fminOf(C), Cfg.fmin());
    EXPECT_EQ(Cfg.fmaxOf(C), Cfg.fmax());
    for (double F : Cfg.FrequenciesGHz)
      EXPECT_EQ(Cfg.voltageAt(C, F), Cfg.voltageAt(F));
  }
}

TEST(MachineConfigTest, BigLittleLaddersAndVoltages) {
  MachineConfig Cfg;
  Cfg.makeBigLittle(/*NumBig=*/2, /*NumLittle=*/2);
  EXPECT_EQ(Cfg.NumCores, 4u);
  // Big cores keep the machine ladder; little cores get the 0.6-1.4 GHz
  // efficiency ladder.
  EXPECT_EQ(Cfg.ladder(0), Cfg.FrequenciesGHz);
  EXPECT_EQ(Cfg.ladder(1), Cfg.FrequenciesGHz);
  EXPECT_DOUBLE_EQ(Cfg.fminOf(2), 0.6);
  EXPECT_DOUBLE_EQ(Cfg.fmaxOf(2), 1.4);
  EXPECT_DOUBLE_EQ(Cfg.fmaxOf(3), 1.4);

  // Off-ladder queries clamp to the *core's* ladder: pricing a little core
  // at the big fmax must cost the little fmax's voltage, not extrapolate
  // into a range the core cannot reach.
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(2, Cfg.fmax()), 1.4);
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(2, Cfg.fmax()), Cfg.voltageAt(2, 1.4));
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(2, 0.1), 0.6);
  EXPECT_LT(Cfg.voltageAt(2, 1.4), Cfg.voltageAt(0, Cfg.fmax()));

  // rungAtOrAbove picks the core's own rungs (CPUFREQ_RELATION_L).
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2, 0.7), 0.8);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2, 0.8), 0.8);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2, 5.0), 1.4);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(0, 0.7), Cfg.fmin());
}

TEST(MachineConfigTest, SingleEntryLadderPinsTheCore) {
  MachineConfig Cfg;
  Cfg.NumCores = 2;
  Cfg.CoreLadders = {{2.0}, Cfg.FrequenciesGHz};
  // Every query on the pinned core resolves to its one operating point.
  EXPECT_DOUBLE_EQ(Cfg.fminOf(0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.fmaxOf(0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.clampToLadder(0, 9.0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(0, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(0, 9.0), 2.0);
  EXPECT_DOUBLE_EQ(Cfg.voltageAt(0, 3.4), Cfg.voltageAt(0, 2.0));
  // The second core still sees the full machine ladder.
  EXPECT_EQ(Cfg.ladder(1), Cfg.FrequenciesGHz);
}

TEST(DramChannelTest, QueuesConcurrentLines) {
  DramChannel Ch(/*BandwidthGBs=*/64.0, /*LineBytes=*/64);
  EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 1.0);
  // First request at t=0 starts immediately and books [0, 1).
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 0.0);
  // A second request at t=0 waits for the channel to free.
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 1.0);
  // Back-to-back pressure keeps extending the queue...
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.5), 1.5);
  // ...and a late arrival after the backlog drains pays nothing.
  EXPECT_DOUBLE_EQ(Ch.requestLine(10.0), 0.0);
}

TEST(DramChannelTest, NonPositiveBandwidthDisablesQueue) {
  DramChannel Ch(/*BandwidthGBs=*/0.0, /*LineBytes=*/64);
  EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 0.0);
  for (int I = 0; I != 4; ++I)
    EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 0.0);
}

TEST(TracePoolTest, EnvCapParsing) {
  // Unset: the built-in default.
  unsetenv("DAECC_TRACE_POOL_MB");
  std::size_t Default = TracePool::maxTotalBytesFromEnv();
  EXPECT_GT(Default, 0u);
  // Set: the cap in MiB.
  setenv("DAECC_TRACE_POOL_MB", "64", 1);
  EXPECT_EQ(TracePool::maxTotalBytesFromEnv(), 64u << 20);
  unsetenv("DAECC_TRACE_POOL_MB");
}

TEST(TracePoolDeathTest, GarbageEnvCapIsAHardError) {
  // A malformed cap must not be silently ignored (it would run with an
  // unintended memory budget): exit 2, like a bad CLI flag.
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "lots", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "16MB", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "-4", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "0", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  // 2^44 MiB is 2^64 bytes: the << 20 would wrap to a 0-byte cap.
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "17592186044416", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
  // Beyond long long: strtol would saturate to an ~18 EB cap.
  EXPECT_EXIT(
      {
        setenv("DAECC_TRACE_POOL_MB", "99999999999999999999", 1);
        TracePool::maxTotalBytesFromEnv();
      },
      testing::ExitedWithCode(2), "invalid DAECC_TRACE_POOL_MB");
}

TEST(TracePoolTest, RetainedBytesAreCapped) {
  // Per-buffer cap: a huge-wave trace must not pin its capacity forever.
  TracePool Pool(/*MaxPooled=*/4, /*MaxBufferBytes=*/1024,
                 /*MaxTotalBytes=*/4096);
  std::vector<std::uint64_t> Huge;
  Huge.reserve(1024); // 8 KiB > per-buffer cap.
  Pool.recycle(std::move(Huge));
  EXPECT_EQ(Pool.pooledBuffers(), 0u);
  EXPECT_EQ(Pool.retainedBytes(), 0u);

  // Total cap: buffers under the per-buffer cap stop pooling once the
  // free-list's summed capacity would exceed MaxTotalBytes.
  for (int I = 0; I != 8; ++I) {
    std::vector<std::uint64_t> Buf;
    Buf.reserve(128); // 1 KiB each.
    Pool.recycle(std::move(Buf));
  }
  EXPECT_LE(Pool.retainedBytes(), 4096u);
  EXPECT_LE(Pool.pooledBuffers(), 4u);

  // Acquire returns retained capacity and releases its accounting.
  std::size_t Before = Pool.retainedBytes();
  std::vector<std::uint64_t> Got = Pool.acquire();
  EXPECT_GE(Got.capacity(), 128u);
  EXPECT_LT(Pool.retainedBytes(), Before);
}

TEST(MemoryTest, ImageHashIgnoresUntouchedAndZeroPages) {
  Memory A, B;
  A.storeI64(0x1000, 7);
  B.storeI64(0x1000, 7);
  EXPECT_EQ(A.imageHash(), B.imageHash());
  // Touching a page with zeroes (what a pure prefetcher's page allocation
  // does) must not change the image.
  B.storeI64(0x900000, 0);
  EXPECT_EQ(A.imageHash(), B.imageHash());
  // A real difference must.
  B.storeI64(0x900000, 1);
  EXPECT_NE(A.imageHash(), B.imageHash());
}

TEST(MemoryTest, RoundTripsValues) {
  Memory Mem;
  Mem.storeI64(0x1000, -42);
  EXPECT_EQ(Mem.loadI64(0x1000), -42);
  Mem.storeF64(0x2000, 3.25);
  EXPECT_DOUBLE_EQ(Mem.loadF64(0x2000), 3.25);
  // Untouched memory reads as zero.
  EXPECT_EQ(Mem.loadI64(0x900000), 0);
}

TEST(LoaderTest, AssignsDisjointAlignedBases) {
  Module M;
  M.createGlobal("a", 100);
  M.createGlobal("b", 4096);
  M.createGlobal("c", 8);
  Loader L(M);
  std::uint64_t A = L.baseOf("a"), B = L.baseOf("b"), C = L.baseOf("c");
  EXPECT_EQ(A % 64, 0u);
  EXPECT_EQ(B % 64, 0u);
  EXPECT_GE(B, A + 100);
  EXPECT_GE(C, B + 4096);
}

TEST(CacheTest, HitsAfterMiss) {
  Cache C({1024, 2, 64}); // 8 sets x 2 ways.
  EXPECT_FALSE(C.access(0x0));
  EXPECT_TRUE(C.access(0x0));
  EXPECT_TRUE(C.access(0x38)); // Same line.
  EXPECT_FALSE(C.access(0x40)); // Next line.
  EXPECT_EQ(C.misses(), 2u);
  EXPECT_EQ(C.hits(), 2u);
}

TEST(CacheTest, LruEviction) {
  Cache C({128, 2, 64}); // 1 set, 2 ways.
  C.access(0x000);        // Line A.
  C.access(0x040);        // Line B.
  C.access(0x000);        // Touch A (B becomes LRU).
  C.access(0x080);        // Line C evicts B.
  EXPECT_TRUE(C.probe(0x000));
  EXPECT_FALSE(C.probe(0x040));
  EXPECT_TRUE(C.probe(0x080));
}

TEST(CacheTest, SameLineFastPathKeepsLruExact) {
  // The same-line-as-last-access short circuit must still bump the line's
  // LRU stamp, or a hot line would look stale and get evicted.
  Cache C({128, 2, 64}); // 1 set, 2 ways.
  C.access(0x000);       // Line A (miss).
  C.access(0x040);       // Line B (miss).
  C.access(0x000);       // A again: slow-path hit, A becomes MRU.
  C.access(0x008);       // A again: fast-path hit, A stays MRU.
  C.access(0x080);       // Line C must evict B, the true LRU.
  EXPECT_TRUE(C.probe(0x000));
  EXPECT_FALSE(C.probe(0x040));
  EXPECT_TRUE(C.probe(0x080));
  EXPECT_EQ(C.hits(), 2u);
  EXPECT_EQ(C.misses(), 3u);
}

TEST(CacheTest, RejectsNonPowerOfTwoLineBytes) {
  EXPECT_THROW(Cache({1024, 2, 48}), std::invalid_argument);
  EXPECT_THROW(Cache({1024, 2, 0}), std::invalid_argument);
  MachineConfig Cfg;
  Cfg.L2.LineBytes = 96;
  EXPECT_THROW(CacheHierarchy(Cfg, 1), std::invalid_argument);
  EXPECT_EQ(lineShiftOf(64), 6u);
  EXPECT_EQ(lineShiftOf(1), 0u);
}

TEST(CacheHierarchyTest, FillsAllLevelsAndIsolatesCores) {
  MachineConfig Cfg;
  Cfg.HwNextLinePrefetch = false;
  CacheHierarchy H(Cfg, 2);
  EXPECT_EQ(H.access(0, 0x1000), HitLevel::Memory);
  EXPECT_EQ(H.access(0, 0x1000), HitLevel::L1);
  // Core 1's private caches are cold, but the shared LLC has the line.
  EXPECT_EQ(H.access(1, 0x1000), HitLevel::LLC);
  EXPECT_EQ(H.access(1, 0x1000), HitLevel::L1);
}

TEST(CacheHierarchyTest, NextLinePrefetcherCoversStreams) {
  MachineConfig Cfg;
  Cfg.HwNextLinePrefetch = true;
  CacheHierarchy H(Cfg, 1);
  EXPECT_EQ(H.access(0, 0x0), HitLevel::Memory);
  // The hardware prefetcher pulled line 0x40 into L2.
  EXPECT_EQ(H.access(0, 0x40), HitLevel::L2);
}

TEST(CacheHierarchyTest, PrivateHalfTouchesOnlyItsCore) {
  // The co-run timeline runs each core ahead through its private events and
  // orders only the shared halves globally. That is exact only while an
  // access's private half leaves every other core's caches and the LLC
  // alone, and its shared half (including the next-line fill) installs into
  // no other core's L1 or L2. Coherence or an inclusive LLC with
  // back-invalidation would break this; so would this test.
  MachineConfig Cfg;
  Cfg.HwNextLinePrefetch = true;
  // Small caches over a larger footprint: every level evicts.
  Cfg.L1 = {1024, 2};
  Cfg.L2 = {4096, 4};
  Cfg.LLC = {16384, 8};
  const unsigned NumCores = 4;
  const std::uint64_t Line = Cfg.L1.LineBytes, FootprintLines = 512;
  CacheHierarchy H(Cfg, NumCores);

  // Presence of every footprint line (plus the next-line overshoot) in each
  // selected private cache and, optionally, the LLC.
  auto Snapshot = [&](unsigned Skip, bool WithLlc) {
    std::vector<bool> S;
    for (std::uint64_t L = 0; L <= FootprintLines; ++L) {
      for (unsigned C = 0; C != NumCores; ++C)
        if (C != Skip) {
          S.push_back(H.l1(C).probe(L * Line));
          S.push_back(H.l2(C).probe(L * Line));
        }
      if (WithLlc)
        S.push_back(H.llc().probe(L * Line));
    }
    return S;
  };

  std::mt19937 Rng(42);
  unsigned SharedHalves = 0, DramMisses = 0;
  for (int I = 0; I != 2000; ++I) {
    unsigned Core = Rng() % NumCores;
    std::uint64_t Addr = (Rng() % FootprintLines) * Line + Rng() % Line;
    std::vector<bool> Before = Snapshot(Core, /*WithLlc=*/true);
    HitLevel Level = H.accessPrivate(Core, Addr);
    ASSERT_EQ(Snapshot(Core, /*WithLlc=*/true), Before) << "event " << I;
    if (Level != HitLevel::LLC) {
      EXPECT_TRUE(Level == HitLevel::L1 || Level == HitLevel::L2);
      continue;
    }
    ++SharedHalves;
    std::uint64_t Next = (Addr & ~(Line - 1)) + Line;
    bool NextInL1 = H.l1(Core).probe(Next);
    Before = Snapshot(Core, /*WithLlc=*/false);
    Level = H.accessShared(Core, Addr);
    ASSERT_EQ(Snapshot(Core, /*WithLlc=*/false), Before) << "event " << I;
    if (Level == HitLevel::Memory) {
      ++DramMisses;
      EXPECT_TRUE(H.l2(Core).probe(Next)) << "event " << I;
      EXPECT_TRUE(H.llc().probe(Next)) << "event " << I;
      EXPECT_EQ(H.l1(Core).probe(Next), NextInL1) << "event " << I;
    } else {
      EXPECT_EQ(Level, HitLevel::LLC);
    }
  }
  // The stream exercised both halves.
  EXPECT_GT(SharedHalves, 1000u);
  EXPECT_GT(DramMisses, 500u);
}

TEST(PowerModelTest, MatchesPaperFormula) {
  MachineConfig Cfg;
  PowerModel PM(Cfg);
  // Pdyn = (0.19*IPC + 1.64) * f * V^2 — check at IPC=1, f=3.4.
  double V = Cfg.voltageAt(3.4);
  EXPECT_NEAR(PM.dynamicPower(3.4, 1.0), (0.19 + 1.64) * 3.4 * V * V, 1e-9);
  // Dynamic power grows with both frequency and IPC.
  EXPECT_GT(PM.dynamicPower(3.4, 2.0), PM.dynamicPower(3.4, 1.0));
  EXPECT_GT(PM.dynamicPower(3.4, 1.0), PM.dynamicPower(1.6, 1.0));
  EXPECT_GT(PM.staticPowerPerCore(3.4), PM.staticPowerPerCore(1.6));
  EXPECT_LT(PM.sleepPowerPerCore(), PM.staticPowerPerCore(1.6));
}

TEST(PhaseStatsTest, FrequencyDecomposition) {
  PhaseStats S;
  S.Instructions = 1000;
  S.ComputeCycles = 3400.0;
  S.StallNs = 500.0;
  // At 3.4 GHz: 1000 ns compute + 500 ns stall.
  EXPECT_NEAR(S.timeNs(3.4), 1500.0, 1e-9);
  // At 1.7 GHz compute doubles, stall unchanged.
  EXPECT_NEAR(S.timeNs(1.7), 2500.0, 1e-9);
  // IPC shrinks as stalls dominate at high frequency less... at fixed
  // composition IPC at 3.4 GHz = 1000 / (1500 * 3.4).
  EXPECT_NEAR(S.ipc(3.4), 1000.0 / (1500.0 * 3.4), 1e-9);
}

// Opcode lowering must refuse unknown enumerators loudly: the old fallback
// silently mapped them to Add/CmpEQ, executing wrong code. The cast values
// stay inside the enums' representable range (both have < 16 enumerators),
// so forming them is well-defined; only the lowering must reject them.
TEST(SimOpsDeathTest, UnknownBinOpAborts) {
  EXPECT_DEATH((void)binSimOp(static_cast<BinOp>(15)),
               "binSimOp: unknown opcode value 15");
}

TEST(SimOpsDeathTest, UnknownCmpPredAborts) {
  EXPECT_DEATH((void)cmpSimOp(static_cast<CmpPred>(15)),
               "cmpSimOp: unknown opcode value 15");
}

/// Runs \p F functionally, then replays its trace through \p Caches as core
/// 0: the complete phase profile the runtime would assemble.
PhaseStats runAndReplay(Interpreter &Interp, CacheHierarchy &Caches,
                        const MachineConfig &Cfg, const Function &F,
                        const std::vector<RuntimeValue> &Args) {
  AccessTrace Trace;
  PhaseStats S = Interp.runTraced(F, Args, Trace);
  runtime::replayTrace(Trace, Caches, 0, runtime::ReplayCostModel(Cfg), S);
  return S;
}

/// Interpreter fixture: sum = Src[0..n) accumulated into Dst[0].
struct InterpFixture {
  Module M;
  Function *F;
  MachineConfig Cfg;
  Memory Mem;

  InterpFixture() {
    auto *Src = M.createGlobal("Src", 1024 * 8);
    auto *Dst = M.createGlobal("Dst", 8);
    F = M.createFunction("sum", Type::Void, {Type::Int64});
    IRBuilder B(M, F->createBlock("entry"));
    emitCountedLoop(B, B.getInt(0), F->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
      Value *V = B.createLoad(Type::Float64, B.createGep1D(Src, I, 8));
      Value *DstPtr = B.createGep1D(Dst, B.getInt(0), 8);
      B.createStore(B.createFAdd(B.createLoad(Type::Float64, DstPtr), V),
                    DstPtr);
    });
    B.createRet();
  }
};

TEST(InterpreterTest, ComputesCorrectResult) {
  InterpFixture Fx;
  Loader L(Fx.M);
  for (int I = 0; I != 100; ++I)
    Fx.Mem.storeF64(L.baseOf("Src") + static_cast<std::uint64_t>(I) * 8,
                    static_cast<double>(I));
  Interpreter Interp(Fx.Cfg, Fx.Mem, L);
  AccessTrace Trace;
  PhaseStats S = Interp.runTraced(*Fx.F, {RuntimeValue::ofInt(100)}, Trace);
  EXPECT_DOUBLE_EQ(Fx.Mem.loadF64(L.baseOf("Dst")), 99.0 * 100.0 / 2.0);
  EXPECT_GT(S.Instructions, 500u); // ~8 instructions x 100 iterations.
  EXPECT_EQ(S.Loads, 200u);
  EXPECT_EQ(S.Stores, 100u);
  EXPECT_EQ(Trace.size(), 300u);
}

TEST(InterpreterTest, ColdMissesProduceStalls) {
  InterpFixture Fx;
  Loader L(Fx.M);
  CacheHierarchy Caches(Fx.Cfg, 1);
  Interpreter Interp(Fx.Cfg, Fx.Mem, L);
  PhaseStats Cold = runAndReplay(Interp, Caches, Fx.Cfg, *Fx.F,
                                 {RuntimeValue::ofInt(1024)});
  EXPECT_GT(Cold.MemAccesses, 0u);
  EXPECT_GT(Cold.StallNs, 0.0);
  // A second pass over the same (small) data is cache-warm.
  PhaseStats Warm = runAndReplay(Interp, Caches, Fx.Cfg, *Fx.F,
                                 {RuntimeValue::ofInt(1024)});
  EXPECT_LT(Warm.StallNs, Cold.StallNs);
  EXPECT_GT(Warm.L1Hits, Cold.L1Hits);
}

TEST(InterpreterTest, PrefetchWarmsWithoutSideEffects) {
  Module M;
  auto *Src = M.createGlobal("Src", 4096 * 8);
  auto *Dst = M.createGlobal("Dst", 8);
  Function *Pf = M.createFunction("pf", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, Pf->createBlock("entry"));
    B.createPrefetch(B.createGep1D(Dst, B.getInt(0), 8));
    emitCountedLoop(B, B.getInt(0), Pf->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
                      B.createPrefetch(B.createGep1D(Src, I, 8));
                    });
    B.createRet();
  }
  Function *Rd = M.createFunction("rd", Type::Void, {Type::Int64});
  {
    IRBuilder B(M, Rd->createBlock("entry"));
    emitCountedLoop(B, B.getInt(0), Rd->getArg(0), B.getInt(1), "i",
                    [&](IRBuilder &B, Value *I) {
      Value *V = B.createLoad(Type::Float64, B.createGep1D(Src, I, 8));
      B.createStore(V, B.createGep1D(Dst, B.getInt(0), 8));
    });
    B.createRet();
  }
  MachineConfig Cfg;
  Memory Mem;
  Loader L(M);
  CacheHierarchy Caches(Cfg, 1);
  Interpreter Interp(Cfg, Mem, L);
  std::int64_t N = 1024; // 8 KiB: fits L1.
  PhaseStats Access =
      runAndReplay(Interp, Caches, Cfg, *Pf, {RuntimeValue::ofInt(N)});
  PhaseStats Exec =
      runAndReplay(Interp, Caches, Cfg, *Rd, {RuntimeValue::ofInt(N)});
  EXPECT_EQ(Access.Prefetches, static_cast<std::uint64_t>(N) + 1);
  EXPECT_EQ(Exec.MemAccesses, 0u) << "prefetched data must hit";
  EXPECT_EQ(Exec.StallNs, 0.0);
}

// --- DramChannel occupancy boundaries -------------------------------------

TEST(DramChannelTest, NormalBandwidthQueuesBackToBack) {
  // 12.8 GB/s at 64-byte lines: 5 ns per transfer. Three requests at the
  // same instant queue 0 / 5 / 10 ns.
  DramChannel Ch(12.8, 64);
  EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 5.0);
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 0.0);
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 5.0);
  EXPECT_DOUBLE_EQ(Ch.requestLine(0.0), 10.0);
  // A request after the backlog drains waits nothing.
  EXPECT_DOUBLE_EQ(Ch.requestLine(100.0), 0.0);
}

TEST(DramChannelTest, NonPositiveBandwidthIsIdenticalToNoChannel) {
  // <= 0 (and NaN) disables the queue: occupancy 0 and every request free,
  // byte-identical to the single-workload engine's no-channel model.
  for (double B : {0.0, -1.0, -12.8, std::nan("")}) {
    DramChannel Ch(B, 64);
    EXPECT_DOUBLE_EQ(Ch.occupancyNs(), 0.0) << "bandwidth " << B;
    for (int I = 0; I != 4; ++I)
      EXPECT_DOUBLE_EQ(Ch.requestLine(I * 3.0), 0.0) << "bandwidth " << B;
  }
}

TEST(DramChannelTest, ExtremeBandwidthStaysFinite) {
  // A subnormal bandwidth would overflow LineBytes / BandwidthGBs to +inf;
  // the occupancy must cap at the finite ceiling instead, so repeated
  // requests keep producing finite (if astronomically large) delays.
  DramChannel Tiny(5e-324, 64);
  EXPECT_TRUE(std::isfinite(Tiny.occupancyNs()));
  EXPECT_DOUBLE_EQ(Tiny.occupancyNs(), DramChannel::MaxOccupancyNs);
  EXPECT_DOUBLE_EQ(Tiny.requestLine(0.0), 0.0);
  for (int I = 1; I != 4; ++I) {
    double Delay = Tiny.requestLine(0.0);
    EXPECT_TRUE(std::isfinite(Delay)) << "request " << I;
    EXPECT_DOUBLE_EQ(Delay, I * DramChannel::MaxOccupancyNs);
  }

  // Huge-but-normal configurations keep their exact occupancy.
  DramChannel Slow(1e-12, 64);
  EXPECT_TRUE(std::isfinite(Slow.occupancyNs()));
  EXPECT_DOUBLE_EQ(Slow.occupancyNs(), 64.0 / 1e-12);

  // Infinite bandwidth transfers in zero time but still counts as enabled
  // only when positive; occupancy collapses to 0 and requests are free.
  DramChannel Inf(std::numeric_limits<double>::infinity(), 64);
  EXPECT_DOUBLE_EQ(Inf.occupancyNs(), 0.0);
  EXPECT_DOUBLE_EQ(Inf.requestLine(0.0), 0.0);
}

} // namespace
