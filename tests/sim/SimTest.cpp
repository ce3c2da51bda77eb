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

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>
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

TEST(MachineConfigTest, RungAtOrAboveRoundsUpOntoTheLadder) {
  MachineConfig Cfg;
  // cpufreq's CPUFREQ_RELATION_L: the lowest rung at or above the target,
  // fmin below the ladder and fmax beyond it.
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(0.7), Cfg.fmin());
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2.1), 2.4);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(2.4), 2.4);
  EXPECT_DOUBLE_EQ(Cfg.rungAtOrAbove(5.0), Cfg.fmax());
}

TEST(MachineConfigTest, RungAtOrAboveReadsAReversedLadderByValue) {
  MachineConfig Ascending;
  MachineConfig Reversed = Ascending;
  std::reverse(Reversed.FrequenciesGHz.begin(),
               Reversed.FrequenciesGHz.end());
  EXPECT_DOUBLE_EQ(Reversed.rungAtOrAbove(2.1), 2.4);
  for (double Target : {0.7, 1.6, 1.7, 2.1, 2.4, 3.3, 3.4, 5.0})
    EXPECT_DOUBLE_EQ(Reversed.rungAtOrAbove(Target),
                     Ascending.rungAtOrAbove(Target))
        << Target;
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

/// The reference LRU model: each set is a list of line addresses, most
/// recently used first. A hit moves its line to the front; a miss fills an
/// empty way, or evicts the tail when the set is full.
class ReferenceLru {
public:
  ReferenceLru(std::uint64_t NumSets, unsigned Assoc)
      : Sets(NumSets), Assoc(Assoc) {}

  bool access(std::uint64_t Line) {
    std::vector<std::uint64_t> &S = setOf(Line);
    auto It = std::find(S.begin(), S.end(), Line);
    bool Hit = It != S.end();
    if (Hit)
      S.erase(It);
    else if (S.size() == Assoc)
      S.pop_back();
    S.insert(S.begin(), Line);
    ++(Hit ? Hits : Misses);
    return Hit;
  }

  bool contains(std::uint64_t Line) {
    const std::vector<std::uint64_t> &S = setOf(Line);
    return std::find(S.begin(), S.end(), Line) != S.end();
  }

  void flush() {
    for (std::vector<std::uint64_t> &S : Sets)
      S.clear();
    Hits = Misses = 0;
  }

  std::uint64_t Hits = 0, Misses = 0;

private:
  std::vector<std::uint64_t> &setOf(std::uint64_t Line) {
    return Sets[Line % Sets.size()];
  }

  std::vector<std::vector<std::uint64_t>> Sets;
  unsigned Assoc;
};

TEST(CacheTest, MatchesReferenceLruOnRandomStreams) {
  // Cache's victim choice relies on an invariant (invalid ways hold stamp
  // 0, valid stamps are unique and at least 1) that flush() must restore
  // and the same-line short circuit must keep, so drive both through
  // streams that mix hot lines, same-line repeats and periodic flushes, on
  // power-of-two and odd associativities.
  constexpr unsigned LineBytes = 64;
  constexpr std::uint64_t BaseLine = 0x10000 / LineBytes;
  for (unsigned Assoc : {1u, 2u, 3u, 8u, 16u}) {
    for (std::uint64_t NumSets = 1; NumSets <= 64; NumSets *= 2) {
      for (std::uint64_t Seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(::testing::Message() << Assoc << " ways x " << NumSets
                                          << " sets, seed " << Seed);
        Cache C({NumSets * Assoc * LineBytes, Assoc, LineBytes});
        ReferenceLru Ref(NumSets, Assoc);
        std::mt19937_64 Rng(Seed * 1000 + Assoc * 100 + NumSets);
        // Three times the capacity, with a capacity's worth of hot lines
        // scattered over it so some sets run hotter than others.
        std::uint64_t Capacity = NumSets * Assoc;
        std::uint64_t Lines = 3 * Capacity + 1;
        std::vector<std::uint64_t> Hot(Capacity);
        for (std::uint64_t &H : Hot)
          H = BaseLine + Rng() % Lines;

        auto CompareResidency = [&] {
          for (std::uint64_t L = BaseLine; L != BaseLine + Lines; ++L)
            ASSERT_EQ(C.probe(L * LineBytes), Ref.contains(L)) << "line " << L;
        };

        std::uint64_t Line = BaseLine;
        for (unsigned Step = 0; Step != 3000; ++Step) {
          unsigned Roll = Rng() % 100;
          if (Roll == 0) {
            ASSERT_NO_FATAL_FAILURE(CompareResidency());
            C.flush();
            Ref.flush();
            continue;
          }
          // Below 25 the line repeats: the same-line short circuit, unless
          // a flush came in between.
          if (Roll >= 65)
            Line = BaseLine + Rng() % Lines;
          else if (Roll >= 25)
            Line = Hot[Rng() % Hot.size()];
          std::uint64_t Addr = Line * LineBytes + Rng() % LineBytes;
          ASSERT_EQ(C.access(Addr), Ref.access(Line)) << "step " << Step;
          ASSERT_EQ(C.hits(), Ref.Hits);
          ASSERT_EQ(C.misses(), Ref.Misses);
        }
        ASSERT_NO_FATAL_FAILURE(CompareResidency());
      }
    }
  }
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

TEST(CacheTest, RejectsDegenerateGeometry) {
  // Zero ways: the set count's divisor is zero.
  EXPECT_THROW(Cache(CacheConfig{16 * 1024, 0}), std::invalid_argument);
  // Less than one whole set.
  EXPECT_THROW(Cache({64, 2, 64}), std::invalid_argument);
  EXPECT_THROW(Cache({0, 8, 64}), std::invalid_argument);
  // Three sets: set indexing masks the line address.
  EXPECT_THROW(Cache({3 * 2 * 64, 2, 64}), std::invalid_argument);
  MachineConfig Cfg;
  Cfg.LLC.Assoc = 0;
  EXPECT_THROW(CacheHierarchy(Cfg, 1), std::invalid_argument);
  // An odd associativity over a power-of-two set count is legal.
  EXPECT_NO_THROW(Cache({4 * 3 * 64, 3, 64}));
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
  // no other core's L1 or L2. The timeline also reads each event's L1
  // outcome from the core's solo run, which is exact only while the shared
  // half leaves the requester's L1 alone too. Coherence or an inclusive LLC
  // with back-invalidation would break this; so would this test.
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

  auto L1Lines = [&](unsigned Core) {
    std::vector<bool> S;
    for (std::uint64_t L = 0; L <= FootprintLines; ++L)
      S.push_back(H.l1(Core).probe(L * Line));
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
    Before = Snapshot(Core, /*WithLlc=*/false);
    std::vector<bool> OwnL1Before = L1Lines(Core);
    Level = H.accessShared(Core, Addr);
    ASSERT_EQ(Snapshot(Core, /*WithLlc=*/false), Before) << "event " << I;
    ASSERT_EQ(L1Lines(Core), OwnL1Before) << "event " << I;
    if (Level == HitLevel::Memory) {
      ++DramMisses;
      EXPECT_TRUE(H.l2(Core).probe(Next)) << "event " << I;
      EXPECT_TRUE(H.llc().probe(Next)) << "event " << I;
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

/// Load sites are the switch backend's alone: it records one per Load event,
/// and the threaded and native backends refuse a sink instead of running
/// some other engine for it.
TEST(InterpreterTest, LoadSitesNeedTheSwitchBackend) {
  InterpFixture Fx;
  Loader L(Fx.M);
  for (SimBackend B :
       {SimBackend::Switch, SimBackend::Threaded, SimBackend::Native}) {
    if (!simBackendBuilt(B))
      continue;
    SCOPED_TRACE(simBackendName(B));
    MachineConfig Cfg;
    Cfg.Backend = B;
    Interpreter Interp(Cfg, Fx.Mem, L);
    AccessTrace Trace;
    std::vector<const Instruction *> Sites;
    if (B == SimBackend::Switch) {
      PhaseStats S = Interp.runTraced(*Fx.F, {RuntimeValue::ofInt(10)}, Trace,
                                      nullptr, &Sites);
      EXPECT_EQ(Sites.size(), S.Loads);
    } else {
      EXPECT_THROW(Interp.runTraced(*Fx.F, {RuntimeValue::ofInt(10)}, Trace,
                                    nullptr, &Sites),
                   std::invalid_argument);
      EXPECT_TRUE(Sites.empty());
      EXPECT_EQ(Trace.size(), 0u);
    }
  }
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
