//===- bench/micro_replay.cpp - Trace replay microbenchmarks ----------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the cache-timing replay hot loop
/// (runtime/Replay.h) — the sequential half of the simulation engine and the
/// stage the pipelined wave overlap hides. Events/s here bound how fast any
/// simulation can retire its timing pass, so this is the number to watch
/// when touching Cache::access or the replay fast path. Patterns:
///
///  * Sequential: a streaming load walk (same-line fast path + next-line
///    hardware prefetcher — the best case).
///  * Random: an LCG-scattered load stream over an LLC-exceeding footprint
///    (tag scans + evictions dominate — the worst case).
///  * Mixed: interleaved load/store/prefetch, the shape real DAE task traces
///    have.
///  * MixedCapture: Mixed with oracle capture enabled, bounding the cost the
///    --dae-verify differential adds per event.
///  * MixedRetained: Mixed recording each event's L1 outcome, as a run that
///    retains its traces for a co-run timeline does.
///
/// The Timeline* benchmarks drive the multi-core co-run timeline
/// (runtime/Timeline.h) instead: four co-runners, each one task whose
/// execute phase is one of the patterns above at its own address bias,
/// interleaved under the fixed-max policy. Events/s there bound the
/// contention sweep the way the Replay* numbers bound a solo run.
///
//===----------------------------------------------------------------------===//

#include "runtime/Replay.h"
#include "runtime/Timeline.h"
#include "sim/CacheSim.h"
#include "sim/MachineConfig.h"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

using namespace dae;
using namespace dae::runtime;
using namespace dae::sim;

namespace {

constexpr std::size_t NumEvents = 1 << 18;

/// A streaming load walk touching every 8th byte of a large footprint.
AccessTrace sequentialTrace() {
  AccessTrace Tr;
  for (std::size_t I = 0; I != NumEvents; ++I)
    Tr.push(AccessTrace::Kind::Load, 0x10000 + I * 8);
  return Tr;
}

/// LCG-scattered loads over a footprint several times the LLC.
AccessTrace randomTrace() {
  AccessTrace Tr;
  std::uint64_t X = 0x2545F4914F6CDD1Dull;
  for (std::size_t I = 0; I != NumEvents; ++I) {
    X = X * 6364136223846793005ull + 1442695040888963407ull;
    Tr.push(AccessTrace::Kind::Load, 0x10000 + ((X >> 20) & 0x1FFFFF8ull));
  }
  return Tr;
}

/// Prefetch/load/store interleave over strided lines (DAE task shape).
AccessTrace mixedTrace() {
  AccessTrace Tr;
  for (std::size_t I = 0; I != NumEvents / 3; ++I) {
    std::uint64_t Addr = 0x10000 + (I * 192) % (1 << 22);
    Tr.push(AccessTrace::Kind::Prefetch, Addr);
    Tr.push(AccessTrace::Kind::Load, Addr);
    Tr.push(AccessTrace::Kind::Store, Addr + 64);
  }
  return Tr;
}

void benchReplay(benchmark::State &State, const AccessTrace &Tr,
                 bool WithCapture, bool WithL1Hits = false) {
  MachineConfig Cfg;
  ReplayCostModel Costs(Cfg);
  CacheHierarchy Caches(Cfg, Cfg.NumCores);
  unsigned LineShift = lineShiftOf(Cfg.L1.LineBytes);
  for (auto _ : State) {
    State.PauseTiming();
    Caches.flush();
    PhaseStats S;
    PhaseCapture Cap;
    std::vector<std::uint64_t> L1Hits;
    State.ResumeTiming();
    replayTrace(Tr, Caches, /*Core=*/0, Costs, S,
                WithCapture ? &Cap : nullptr, LineShift,
                WithL1Hits ? &L1Hits : nullptr);
    benchmark::DoNotOptimize(S.StallNs);
    benchmark::DoNotOptimize(S.L1Hits);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          static_cast<std::int64_t>(Tr.size()));
}

void BM_ReplaySequential(benchmark::State &State) {
  benchReplay(State, sequentialTrace(), /*WithCapture=*/false);
}
BENCHMARK(BM_ReplaySequential)->Unit(benchmark::kMillisecond);

void BM_ReplayRandom(benchmark::State &State) {
  benchReplay(State, randomTrace(), /*WithCapture=*/false);
}
BENCHMARK(BM_ReplayRandom)->Unit(benchmark::kMillisecond);

void BM_ReplayMixed(benchmark::State &State) {
  benchReplay(State, mixedTrace(), /*WithCapture=*/false);
}
BENCHMARK(BM_ReplayMixed)->Unit(benchmark::kMillisecond);

void BM_ReplayMixedCapture(benchmark::State &State) {
  benchReplay(State, mixedTrace(), /*WithCapture=*/true);
}
BENCHMARK(BM_ReplayMixedCapture)->Unit(benchmark::kMillisecond);

void BM_ReplayMixedRetained(benchmark::State &State) {
  benchReplay(State, mixedTrace(), /*WithCapture=*/false,
              /*WithL1Hits=*/true);
}
BENCHMARK(BM_ReplayMixedRetained)->Unit(benchmark::kMillisecond);

/// Interleaves four co-runners, each replaying \p Tr as the execute phase of
/// its only task, with one functional cycle and instruction per event. The
/// L1 outcomes the timeline reads come from a solo replay of \p Tr on a
/// one-core hierarchy, as TaskRuntime::execute records them.
void benchTimeline(benchmark::State &State, const AccessTrace &Tr) {
  MachineConfig Cfg;
  const unsigned NumStreams = 4;
  CacheHierarchy SoloCaches(Cfg, 1);
  PhaseStats SoloStats;
  std::vector<std::uint64_t> L1Hits;
  replayTrace(Tr, SoloCaches, /*Core=*/0, ReplayCostModel(Cfg), SoloStats,
              nullptr, lineShiftOf(Cfg.L1.LineBytes), &L1Hits);
  std::vector<RunProfile> Solo(NumStreams);
  std::vector<RunTraces> Traces(NumStreams);
  std::vector<CoreStream> Streams;
  for (unsigned C = 0; C != NumStreams; ++C) {
    TaskTraces TT;
    TT.Execute = Tr;
    TT.ExecuteL1Hits = L1Hits;
    TT.FunctionalExecute.Instructions = Tr.size();
    TT.FunctionalExecute.ComputeCycles = static_cast<double>(Tr.size());
    Traces[C].Tasks.push_back(std::move(TT));
    Traces[C].L1 = Cfg.L1;
    Solo[C].Tasks.resize(1);
    Streams.push_back(
        {&Solo[C], &Traces[C], static_cast<std::uint64_t>(C) << 40});
  }
  TimelineConfig TC;
  TC.Policy = TimelinePolicy::FixedMax;
  for (auto _ : State) {
    TimelineReport R = interleaveTimeline(Streams, Cfg, TC);
    benchmark::DoNotOptimize(R.MakespanNs);
    benchmark::DoNotOptimize(R.Cores[0].Total.L1Hits);
  }
  State.SetItemsProcessed(static_cast<std::int64_t>(State.iterations()) *
                          NumStreams * static_cast<std::int64_t>(Tr.size()));
}

void BM_TimelineSequential(benchmark::State &State) {
  benchTimeline(State, sequentialTrace());
}
BENCHMARK(BM_TimelineSequential)->Unit(benchmark::kMillisecond);

void BM_TimelineMixed(benchmark::State &State) {
  benchTimeline(State, mixedTrace());
}
BENCHMARK(BM_TimelineMixed)->Unit(benchmark::kMillisecond);

void BM_TimelineRandom(benchmark::State &State) {
  benchTimeline(State, randomTrace());
}
BENCHMARK(BM_TimelineRandom)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
