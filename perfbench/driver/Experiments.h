//===- perfbench/driver/Experiments.h - Benchmark workloads -----*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's workloads and one repetition of each, in two flavours:
///
///  * untraced: drives the program exactly like the suite drivers do
///    (harness::runSuite / harness::runMix with one job and one sim thread),
///    then prices and checks the results. Its times are the end-to-end
///    metrics.
///  * traced: replays the harness's orchestration step by step through the
///    modules' public functions, wrapping each call in a span of its layer.
///    Its spans give the per-layer metrics. Both flavours report the same
///    exact counts, so a traced run that drifted from the real orchestration
///    is caught.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_EXPERIMENTS_H
#define PERFBENCH_EXPERIMENTS_H

#include "Spans.h"

#include "sim/MachineConfig.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One named benchmark workload.
struct WorkloadSpec {
  std::string Name;
  /// Applications, in canonical order (a co-run's seed permutes them).
  std::vector<std::string> Apps;
  /// Co-run the apps on one machine (harness::runMix) instead of running
  /// them as a suite (harness::runSuite).
  bool Mix = false;
  /// --dae-verify --dae-profile-guided.
  bool Verify = false;
  dae::sim::SimBackend Backend = dae::sim::SimBackend::Threaded;
  unsigned Cores = 4;
};

const std::vector<WorkloadSpec> &allWorkloads();
/// Null when \p Name is not a workload.
const WorkloadSpec *findWorkload(const std::string &Name);

/// Pinned output digests, keyed by (scale, workload, app).
using DigestKey = std::pair<std::string, std::pair<std::string, std::string>>;
using DigestTable = std::map<DigestKey, std::string>;

/// Everything one repetition needs.
struct RepInput {
  const WorkloadSpec *Spec = nullptr;
  /// Apps in this run's (seed-permuted) order.
  std::vector<std::string> Order;
  dae::workloads::Scale Scale = dae::workloads::Scale::Full;
  const DigestTable *Expected = nullptr;
};

/// Outcome of one repetition.
struct RepResult {
  double SetupSec = 0.0;
  double WallSec = 0.0;
  /// Operations (scheme simulations, timeline policies, verify checks) and
  /// how many of them failed.
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  std::vector<std::string> Problems;

  /// Result guards (deterministic model outputs).
  double EdpGainPct = 0.0;
  double OracleEdpNorm = 0.0;     ///< corun only, else 0.
  double StrictCoverageMin = 0.0; ///< verify only, else 0.

  /// Counts both flavours derive from the same result objects; they must
  /// repeat exactly.
  std::map<std::string, std::uint64_t> Exact;
  /// Digest of each app's CAE output bytes (absent where not observable).
  std::map<std::string, std::string> Digests;

  /// Traced flavour only: per-layer metrics. Its WallSec is the root span's
  /// duration, the traced total.
  std::map<std::string, double> Layers;
};

/// Builds the run's workloads and throws them away; returns the seconds the
/// build took (the set-up the untraced repetition also pays).
double measureSetup(const RepInput &In);

RepResult runUntraced(const RepInput &In);
RepResult runTraced(const RepInput &In, SpanRecorder &Rec);

} // namespace perfbench

#endif // PERFBENCH_EXPERIMENTS_H
