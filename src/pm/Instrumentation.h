//===- pm/Instrumentation.h - Pipeline timing, verification -----*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Built-in instrumentation for the compilation pipeline: a process-wide
/// registry of per-pass and per-analysis wall time / change / cache-hit
/// counts (mutex-protected — generation jobs run concurrently under the
/// harness job pool), pipeline configuration sourced from the environment
/// (DAECC_VERIFY_EACH, DAECC_PRINT_AFTER_ALL) or the bench drivers'
/// --verify-each / --print-after-all flags, and the verification hooks the
/// pass manager and the access generators call.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_PM_INSTRUMENTATION_H
#define DAECC_PM_INSTRUMENTATION_H

#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>

namespace dae {
namespace ir {
class Function;
}

namespace pm {

/// Pipeline-wide switches. Seeded once from the environment; the bench
/// drivers overwrite fields from argv before running anything.
struct PipelineConfig {
  /// Run ir::verify after every pass and abort with diagnostics on failure.
  bool VerifyEach = false;
  /// Dump the IR (ir::Printer) to stderr after every pass that changed it.
  bool PrintAfterAll = false;
};

/// The process-wide configuration (DAECC_VERIFY_EACH=1 / DAECC_PRINT_AFTER_ALL=1
/// set the corresponding fields on first use; 0 clears them, and any other
/// value exits 2 — see support::envBool01Or).
PipelineConfig &config();

/// Per-pass counters.
struct PassStat {
  std::uint64_t Runs = 0;
  std::uint64_t Changed = 0; ///< Runs that modified the function.
  double Seconds = 0.0;      ///< Wall time inside run().
};

/// Per-analysis counters.
struct AnalysisStat {
  std::uint64_t Computes = 0;  ///< Cache misses (result actually computed).
  std::uint64_t CacheHits = 0; ///< Queries served from the cache.
  double Seconds = 0.0;        ///< Wall time computing results.
};

/// Process-wide pass/analysis statistics registry. Thread-safe; the pass
/// manager and every FunctionAnalysisManager feed it.
class PipelineStats {
public:
  static PipelineStats &get();

  void notePass(const std::string &Name, double Seconds, bool Changed);
  void noteAnalysis(const std::string &Name, double Seconds, bool CacheHit);

  std::map<std::string, PassStat> passes() const;
  std::map<std::string, AnalysisStat> analyses() const;

  /// Single-line JSON object {"passes": [...], "analyses": [...]}, suitable
  /// for embedding as the "pass_stats" field of BENCH_<name>.json.
  std::string json() const;

  /// Human-readable table (the --pass-stats output).
  void print(std::FILE *Out) const;

  /// Zeroes all counters (tests and per-run bench reporting).
  void reset();

private:
  PipelineStats() = default;
  mutable std::mutex Mutex;
  std::map<std::string, PassStat> Passes;
  std::map<std::string, AnalysisStat> Analyses;
};

/// Verifies \p F immediately and aborts with the full problem list and a
/// dump of the function when it is malformed. \p Context names the pass or
/// generation step for the diagnostic.
void verifyNow(const ir::Function &F, const char *Context);

/// Post-generation verification hook: always active in builds with
/// assertions (every build of this tree keeps them on; see the top-level
/// CMakeLists), and under VerifyEach otherwise.
void verifyGenerated(const ir::Function &F, const char *Context);

} // namespace pm
} // namespace dae

#endif // DAECC_PM_INSTRUMENTATION_H
