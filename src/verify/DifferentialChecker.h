//===- verify/DifferentialChecker.h - Dynamic DAE oracle --------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two-run convenience of the dynamic DAE oracle (verify/Differential.h):
/// for one task list it simulates the run with access phases and the run
/// with them suppressed, each from identically initialized memory, and
/// compares the pair. The harness derives its verdicts from its scheme runs
/// instead and never calls this; tests and the benchmark's traced mirror do.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_VERIFY_DIFFERENTIALCHECKER_H
#define DAECC_VERIFY_DIFFERENTIALCHECKER_H

#include "verify/Differential.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace dae {
namespace verify {

/// What the checker needs to re-create a run: the workload's memory
/// initializer and its output-array names/sizes (a structural subset of
/// workloads::Workload, so verify does not depend on the workloads library).
struct DifferentialSpec {
  /// Fills a fresh Memory with the workload's initial data.
  std::function<void(sim::Memory &, const sim::Loader &)> Init;
  /// Output array globals (by name) and their sizes in bytes; compared
  /// byte-for-byte between the two runs.
  std::vector<std::string> OutputGlobals;
  std::vector<std::uint64_t> OutputSizes;
};

/// Runs the with/without-access differential over one task list.
class DifferentialChecker {
public:
  DifferentialChecker(const sim::MachineConfig &Cfg, const sim::Loader &L,
                      DifferentialSpec Spec)
      : Cfg(Cfg), L(L), Spec(std::move(Spec)) {}

  /// Executes \p Tasks twice (with and without access phases) from freshly
  /// initialized memory and returns compare()'s verdict on the pair, with
  /// \p Observations as compare() fills them. Thread-compatible: uses only
  /// private Memory instances, so concurrent checks over shared read-only
  /// modules are safe. When \p WithProfile is non-null it receives the
  /// with-access run's RunProfile, so callers pricing the scheme need no
  /// extra simulation.
  DifferentialResult
  check(const std::vector<runtime::Task> &Tasks,
        std::vector<runtime::TaskObservation> *Observations = nullptr,
        runtime::RunProfile *WithProfile = nullptr) const;

private:
  CapturedRun run(const std::vector<runtime::Task> &Tasks,
                  bool RunAccess) const;

  const sim::MachineConfig &Cfg;
  const sim::Loader &L;
  DifferentialSpec Spec;
};

} // namespace verify
} // namespace dae

#endif // DAECC_VERIFY_DIFFERENTIALCHECKER_H
