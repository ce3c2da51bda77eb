//===- harness/JobPool.h - Suite-level job pool -----------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-thread pool for suite-level parallelism: the experiment drivers
/// submit independent simulation jobs (one per app preparation or per-scheme
/// run) and the pool executes them on `--jobs=N` worker threads. The pool
/// owns the global concurrency budget: with N jobs each running a simulation
/// whose functional pass wants M host threads (PR 1's `--sim-threads`), it
/// clamps the per-job sim-thread allowance so N x M never oversubscribes the
/// host. Jobs may submit further jobs (an app job fans out its three scheme
/// runs).
///
/// With Jobs == 1 the pool spawns no threads at all: wait() drains the queue
/// inline in FIFO order, which is exactly the sequential reference the
/// determinism tests compare against.
///
//===----------------------------------------------------------------------===//

#ifndef DAECC_HARNESS_JOBPOOL_H
#define DAECC_HARNESS_JOBPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dae {
namespace harness {

/// Fixed-width pool of suite jobs with a shared sim-thread budget.
class JobPool {
public:
  /// \p Jobs concurrent jobs, each wanting \p SimThreadsPerJob functional
  /// threads. The effective per-job allowance is clamped so that
  /// Jobs * simThreadsPerJob() stays within the host budget (see
  /// hostThreadBudget()); with Jobs == 1 the request passes through.
  JobPool(unsigned Jobs, unsigned SimThreadsPerJob);
  ~JobPool();
  JobPool(const JobPool &) = delete;
  JobPool &operator=(const JobPool &) = delete;

  /// Sim threads each job's TaskRuntime should use.
  unsigned simThreadsPerJob() const { return SimThreads; }
  unsigned jobs() const { return NumJobs; }

  /// Enqueues a job. Safe to call from inside a running job.
  void submit(std::function<void()> Job);

  /// Blocks until the queue is empty and no job is running. With one job,
  /// this is where the queue is drained (inline, FIFO).
  void wait();

  /// Host threads available to the whole suite: DAECC_HOST_THREADS when set,
  /// otherwise std::thread::hardware_concurrency() — which the standard
  /// allows to return 0 ("not computable"); that is mapped to 1 here so no
  /// caller ever sees a zero budget.
  static unsigned hostThreadBudget();

  /// Pure clamp behind simThreadsPerJob(): the sim threads each of \p Jobs
  /// concurrent jobs gets from \p HostBudget, given a request of
  /// \p SimThreadsPerJob. Total never exceeds max(Jobs, HostBudget); every
  /// job always gets at least one thread — including on exotic hosts where
  /// the reported budget is 0, which can neither divide by zero nor clamp
  /// the allowance to 0 (the latent hardware_concurrency()==0 bug).
  static unsigned effectiveSimThreads(unsigned Jobs, unsigned SimThreadsPerJob,
                                      unsigned HostBudget);

private:
  void workerLoop();

  unsigned NumJobs;
  unsigned SimThreads;
  std::mutex Mutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllIdle;
  std::deque<std::function<void()>> Queue;
  unsigned Running = 0;
  bool Quit = false;
  std::vector<std::thread> Workers;
};

} // namespace harness
} // namespace dae

#endif // DAECC_HARNESS_JOBPOOL_H
