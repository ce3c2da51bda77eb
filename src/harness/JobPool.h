//===- harness/JobPool.h - Suite-level job pool -----------------*- C++ -*-===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Host-thread pool for suite-level parallelism, the engine's one
/// parallelism axis: the experiment drivers submit independent simulation
/// jobs (one per app preparation or per-scheme run) and the pool executes
/// them on `--jobs=N` worker threads. Each simulation itself runs on the one
/// thread that picked its job. Jobs may submit further jobs (an app job fans
/// out its three scheme runs).
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

/// Fixed-width pool of suite jobs.
class JobPool {
public:
  /// \p Jobs concurrent jobs (0 is treated as 1).
  explicit JobPool(unsigned Jobs);
  ~JobPool();
  JobPool(const JobPool &) = delete;
  JobPool &operator=(const JobPool &) = delete;

  unsigned jobs() const { return NumJobs; }

  /// Enqueues a job. Safe to call from inside a running job.
  void submit(std::function<void()> Job);

  /// Blocks until the queue is empty and no job is running. With one job,
  /// this is where the queue is drained (inline, FIFO).
  void wait();

private:
  void workerLoop();

  unsigned NumJobs;
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
