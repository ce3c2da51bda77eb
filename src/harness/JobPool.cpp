//===- harness/JobPool.cpp - Suite-level job pool --------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/JobPool.h"

#include "support/EnvParse.h"

#include <algorithm>

using namespace dae;
using namespace dae::harness;

unsigned JobPool::hostThreadBudget() {
  // Garbage DAECC_HOST_THREADS used to be silently ignored (atoi), quietly
  // handing the sweep a different budget than it asked for; it is now the
  // same exit-2 hard error as every other DAECC_* integer knob.
  unsigned HW = std::thread::hardware_concurrency();
  return support::envUnsignedOr("DAECC_HOST_THREADS", HW ? HW : 1);
}

unsigned JobPool::effectiveSimThreads(unsigned Jobs, unsigned SimThreadsPerJob,
                                      unsigned HostBudget) {
  Jobs = std::max(1u, Jobs);
  SimThreadsPerJob = std::max(1u, SimThreadsPerJob);
  if (Jobs == 1)
    return SimThreadsPerJob;
  // Shared budget: never let Jobs * SimThreads exceed the host, but always
  // grant each job at least one thread (jobs themselves are the coarser and
  // better-scaling axis, so they win ties). A zero HostBudget — the value
  // hardware_concurrency() returns when the host can't report one — degrades
  // to one thread per job rather than dividing by zero.
  unsigned Budget = std::max(Jobs, HostBudget);
  return std::clamp(std::max(1u, Budget / Jobs), 1u, SimThreadsPerJob);
}

JobPool::JobPool(unsigned Jobs, unsigned SimThreadsPerJob)
    : NumJobs(std::max(1u, Jobs)),
      SimThreads(effectiveSimThreads(Jobs, SimThreadsPerJob,
                                     hostThreadBudget())) {
  if (NumJobs > 1) {
    Workers.reserve(NumJobs);
    for (unsigned I = 0; I != NumJobs; ++I)
      Workers.emplace_back([this] { workerLoop(); });
  }
}

JobPool::~JobPool() {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Quit = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &T : Workers)
    T.join();
}

void JobPool::submit(std::function<void()> Job) {
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    Queue.push_back(std::move(Job));
  }
  WorkAvailable.notify_one();
}

void JobPool::wait() {
  if (Workers.empty()) {
    // Sequential mode: drain inline. Jobs may enqueue more jobs; FIFO order
    // makes this the canonical sequential reference.
    for (;;) {
      std::function<void()> Job;
      {
        std::lock_guard<std::mutex> Lock(Mutex);
        if (Queue.empty())
          return;
        Job = std::move(Queue.front());
        Queue.pop_front();
      }
      Job();
    }
  }
  std::unique_lock<std::mutex> Lock(Mutex);
  AllIdle.wait(Lock, [this] { return Queue.empty() && Running == 0; });
}

void JobPool::workerLoop() {
  for (;;) {
    std::function<void()> Job;
    {
      std::unique_lock<std::mutex> Lock(Mutex);
      WorkAvailable.wait(Lock, [this] { return Quit || !Queue.empty(); });
      if (Queue.empty())
        return; // Quit and drained.
      Job = std::move(Queue.front());
      Queue.pop_front();
      ++Running;
    }
    Job();
    {
      std::lock_guard<std::mutex> Lock(Mutex);
      --Running;
      if (Queue.empty() && Running == 0)
        AllIdle.notify_all();
    }
  }
}
