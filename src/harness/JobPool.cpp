//===- harness/JobPool.cpp - Suite-level job pool --------------------------===//
//
// Part of daecc. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "harness/JobPool.h"

#include <algorithm>

using namespace dae;
using namespace dae::harness;

JobPool::JobPool(unsigned Jobs) : NumJobs(std::max(1u, Jobs)) {
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
