// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// A small fixed-size worker pool for fanning independent estimation work
// across cores. The advisor stack sizes dozens of candidate configurations
// per request; each candidate is CPU-bound (index build + compression on the
// sample) and shares only read-only state, so a plain task queue is all the
// machinery needed. Callers that require determinism must make each task's
// output depend only on its own inputs (e.g. a per-task forked RNG), never
// on execution order — ParallelFor writes results by index for exactly this
// reason.

#ifndef CFEST_COMMON_THREAD_POOL_H_
#define CFEST_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "common/status.h"

namespace cfest {

/// \brief Fixed set of worker threads draining a FIFO task queue.
class ThreadPool {
 public:
  /// num_threads == 0 picks std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(uint32_t num_threads = 0);

  /// The worker count `num_threads` resolves to — the constructor's
  /// "0 = hardware concurrency" rule, exposed so reports can print the
  /// actual count without duplicating the policy.
  static uint32_t ResolveThreadCount(uint32_t num_threads) {
    if (num_threads > 0) return num_threads;
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  /// Blocks until all submitted tasks have finished, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  uint32_t num_threads() const {
    return static_cast<uint32_t>(workers_.size());
  }

  /// Enqueues a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueues a batch of tasks under one lock acquisition and one
  /// wake-all. The fan-out paths (ParallelFor, the estimation services)
  /// use this instead of N Submit calls, which would take the queue lock
  /// and signal the condition variable once per task.
  void SubmitBatch(std::vector<std::function<void()>> tasks);

  /// Blocks until every task submitted so far has completed.
  void Wait();

  /// Runs body(0..n-1) across the pool and blocks until all complete.
  /// Iterations may run in any order and concurrently.
  ///
  /// Nesting is supported: a body may call ParallelFor on the same pool.
  /// The caller drains its own range before it waits, so it only ever
  /// waits for iterations another thread has already claimed and is
  /// running; the drains it queued need no free worker to finish, and one
  /// that runs after the range is exhausted finds no work and returns at
  /// once. A nested call therefore completes even when every worker is
  /// busy, and idle workers pick up the inner iterations when there are
  /// any.
  void ParallelFor(uint64_t n, const std::function<void(uint64_t)>& body);

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar task_ready_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  uint64_t in_flight_ GUARDED_BY(mu_) = 0;  // queued + running
  bool shutting_down_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Runs body(0..n-1) — serially when `pool` is null or n < 2, across the
/// pool otherwise — always completing every iteration, then returns the
/// first non-OK Status in index order (not completion order, so the
/// outcome is independent of scheduling). The batch-estimation fan-outs
/// (EstimationEngine / CatalogEstimationService) share this shape.
template <typename Body>
Status StatusParallelFor(ThreadPool* pool, uint64_t n, const Body& body) {
  std::vector<Status> statuses(n, Status::OK());
  auto run_one = [&](uint64_t i) { statuses[i] = body(i); };
  if (pool == nullptr || n < 2) {
    for (uint64_t i = 0; i < n; ++i) run_one(i);
  } else {
    pool->ParallelFor(n, run_one);
  }
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

}  // namespace cfest

#endif  // CFEST_COMMON_THREAD_POOL_H_
