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
#include <numeric>
#include <queue>
#include <span>
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
  /// Iterations may run in any order and concurrently, but are claimed in
  /// index order, so a caller that wants some work started first lists it
  /// first.
  ///
  /// The caller runs iterations too, and the call queues one drain for
  /// every free worker, never more than n - 1: `num_threads` drains when
  /// the caller is not a worker of this pool, `num_threads - 1` when it is
  /// (a nested call, whose own worker is the caller). A call from outside
  /// the pool therefore runs on num_threads + 1 threads.
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

/// Runs body(order[0]), body(order[1]), ... — serially when `pool` is
/// null or there are fewer than two, across the pool otherwise, claimed in
/// `order` — always completing every iteration, then returns the first
/// non-OK Status by index (not by position in `order`, nor by completion,
/// so the outcome is independent of both the start order and scheduling).
/// The batch-estimation fan-outs (CatalogEstimationService, the adaptive
/// and lazy-advisor passes) share this shape; the candidate fan-outs pass
/// KeySetInterleavedOrder (estimator/engine.h) as `order`.
template <typename Body>
Status StatusParallelFor(ThreadPool* pool, std::span<const size_t> order,
                         const Body& body) {
  std::vector<Status> statuses(order.size(), Status::OK());
  auto run_one = [&](uint64_t k) { statuses[k] = body(order[k]); };
  if (pool == nullptr || order.size() < 2) {
    for (uint64_t k = 0; k < order.size(); ++k) run_one(k);
  } else {
    pool->ParallelFor(order.size(), run_one);
  }
  size_t first = order.size();  // position of the lowest failing index
  for (size_t k = 0; k < order.size(); ++k) {
    if (!statuses[k].ok() &&
        (first == order.size() || order[k] < order[first])) {
      first = k;
    }
  }
  return first == order.size() ? Status::OK() : statuses[first];
}

/// StatusParallelFor over body(0..n-1) in index order.
template <typename Body>
Status StatusParallelFor(ThreadPool* pool, uint64_t n, const Body& body) {
  std::vector<size_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), size_t{0});
  return StatusParallelFor(pool, std::span<const size_t>(order), body);
}

}  // namespace cfest

#endif  // CFEST_COMMON_THREAD_POOL_H_
