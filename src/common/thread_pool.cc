#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/metrics.h"
#include "common/trace.h"

namespace cfest {
namespace {

/// Process-wide pool metrics (all pools share them: the observability
/// question is "how busy is task execution", not "which pool").
struct PoolMetrics {
  metrics::Counter* tasks =
      metrics::MetricRegistry::Global().GetCounter("cfest.threadpool.tasks");
  metrics::Gauge* queue_depth = metrics::MetricRegistry::Global().GetGauge(
      "cfest.threadpool.queue_depth");
  metrics::Histogram* task_ns = metrics::MetricRegistry::Global().GetHistogram(
      "cfest.threadpool.task_ns");
};

PoolMetrics& Metrics() {
  static PoolMetrics* metrics = new PoolMetrics();  // never destroyed
  return *metrics;
}

/// The pool whose WorkerLoop runs on this thread (null on threads no pool
/// owns), so ParallelFor can tell a nested call from an outside one.
thread_local const ThreadPool* current_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(uint32_t num_threads) {
  num_threads = ResolveThreadCount(num_threads);
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    while (in_flight_ != 0) all_done_.Wait(mu_);
    shutting_down_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  Metrics().queue_depth->Add(1);
  task_ready_.NotifyOne();
}

void ThreadPool::SubmitBatch(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  {
    MutexLock lock(mu_);
    for (std::function<void()>& task : tasks) tasks_.push(std::move(task));
    in_flight_ += tasks.size();
  }
  Metrics().queue_depth->Add(static_cast<int64_t>(tasks.size()));
  task_ready_.NotifyAll();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::ParallelFor(uint64_t n,
                             const std::function<void(uint64_t)>& body) {
  if (n == 0) return;
  // One drain per free worker: every worker when the caller is outside the
  // pool, all but the caller's own worker when the call is nested.
  const uint64_t free_workers = num_threads() - (current_pool == this ? 1 : 0);
  const uint64_t drains = std::min<uint64_t>(n - 1, free_workers);
  if (drains == 0) {
    for (uint64_t i = 0; i < n; ++i) body(i);
    return;
  }
  // The calling thread participates: it drains the same shared counter so a
  // ParallelFor never deadlocks even if every worker is busy elsewhere.
  // State lives in one shared block because queued drains may still be
  // running their final iteration when the caller wakes up and returns.
  struct SharedState {
    std::atomic<uint64_t> next{0};
    Mutex mu;
    CondVar all_done;
    uint64_t done GUARDED_BY(mu) = 0;
  };
  auto state = std::make_shared<SharedState>();
  auto drain = [state, n, &body] {
    uint64_t completed = 0;
    for (uint64_t i = state->next++; i < n; i = state->next++) {
      body(i);
      ++completed;
    }
    if (completed == 0) return;
    MutexLock lock(state->mu);
    state->done += completed;
    if (state->done == n) state->all_done.NotifyAll();
  };
  SubmitBatch(std::vector<std::function<void()>>(drains, drain));
  drain();
  MutexLock lock(state->mu);
  while (state->done != n) state->all_done.Wait(state->mu);
}

void ThreadPool::WorkerLoop() {
  current_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) return;  // shutting down
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    Metrics().queue_depth->Add(-1);
    Metrics().tasks->Increment();
    {
      trace::Span span("threadpool.task");
      metrics::ScopedTimer timer(Metrics().task_ns);
      task();
    }
    {
      MutexLock lock(mu_);
      --in_flight_;
    }
    all_done_.NotifyAll();
  }
}

}  // namespace cfest
