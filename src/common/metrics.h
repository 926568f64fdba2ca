// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Process-wide metric registry: named counters, gauges, and log-bucketed
// latency histograms, exportable as one MetricsSnapshot (JSON or
// Prometheus text).
//
// Design constraints, in order:
//
//   1. The engine's steady-state read path must not gain shared-cacheline
//      writes. Counters and histograms are therefore sharded: each holds a
//      small power-of-two array of cache-line-aligned atomic cells, and a
//      thread adds to the cell picked by its (process-unique) thread
//      index. Aggregation happens at snapshot time, not on the hot path.
//   2. The stats structs (EstimationEngine::CacheStats, LazyAdvisorStats)
//      keep their exact semantics: they are backed by Counter objects and
//      read with Value(), so the struct and the registry report
//      bit-identical numbers by construction (tests/metrics_test.cc pins
//      this).
//   3. Component-local counter blocks (one per engine, per coalescer, per
//      lazy-advisor run) register under shared process-wide names. The
//      registry keeps raw pointers to live instances plus a per-child
//      "retired" total that absorbs an instance's final value when its
//      RAII Registration dies — so registry totals stay monotone and
//      exact across engine churn. The Registration member must be declared
//      AFTER the counters it registers (members destruct in reverse
//      order, so the handle folds values while the counters still exist).
//
// Labels: every metric name is a FAMILY of children keyed by a small fixed
// LabelSet (e.g. {table=lineitem} or {table=orders, scheme=rle}). The
// empty label set is the classic unlabeled child, so the label-free API is
// unchanged. Label resolution (string canonicalization + registry lookup)
// happens once, at instrumentation-site setup, when a child or an
// instance-block registration is obtained — the returned Counter/Gauge/
// Histogram pointers keep the exact lock-free sharded fast path. Snapshot
// aggregates every child (labeled, unlabeled, and retired) into the
// name-keyed maps, so the unlabeled aggregate view is bit-identical to a
// registry without labels; per-child values are exported alongside as
// labeled series (JSON `labeled_*` objects; Prometheus `name{k="v"}`
// samples next to the label-less aggregate sample).
//
// Naming scheme: `cfest.<component>.<metric>` (dots map to underscores in
// the Prometheus encoding). Counters count events; `*_ns` histograms hold
// nanosecond latencies.
//
// Timing (clock reads feeding histograms) is runtime-gated by
// SetTimingEnabled so the always-on cost is exactly the counter adds the
// legacy structs already paid for. Compiling with CFEST_METRICS_DISABLED
// shrinks every counter to a single cell, disables timing permanently, and
// makes snapshots empty — the "registry compiled out" baseline
// bench_observability compares against.

#ifndef CFEST_COMMON_METRICS_H_
#define CFEST_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/json_writer.h"
#include "common/mutex.h"

namespace cfest {
namespace metrics {

inline constexpr size_t kCacheLineBytes = 64;

/// Shards per sharded metric: a power of two, sized once from hardware
/// concurrency (1 when CFEST_METRICS_DISABLED).
size_t ShardCount();

/// Process-unique dense index of the calling thread (first call assigns).
inline size_t ThreadIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

/// One label dimension of a metric child: key/value pair. Keys should be
/// short fixed identifiers (`table`, `scheme`); values are free-form and
/// escaped by the exporters.
using Label = std::pair<std::string, std::string>;

/// A small fixed set of labels identifying one child of a metric family.
/// Order-insensitive: the registry canonicalizes by sorting on key, so
/// {{a,1},{b,2}} and {{b,2},{a,1}} name the same child. Empty = the
/// unlabeled child (the classic label-free API).
using LabelSet = std::vector<Label>;

/// \brief Monotone counter with per-thread sharded cells. Add is one
/// relaxed fetch_add on a cacheline owned (in steady state) by the calling
/// thread's shard; Value sums the cells.
class Counter {
 public:
  Counter();
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(uint64_t delta) {
    cells_[ThreadIndex() & mask_].value.fetch_add(delta,
                                                  std::memory_order_relaxed);
  }
  void Increment() { Add(1); }

  uint64_t Value() const {
    uint64_t total = 0;
    for (size_t i = 0; i <= mask_; ++i) {
      total += cells_[i].value.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  struct alignas(kCacheLineBytes) Cell {
    std::atomic<uint64_t> value{0};
  };
  size_t mask_ = 0;
  std::unique_ptr<Cell[]> cells_;
};

/// \brief Last-writer-wins signed gauge (queue depths, sizes). A single
/// atomic: gauges are written on enqueue/dequeue edges, not per-row.
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Histogram buckets: bucket 0 holds the value 0; bucket i (1..64) holds
/// values in [2^(i-1), 2^i - 1] — i.e. values whose bit width is i.
inline constexpr size_t kHistogramBuckets = 65;

size_t HistogramBucketIndex(uint64_t value);
/// Inclusive upper bound of bucket `index` (UINT64_MAX for the last).
uint64_t HistogramBucketUpperBound(size_t index);

/// \brief Aggregated histogram contents (a snapshot; plain data).
struct HistogramData {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::array<uint64_t, kHistogramBuckets> buckets{};

  void Merge(const HistogramData& other);

  /// Quantile estimate from the log2 buckets: a value v such that a
  /// fraction `q` of the recorded values is <= v, linearly interpolated
  /// within the bucket where the q-th rank lands. Buckets are exact only
  /// at their power-of-two boundaries, so the estimate's relative error is
  /// bounded by the bucket width (a factor of 2) — plenty for p50/p99
  /// latency dashboards, which is what the exported snapshots feed. `q`
  /// is clamped to [0, 1]; an empty histogram reports 0.
  double Quantile(double q) const;
};

/// \brief Log2-bucketed histogram with sharded cells, for latency-style
/// values (nanoseconds by convention; suffix names with `_ns`).
class Histogram {
 public:
  Histogram();
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(uint64_t value) {
    Shard& shard = shards_[ThreadIndex() & mask_];
    shard.count.fetch_add(1, std::memory_order_relaxed);
    shard.sum.fetch_add(value, std::memory_order_relaxed);
    shard.buckets[HistogramBucketIndex(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  HistogramData Data() const;

  /// Quantile over a fresh shard aggregation: Data().Quantile(q).
  double Quantile(double q) const { return Data().Quantile(q); }

 private:
  struct alignas(kCacheLineBytes) Shard {
    std::atomic<uint64_t> count{0};
    std::atomic<uint64_t> sum{0};
    std::array<std::atomic<uint64_t>, kHistogramBuckets> buckets{};
  };
  size_t mask_ = 0;
  std::unique_ptr<Shard[]> shards_;
};

/// Runtime gate for the clock reads that feed latency histograms and trace
/// spans. Counters are NOT gated (they back the legacy stats structs).
/// Always false under CFEST_METRICS_DISABLED.
bool TimingEnabled();
void SetTimingEnabled(bool enabled);

/// Monotonic nanoseconds (steady_clock), the histogram/trace time base.
inline uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// \brief Point-in-time aggregation of every registered metric.
///
/// The name-keyed maps hold the family AGGREGATES (every child — labeled,
/// unlabeled, retired — summed/merged), bit-identical to what a label-free
/// registry would report. The labeled_* maps list each labeled child
/// separately (families with no labeled children do not appear there).
struct MetricsSnapshot {
  struct LabeledCounter {
    LabelSet labels;
    uint64_t value = 0;
  };
  struct LabeledGauge {
    LabelSet labels;
    int64_t value = 0;
  };
  struct LabeledHistogram {
    LabelSet labels;
    HistogramData data;
  };

  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramData> histograms;

  std::map<std::string, std::vector<LabeledCounter>> labeled_counters;
  std::map<std::string, std::vector<LabeledGauge>> labeled_gauges;
  std::map<std::string, std::vector<LabeledHistogram>> labeled_histograms;

  /// Aggregate value of a counter family by name (0 when absent).
  uint64_t CounterValue(const std::string& name) const;

  /// Value of one labeled counter child (0 when absent). `labels` may be
  /// given in any order.
  uint64_t LabeledCounterValue(const std::string& name,
                               const LabelSet& labels) const;

  /// Nested JSON: {"counters": {...}, "gauges": {...},
  /// "histograms": {name: {count, sum, buckets, p50, p99}},
  /// "labeled_counters": {name: [{labels, value}]}, ...}.
  JsonWriter ToJsonWriter() const;
  std::string ToJson() const;

  /// Prometheus text exposition: `# HELP` + `# TYPE` per family, the
  /// label-less sample carrying the family aggregate, one `name{k="v"}`
  /// sample per labeled child (label values escaped per the exposition
  /// format), and histograms rendered as cumulative `_bucket{le="..."}`
  /// series plus `_p50`/`_p99` gauges. Dots in names become underscores.
  std::string ToPrometheusText() const;
};

/// \brief The process-wide (name, labels) → metric map.
///
/// Two registration styles:
///   - GetCounter/GetGauge/GetHistogram return a process-lifetime singleton
///     child for a (name, labels) pair (created on first request) — for
///     component-independent metrics like thread-pool or kernel-dispatch
///     counts. The label-free overloads are the unlabeled child.
///   - RegisterCounters attaches short(er)-lived instance counters (an
///     engine's EpochCounters block, one lazy run's stats block) to shared
///     names, optionally under a LabelSet (e.g. {table=X}). The snapshot
///     value of a child is singleton + live instances + retired total, so
///     it is monotone and exact across instance churn; the family
///     aggregate sums its children.
///
/// Thread-safe. Metric pointers returned by Get* are valid for the process
/// lifetime.
class MetricRegistry {
 public:
  static MetricRegistry& Global();

  Counter* GetCounter(const std::string& name);
  Counter* GetCounter(const std::string& name, const LabelSet& labels);
  Gauge* GetGauge(const std::string& name);
  Gauge* GetGauge(const std::string& name, const LabelSet& labels);
  Histogram* GetHistogram(const std::string& name);
  Histogram* GetHistogram(const std::string& name, const LabelSet& labels);

  /// RAII handle for a batch of instance-counter registrations; its
  /// destructor folds each counter's final Value into the child's retired
  /// total and detaches the pointers. Declare it after the counters it
  /// registers.
  class Registration {
   public:
    Registration() = default;
    Registration(Registration&& other) noexcept;
    Registration& operator=(Registration&& other) noexcept;
    ~Registration();

   private:
    friend class MetricRegistry;
    Registration(MetricRegistry* registry, std::string labels_key,
                 std::vector<std::pair<std::string, const Counter*>> counters)
        : registry_(registry),
          labels_key_(std::move(labels_key)),
          counters_(std::move(counters)) {}
    void Release();

    MetricRegistry* registry_ = nullptr;
    std::string labels_key_;
    std::vector<std::pair<std::string, const Counter*>> counters_;
  };

  [[nodiscard]] Registration RegisterCounters(
      std::vector<std::pair<std::string, const Counter*>> counters);

  /// Registers the batch as instances of each name's `labels` child — the
  /// per-table form of the instance-block pattern. One Registration covers
  /// one label set; a component spanning label values holds one block (and
  /// one Registration) per value.
  [[nodiscard]] Registration RegisterCounters(
      const LabelSet& labels,
      std::vector<std::pair<std::string, const Counter*>> counters);

  /// Empty under CFEST_METRICS_DISABLED; otherwise every known name.
  MetricsSnapshot Snapshot() const;

 private:
  MetricRegistry() = default;
  void Retire(const std::string& labels_key,
              const std::vector<std::pair<std::string, const Counter*>>&
                  counters);

  /// One child of a counter family: the (name, labels) singleton plus any
  /// registered instance blocks and their retired totals.
  struct CounterChild {
    LabelSet labels;  // canonical (sorted) form
    std::unique_ptr<Counter> owned;
    uint64_t retired = 0;
    std::vector<const Counter*> instances;
  };
  struct GaugeChild {
    LabelSet labels;
    std::unique_ptr<Gauge> gauge;
  };
  struct HistogramChild {
    LabelSet labels;
    std::unique_ptr<Histogram> histogram;
  };
  /// Children are keyed by the canonical label encoding ("" = unlabeled).
  template <typename Child>
  struct Family {
    std::map<std::string, Child> children;
  };

  mutable Mutex mu_;
  std::map<std::string, Family<CounterChild>> counters_ GUARDED_BY(mu_);
  std::map<std::string, Family<GaugeChild>> gauges_ GUARDED_BY(mu_);
  std::map<std::string, Family<HistogramChild>> histograms_ GUARDED_BY(mu_);
};

/// \brief Stopwatch that records its lifetime into a histogram when timing
/// is enabled (and reads no clock otherwise).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram* histogram)
      : histogram_(TimingEnabled() ? histogram : nullptr),
        start_(histogram_ != nullptr ? NowNanos() : 0) {}
  ~ScopedTimer() {
    if (histogram_ != nullptr) histogram_->Record(NowNanos() - start_);
  }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram* histogram_;
  uint64_t start_;
};

}  // namespace metrics
}  // namespace cfest

#endif  // CFEST_COMMON_METRICS_H_
