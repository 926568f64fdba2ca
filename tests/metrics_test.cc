// Tests for the observability layer (common/metrics.h, common/trace.h):
// sharded-counter exactness under concurrent writers with a live snapshot
// reader (run under the TSan CI job), histogram bucket boundaries and
// merge, registry instance registration/retirement, trace-span nesting and
// ring-buffer wrap, the bit-for-bit parity contract between the legacy
// stats structs (EstimationEngine::CacheStats, LazyAdvisorStats) and the
// registry counters that back them, and the coalescer's admission counts,
// which live only in the registry.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/search.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "datagen/table_gen.h"
#include "estimator/adaptive.h"
#include "estimator/coalesce.h"
#include "estimator/engine.h"
#include "estimator/service.h"
#include "storage/catalog.h"

namespace cfest {
namespace {

#ifdef CFEST_METRICS_DISABLED

// The compiled-out build keeps the API but drops all recording; the only
// contract left to pin is that nothing leaks through.
TEST(MetricsDisabledTest, RegistryAndTraceAreInert) {
  metrics::MetricRegistry::Global().GetCounter("cfest.test.off")->Increment();
  EXPECT_TRUE(metrics::MetricRegistry::Global().Snapshot().counters.empty());
  trace::SetEnabled(true);
  EXPECT_FALSE(trace::Enabled());
  { trace::Span span("off"); }
  EXPECT_EQ(trace::TotalStarted(), 0u);
}

#else

using metrics::MetricRegistry;
using metrics::MetricsSnapshot;

std::unique_ptr<Table> WorkloadTable(uint64_t rows = 20000, uint64_t seed = 7) {
  auto table = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::String("city", 24, 50, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(4, 20)),
       ColumnSpec::Integer("amount", 400)},
      rows, seed);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

CandidateConfiguration Candidate(const char* col, CompressionType type,
                                 const char* table_name = "") {
  CandidateConfiguration c;
  c.table_name = table_name;
  c.index = {std::string("ix_") + col + "_" + CompressionTypeName(type),
             {col},
             /*clustered=*/false};
  c.scheme = CompressionScheme::Uniform(type);
  c.benefit = 1.0;
  return c;
}

// ---------------------------------------------------------------------------
// Counter / registry concurrency
// ---------------------------------------------------------------------------

TEST(MetricsTest, CounterTotalsExactAcrossThreads) {
  metrics::Counter counter;
  constexpr int kThreads = 8;
  constexpr uint64_t kAddsPerThread = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter.Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kAddsPerThread);
}

TEST(MetricsTest, ConcurrentSnapshotReaderSeesMonotoneExactTotals) {
  // N writer threads hammer one registry counter while a reader snapshots
  // concurrently: every snapshot must be monotone (counters never move
  // backwards) and the final total exact. This is the TSan coverage for
  // the sharded write path racing the aggregating read path.
  const std::string name = "cfest.test.concurrent_snapshot";
  metrics::Counter* counter = MetricRegistry::Global().GetCounter(name);
  const uint64_t before = counter->Value();

  constexpr int kWriters = 4;
  constexpr uint64_t kAddsPerThread = 20000;
  std::atomic<bool> done{false};
  // Start barrier: writers wait for the reader's first snapshot, so the
  // reader always overlaps the writes (under load it could otherwise be
  // scheduled only after every writer finished and take no snapshot).
  std::atomic<bool> reader_started{false};
  uint64_t last_seen = before;
  uint64_t snapshots_taken = 0;
  std::thread reader([&] {
    do {
      const uint64_t seen =
          MetricRegistry::Global().Snapshot().CounterValue(name);
      EXPECT_GE(seen, last_seen);
      last_seen = seen;
      ++snapshots_taken;
      reader_started.store(true, std::memory_order_release);
    } while (!done.load(std::memory_order_relaxed));
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([counter, &reader_started] {
      while (!reader_started.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; i < kAddsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_GT(snapshots_taken, 0u);
  EXPECT_EQ(counter->Value() - before, kWriters * kAddsPerThread);
  EXPECT_EQ(MetricRegistry::Global().Snapshot().CounterValue(name) - before,
            kWriters * kAddsPerThread);
}

TEST(MetricsTest, RegistrationFoldsRetiredInstanceIntoSnapshot) {
  const std::string name = "cfest.test.instance_retire";
  const uint64_t before =
      MetricRegistry::Global().Snapshot().CounterValue(name);
  {
    metrics::Counter instance;
    auto registration =
        MetricRegistry::Global().RegisterCounters({{name, &instance}});
    instance.Add(41);
    // Live instance visible in the snapshot...
    EXPECT_EQ(MetricRegistry::Global().Snapshot().CounterValue(name) - before,
              41u);
    instance.Add(1);
  }
  // ...and its final value folded into the retired total on destruction.
  EXPECT_EQ(MetricRegistry::Global().Snapshot().CounterValue(name) - before,
            42u);
}

TEST(MetricsTest, GaugeSetAddAndSnapshot) {
  metrics::Gauge* gauge =
      MetricRegistry::Global().GetGauge("cfest.test.gauge");
  gauge->Set(7);
  gauge->Add(-3);
  EXPECT_EQ(gauge->Value(), 4);
  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.gauges.at("cfest.test.gauge"), 4);
}

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

TEST(MetricsTest, HistogramBucketBoundaries) {
  // Bucket 0 holds the value 0; bucket i holds [2^(i-1), 2^i - 1].
  EXPECT_EQ(metrics::HistogramBucketIndex(0), 0u);
  EXPECT_EQ(metrics::HistogramBucketIndex(1), 1u);
  EXPECT_EQ(metrics::HistogramBucketIndex(2), 2u);
  EXPECT_EQ(metrics::HistogramBucketIndex(3), 2u);
  EXPECT_EQ(metrics::HistogramBucketIndex(4), 3u);
  EXPECT_EQ(metrics::HistogramBucketIndex(1023), 10u);
  EXPECT_EQ(metrics::HistogramBucketIndex(1024), 11u);
  EXPECT_EQ(metrics::HistogramBucketIndex((1ull << 63) - 1), 63u);
  EXPECT_EQ(metrics::HistogramBucketIndex(1ull << 63), 64u);
  EXPECT_EQ(metrics::HistogramBucketIndex(~0ull), 64u);
  // Upper bounds bracket their bucket.
  EXPECT_EQ(metrics::HistogramBucketUpperBound(0), 0u);
  EXPECT_EQ(metrics::HistogramBucketUpperBound(1), 1u);
  EXPECT_EQ(metrics::HistogramBucketUpperBound(2), 3u);
  EXPECT_EQ(metrics::HistogramBucketUpperBound(11), 2047u);
  EXPECT_EQ(metrics::HistogramBucketUpperBound(64), ~0ull);
  for (uint64_t v : {0ull, 1ull, 7ull, 4096ull, ~0ull}) {
    const size_t b = metrics::HistogramBucketIndex(v);
    EXPECT_LE(v, metrics::HistogramBucketUpperBound(b));
    if (b > 0) {
      EXPECT_GT(v, metrics::HistogramBucketUpperBound(b - 1));
    }
  }
}

TEST(MetricsTest, HistogramRecordAndMerge) {
  metrics::Histogram h;
  h.Record(0);
  h.Record(1);
  h.Record(5);
  h.Record(5);
  metrics::HistogramData data = h.Data();
  EXPECT_EQ(data.count, 4u);
  EXPECT_EQ(data.sum, 11u);
  EXPECT_EQ(data.buckets[0], 1u);
  EXPECT_EQ(data.buckets[1], 1u);
  EXPECT_EQ(data.buckets[3], 2u);

  metrics::HistogramData other;
  other.count = 2;
  other.sum = 100;
  other.buckets[0] = 1;
  other.buckets[7] = 1;
  data.Merge(other);
  EXPECT_EQ(data.count, 6u);
  EXPECT_EQ(data.sum, 111u);
  EXPECT_EQ(data.buckets[0], 2u);
  EXPECT_EQ(data.buckets[3], 2u);
  EXPECT_EQ(data.buckets[7], 1u);
}

TEST(MetricsTest, QuantileEmptyHistogramIsZero) {
  metrics::HistogramData data;
  EXPECT_EQ(data.Quantile(0.5), 0.0);
  EXPECT_EQ(data.Quantile(0.99), 0.0);
}

TEST(MetricsTest, QuantileExactWhenBucketIsSingleValued) {
  // Buckets 0 ([0,0]) and 1 ([1,1]) hold exactly one value, so the
  // interpolation collapses and the quantile is exact.
  metrics::Histogram zeros;
  for (int i = 0; i < 10; ++i) zeros.Record(0);
  EXPECT_EQ(zeros.Quantile(0.5), 0.0);
  metrics::Histogram ones;
  for (int i = 0; i < 10; ++i) ones.Record(1);
  EXPECT_EQ(ones.Quantile(0.1), 1.0);
  EXPECT_EQ(ones.Quantile(0.99), 1.0);
}

TEST(MetricsTest, QuantileInterpolatesWithinBucketBounds) {
  // 50 values of 0 and 50 values in bucket 4 ([8, 15]).
  metrics::Histogram h;
  for (int i = 0; i < 50; ++i) h.Record(0);
  for (int i = 0; i < 50; ++i) h.Record(12);
  // p50 lands exactly at the end of the zero bucket.
  EXPECT_EQ(h.Quantile(0.5), 0.0);
  // p99's rank (99 of 100) falls inside bucket 4: the estimate must lie
  // within that bucket's range even though 12 is the only recorded value.
  const double p99 = h.Quantile(0.99);
  EXPECT_GE(p99, 8.0);
  EXPECT_LE(p99, 15.0);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Quantile(0.5), h.Quantile(0.9));
  EXPECT_LE(h.Quantile(0.9), h.Quantile(0.99));
  EXPECT_LE(h.Quantile(0.99), h.Quantile(1.0));
  // Out-of-range q clamps instead of reading past the buckets.
  EXPECT_EQ(h.Quantile(-1.0), h.Quantile(0.0));
  EXPECT_EQ(h.Quantile(2.0), h.Quantile(1.0));
}

TEST(MetricsTest, HistogramTotalsExactAcrossThreads) {
  metrics::Histogram h;
  constexpr int kThreads = 6;
  constexpr uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record(i & 1023);
    });
  }
  for (std::thread& t : threads) t.join();
  metrics::HistogramData data = h.Data();
  EXPECT_EQ(data.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : data.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, data.count);
}

TEST(MetricsTest, ScopedTimerRespectsTimingGate) {
  metrics::Histogram* h =
      MetricRegistry::Global().GetHistogram("cfest.test.timer_ns");
  const uint64_t before = h->Data().count;
  metrics::SetTimingEnabled(false);
  { metrics::ScopedTimer timer(h); }
  EXPECT_EQ(h->Data().count, before);
  metrics::SetTimingEnabled(true);
  { metrics::ScopedTimer timer(h); }
  EXPECT_EQ(h->Data().count, before + 1);
}

// ---------------------------------------------------------------------------
// Export formats
// ---------------------------------------------------------------------------

TEST(MetricsTest, SnapshotJsonAndPrometheusContainRegisteredNames) {
  MetricRegistry::Global().GetCounter("cfest.test.export")->Add(3);
  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("cfest.test.export"), std::string::npos);
  const std::string prom = snapshot.ToPrometheusText();
  EXPECT_NE(prom.find("cfest_test_export"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cfest_test_export counter"),
            std::string::npos);
}

TEST(MetricsTest, SnapshotExportsHistogramQuantiles) {
  metrics::Histogram* h =
      MetricRegistry::Global().GetHistogram("cfest.test.quantile_ns");
  for (int i = 0; i < 100; ++i) h->Record(static_cast<uint64_t>(i));
  MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  const std::string json = snapshot.ToJson();
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
  const std::string prom = snapshot.ToPrometheusText();
  EXPECT_NE(prom.find("cfest_test_quantile_ns_p50 "), std::string::npos);
  EXPECT_NE(prom.find("cfest_test_quantile_ns_p99 "), std::string::npos);
  EXPECT_NE(prom.find("# TYPE cfest_test_quantile_ns_p50 gauge"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Trace spans
// ---------------------------------------------------------------------------

TEST(TraceTest, DisabledSpansRecordNothing) {
  trace::Reset();
  trace::SetEnabled(false);
  { trace::Span span("test.disabled"); }
  EXPECT_EQ(trace::TotalStarted(), 0u);
  EXPECT_TRUE(trace::CollectRecords().empty());
}

TEST(TraceTest, NestedSpansCarryDepthAndContainment) {
  trace::Reset();
  trace::SetEnabled(true);
  {
    trace::Span outer("test.outer");
    {
      trace::Span inner("test.inner");
    }
  }
  trace::SetEnabled(false);
  std::vector<trace::SpanRecord> records = trace::CollectRecords();
  ASSERT_EQ(records.size(), 2u);
  // Completion order: inner first.
  EXPECT_STREQ(records[0].name, "test.inner");
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_STREQ(records[1].name, "test.outer");
  EXPECT_EQ(records[1].depth, 0u);
  // The child's interval lies inside the parent's.
  EXPECT_GE(records[0].start_ns, records[1].start_ns);
  EXPECT_LE(records[0].start_ns + records[0].duration_ns,
            records[1].start_ns + records[1].duration_ns);
}

TEST(TraceTest, RingBufferWrapKeepsMostRecentRecords) {
  trace::Reset();
  trace::SetRingCapacity(16);
  trace::SetEnabled(true);
  constexpr uint64_t kSpans = 100;
  for (uint64_t i = 0; i < kSpans; ++i) {
    trace::Span span("test.wrap");
  }
  trace::SetEnabled(false);
  EXPECT_EQ(trace::TotalStarted(), kSpans);
  std::vector<trace::SpanRecord> records = trace::CollectRecords();
  EXPECT_EQ(records.size(), 16u);
  // Oldest-first ordering within the retained window.
  for (size_t i = 1; i < records.size(); ++i) {
    EXPECT_GE(records[i].start_ns, records[i - 1].start_ns);
  }
  trace::Reset();
  trace::SetRingCapacity(trace::kDefaultRingCapacity);
  EXPECT_EQ(trace::TotalStarted(), 0u);
}

TEST(TraceTest, ChromeExportIsWellFormed) {
  trace::Reset();
  trace::SetEnabled(true);
  {
    trace::Span span("test.export");
  }
  trace::SetEnabled(false);
  const std::string json = trace::ExportChromeTraceJson();
  EXPECT_EQ(json.find("{\"traceEvents\":["), 0u);
  EXPECT_NE(json.find("\"name\":\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Legacy-stats parity: the compat structs and the registry must agree bit
// for bit, because they read the same Counter objects.
// ---------------------------------------------------------------------------

TEST(MetricsParityTest, EngineCacheStatsMatchesRegistryDeltas) {
  std::unique_ptr<Table> table = WorkloadTable();
  const MetricsSnapshot before = MetricRegistry::Global().Snapshot();

  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  EstimationEngine engine(*table, options);
  std::vector<CandidateConfiguration> candidates = {
      Candidate("status", CompressionType::kNullSuppression),
      Candidate("status", CompressionType::kDictionaryPage),
      Candidate("city", CompressionType::kRle)};
  auto epoch = engine.PinEpoch();
  ASSERT_TRUE(epoch.ok());
  for (const CandidateConfiguration& c : candidates) {
    ASSERT_TRUE(engine.EstimateAt(**epoch, c).ok());
  }
  const EstimationEngine::CacheStats stats = engine.cache_stats();

  const MetricsSnapshot after = MetricRegistry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("cfest.engine.samples_drawn"), stats.samples_drawn);
  EXPECT_EQ(delta("cfest.engine.index_builds"), stats.index_builds);
  EXPECT_EQ(delta("cfest.engine.index_cache_hits"), stats.index_cache_hits);
  EXPECT_EQ(delta("cfest.engine.index_extensions"), stats.index_extensions);
  EXPECT_EQ(delta("cfest.engine.lock_free_pins"), stats.lock_free_pins);
  EXPECT_EQ(delta("cfest.engine.locked_pins"), stats.locked_pins);
  EXPECT_EQ(delta("cfest.engine.epochs_published"), stats.epochs_published);
  EXPECT_GT(stats.samples_drawn, 0u);
  EXPECT_GT(stats.index_builds, 0u);
}

TEST(MetricsParityTest, CoalescerCountsAdmissionsInRegistry) {
  const MetricsSnapshot before = MetricRegistry::Global().Snapshot();
  RequestCoalescer coalescer;
  RequestCoalescer::Ticket a = coalescer.Admit("key1");
  RequestCoalescer::Ticket b = coalescer.Admit("key1");  // merges into a
  RequestCoalescer::Ticket c = coalescer.Admit("key2");
  EXPECT_TRUE(a.owner);
  EXPECT_FALSE(b.owner);
  EXPECT_TRUE(c.owner);
  coalescer.Complete("key1", SizingOutcome{});
  coalescer.Complete("key2", SizingOutcome{});
  const MetricsSnapshot after = MetricRegistry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("cfest.coalescer.requests"), 3u);
  EXPECT_EQ(delta("cfest.coalescer.admitted"), 2u);
  EXPECT_EQ(delta("cfest.coalescer.merged"), 1u);
}

TEST(MetricsParityTest, ConcurrentAdmissionsOfOneKeyShareOneOutcome) {
  // Eight clients ask for one key while its computation is in flight: one
  // is admitted and computes, seven merge into it. Complete runs only
  // after every Admit returned, so the counts do not depend on scheduling.
  constexpr size_t kClients = 8;
  const MetricsSnapshot before = MetricRegistry::Global().Snapshot();
  RequestCoalescer coalescer;
  std::vector<RequestCoalescer::Ticket> tickets(kClients);
  std::vector<std::thread> clients;
  for (size_t i = 0; i < kClients; ++i) {
    clients.emplace_back([&, i] { tickets[i] = coalescer.Admit("key"); });
  }
  for (std::thread& t : clients) t.join();

  size_t owners = 0;
  for (const RequestCoalescer::Ticket& t : tickets) owners += t.owner;
  EXPECT_EQ(owners, 1u);
  SizingOutcome outcome;
  outcome.sized.estimated_bytes = 4242;
  coalescer.Complete("key", outcome);
  const SizingOutcome* shared = &tickets[0].future.get();
  for (const RequestCoalescer::Ticket& t : tickets) {
    EXPECT_EQ(&t.future.get(), shared);
  }
  EXPECT_EQ(shared->sized.estimated_bytes, 4242u);

  const MetricsSnapshot after = MetricRegistry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("cfest.coalescer.requests"), kClients);
  EXPECT_EQ(delta("cfest.coalescer.admitted"), 1u);
  EXPECT_EQ(delta("cfest.coalescer.merged"), kClients - 1);
}

TEST(MetricsParityTest, LazyAdvisorStatsMatchesRegistryDeltas) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable()).ok());
  const MetricsSnapshot before = MetricRegistry::Global().Snapshot();

  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.01;
  options.num_threads = 1;
  CatalogEstimationService service(catalog, options);
  std::vector<CandidateConfiguration> candidates = {
      Candidate("status", CompressionType::kNullSuppression, "t"),
      Candidate("city", CompressionType::kDictionaryPage, "t"),
      Candidate("amount", CompressionType::kNullSuppression, "t"),
      Candidate("status", CompressionType::kNone, "t")};
  LazyAdvisorStats stats;
  auto rec = AdviseConfigurationsLazy(service, candidates,
                                      /*storage_bound=*/1ull << 40,
                                      PrecisionTarget{}, &stats);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(stats.candidates, candidates.size());
  EXPECT_GT(stats.nodes_visited, 0u);

  const MetricsSnapshot after = MetricRegistry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_EQ(delta("cfest.lazy.candidates"), stats.candidates);
  EXPECT_EQ(delta("cfest.lazy.refined"), stats.refined);
  EXPECT_EQ(delta("cfest.lazy.refine_rounds"), stats.refine_rounds);
  EXPECT_EQ(delta("cfest.lazy.nodes_visited"), stats.nodes_visited);
  EXPECT_EQ(delta("cfest.lazy.nodes_pruned"), stats.nodes_pruned);
  EXPECT_EQ(delta("cfest.lazy.total_rows_sized"), stats.total_rows_sized);
  EXPECT_EQ(delta("cfest.lazy.coarse_rows"), stats.coarse_rows);
}

// ---------------------------------------------------------------------------
// Per-candidate cumulative sizing attribution (the adaptive-loop fix)
// ---------------------------------------------------------------------------

TEST(MetricsParityTest, AdaptiveCumulativeRowsSizedSumsRoundsParticipated) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable()).ok());
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.005;
  options.num_threads = 1;
  CatalogEstimationService service(catalog, options);

  PrecisionTarget target;
  target.rel_error = 0.01;  // tight: forces several growth rounds
  target.min_rows = 100;
  std::vector<CandidateConfiguration> candidates = {
      Candidate("status", CompressionType::kNullSuppression, "t"),
      Candidate("city", CompressionType::kDictionaryPage, "t"),
      Candidate("status", CompressionType::kNone, "t")};
  auto batch = EstimateAllAdaptive(service, candidates, target);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->tables.size(), 1u);
  const std::vector<uint64_t>& rows_per_round =
      batch->tables[0].rows_per_round;
  ASSERT_GT(rows_per_round.size(), 1u)
      << "workload too easy: need multiple growth rounds";

  for (size_t i = 0; i < candidates.size(); ++i) {
    const AdaptiveCandidateResult& r = batch->candidates[i];
    if (IsUncompressedScheme(candidates[i].scheme)) {
      // Exact candidates never sample.
      EXPECT_EQ(r.cumulative_rows_sized, 0u);
      continue;
    }
    // A candidate estimated in rounds 1..k accumulates exactly the first k
    // round sizes — attribution that survives dropout, unlike rows_sampled
    // (the last round's sample only).
    ASSERT_GE(r.rounds, 1u);
    ASSERT_LE(r.rounds, rows_per_round.size());
    uint64_t expected = 0;
    for (uint32_t j = 0; j < r.rounds; ++j) expected += rows_per_round[j];
    EXPECT_EQ(r.cumulative_rows_sized, expected)
        << "candidate " << i << " participated in " << r.rounds
        << " round(s)";
    EXPECT_EQ(r.rows_sampled, rows_per_round[r.rounds - 1]);
    if (r.rounds > 1) {
      EXPECT_GT(r.cumulative_rows_sized, r.rows_sampled);
    }
  }
}

#endif  // CFEST_METRICS_DISABLED

}  // namespace
}  // namespace cfest
