// Tests for the EstimationEngine stack: TableView zero-copy sampling,
// the descriptor-level sample-index cache, epoch-pinned vs single-shot
// estimate equality, service fan-out determinism, and the engine-backed
// consumers.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "advisor/what_if.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "common/trace.h"
#include "datagen/table_gen.h"
#include "estimator/engine.h"
#include "estimator/hybrid.h"
#include "estimator/sample_cf.h"
#include "estimator/scheme_advisor.h"
#include "estimator/service.h"
#include "sampling/sampler.h"
#include "storage/catalog.h"
#include "storage/table_view.h"

namespace cfest {
namespace {

std::unique_ptr<Table> WorkloadTable() {
  auto table = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::String("city", 24, 50, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(4, 20)),
       ColumnSpec::Integer("amount", 400)},
      20000, 7);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

std::vector<CandidateConfiguration> Candidates() {
  const std::vector<CompressionType> schemes = {
      CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
      CompressionType::kRle, CompressionType::kPrefix};
  std::vector<CandidateConfiguration> candidates;
  for (const char* col : {"status", "city", "amount"}) {
    for (CompressionType type : schemes) {
      CandidateConfiguration c;
      c.table_name = "workload";
      c.index = {std::string("ix_") + col + "_" + CompressionTypeName(type),
                 {col},
                 /*clustered=*/false};
      c.scheme = CompressionScheme::Uniform(type);
      c.benefit = 1.0;
      candidates.push_back(std::move(c));
    }
  }
  // One uncompressed and one multi-column candidate for coverage.
  CandidateConfiguration none;
  none.table_name = "workload";
  none.index = {"ix_status_none", {"status"}, false};
  none.scheme = CompressionScheme::Uniform(CompressionType::kNone);
  candidates.push_back(std::move(none));
  CandidateConfiguration multi;
  multi.table_name = "workload";
  multi.index = {"ix_city_status", {"city", "status"}, false};
  multi.scheme = CompressionScheme::Uniform(CompressionType::kRle);
  multi.benefit = 2.0;
  candidates.push_back(std::move(multi));
  return candidates;
}

// ---------------------------------------------------------------------------
// TableView
// ---------------------------------------------------------------------------

TEST(TableViewTest, RoundTripsRowsByteIdenticallyVsMaterialize) {
  auto table = WorkloadTable();
  Random rng(11);
  auto sampler = MakeUniformWithReplacementSampler();
  auto ids = sampler->SampleIds(*table, 0.02, &rng);
  ASSERT_TRUE(ids.ok());

  auto materialized = MaterializeSample(*table, *ids);
  ASSERT_TRUE(materialized.ok());
  auto view = TableView::Make(*table, *ids);
  ASSERT_TRUE(view.ok());

  ASSERT_EQ((*view)->num_rows(), (*materialized)->num_rows());
  EXPECT_EQ((*view)->row_width(), (*materialized)->row_width());
  EXPECT_EQ((*view)->data_bytes(), (*materialized)->data_bytes());
  for (RowId i = 0; i < (*view)->num_rows(); ++i) {
    Slice a = (*view)->row(i);
    Slice b = (*materialized)->row(i);
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size())) << "row " << i;
  }
}

TEST(TableViewTest, RejectsOutOfRangeIds) {
  auto table = WorkloadTable();
  auto view = TableView::Make(*table, {0, 1, table->num_rows()});
  EXPECT_FALSE(view.ok());
}

TEST(TableViewTest, SampleViewMatchesSampleIdsForSameSeed) {
  auto table = WorkloadTable();
  auto sampler = MakeUniformWithReplacementSampler();
  Random rng_ids(3), rng_view(3);
  auto ids = sampler->SampleIds(*table, 0.01, &rng_ids);
  auto view = sampler->SampleView(*table, 0.01, &rng_view);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(*ids, (*view)->row_ids());
}

// ---------------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(4u, pool.num_threads());
  std::vector<std::atomic<int>> touched(1000);
  pool.ParallelFor(1000, [&](uint64_t i) { ++touched[i]; });
  for (const auto& t : touched) EXPECT_EQ(1, t.load());
}

TEST(ThreadPoolTest, NestedParallelForRunsEveryPairOnceAndReturns) {
  // More outer items than workers, so every worker runs an outer body that
  // fans out again on the same pool while the others are busy; the call
  // must still return (each caller drains its own range) and run every
  // (i, j) exactly once.
  constexpr uint64_t kOuter = 24;
  constexpr uint64_t kInner = 9;
  for (uint32_t workers : {2u, 4u}) {
    ThreadPool pool(workers);
    std::vector<std::atomic<int>> touched(kOuter * kInner);
    pool.ParallelFor(kOuter, [&](uint64_t i) {
      pool.ParallelFor(kInner, [&](uint64_t j) { ++touched[i * kInner + j]; });
    });
    for (const auto& t : touched) EXPECT_EQ(1, t.load()) << workers;
  }
}

TEST(ThreadPoolTest, ParallelForFromOutsideUsesEveryWorker) {
  // Three iterations that each wait for all three at a barrier finish only
  // if the caller and both workers run one each at the same time. The wait
  // is bounded, so a fan-out that leaves a worker idle fails, not hangs.
  ThreadPool pool(2);
  std::atomic<int> arrived{0};
  std::atomic<int> timed_out{0};
  pool.ParallelFor(3, [&](uint64_t) {
    ++arrived;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < 3) {
      if (std::chrono::steady_clock::now() > deadline) {
        ++timed_out;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  EXPECT_EQ(0, timed_out.load());
}

TEST(ThreadPoolTest, ParallelForQueuesOneDrainPerFreeWorker) {
  // Every task a worker runs bumps cfest.threadpool.tasks, so once the
  // pool is idle its delta counts the drains a ParallelFor queued: one per
  // free worker, at most n - 1 (the caller drains too).
  metrics::Counter* tasks =
      metrics::MetricRegistry::Global().GetCounter("cfest.threadpool.tasks");
  for (uint32_t workers : {1u, 2u, 4u}) {
    ThreadPool pool(workers);
    for (uint64_t n : {1u, 2u, 3u, 8u}) {
      const std::string where =
          std::to_string(workers) + " workers, n = " + std::to_string(n);
      uint64_t before = tasks->Value();
      pool.ParallelFor(n, [](uint64_t) {});
      pool.Wait();
      EXPECT_EQ(std::min<uint64_t>(workers, n - 1), tasks->Value() - before)
          << "outside call, " << where;

      // Nested: the caller is a worker, so one fewer is free. The delta
      // includes the submitted task itself.
      before = tasks->Value();
      pool.Submit([&] { pool.ParallelFor(n, [](uint64_t) {}); });
      pool.Wait();
      EXPECT_EQ(1 + std::min<uint64_t>(workers - 1, n - 1),
                tasks->Value() - before)
          << "nested call, " << where;
    }
  }
}

TEST(ThreadPoolTest, SubmitAndWaitDrainsAllTasks) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.Submit([&] { ++count; });
  pool.Wait();
  EXPECT_EQ(100, count.load());
}

/// Pins the engine's current epoch, drawing the sample on first use.
std::shared_ptr<const SampleEpoch> Pin(EstimationEngine& engine) {
  auto epoch = engine.PinEpoch();
  EXPECT_TRUE(epoch.ok());
  return std::move(epoch).ValueOrDie();
}

/// The serial reference: every candidate sized at one pinned epoch.
std::vector<SizedCandidate> EstimateSerially(
    EstimationEngine& engine,
    const std::vector<CandidateConfiguration>& candidates) {
  const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);
  std::vector<SizedCandidate> sized;
  for (const CandidateConfiguration& c : candidates) {
    auto one = engine.EstimateAt(*epoch, c);
    EXPECT_TRUE(one.ok()) << c.index.name;
    sized.push_back(std::move(one).ValueOrDie());
  }
  return sized;
}

// ---------------------------------------------------------------------------
// EstimationEngine: batch equals single-shot SampleCF
// ---------------------------------------------------------------------------

TEST(EngineTest, PinnedEstimatesMatchPerCandidateSampleCF) {
  auto table = WorkloadTable();
  auto candidates = Candidates();
  constexpr uint64_t kSeed = 42;

  // EstimateAt sizes in pages, which snap a 400-row sample's CF' to a few
  // page ratios whatever rows were drawn; the data-bytes metric tells one
  // sample from another.
  for (const SizeMetric metric :
       {SizeMetric::kPageBytes, SizeMetric::kDataBytes}) {
    SampleCFOptions options;
    options.fraction = 0.02;
    options.metric = metric;

    EstimationEngineOptions engine_options;
    engine_options.base = options;
    engine_options.seed = kSeed;
    EstimationEngine engine(*table, engine_options);
    const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);

    for (const CandidateConfiguration& c : candidates) {
      auto sized = engine.EstimateAt(*epoch, c);
      ASSERT_TRUE(sized.ok());
      if (c.scheme.default_type == CompressionType::kNone) {
        EXPECT_EQ(1.0, sized->estimated_cf);
        EXPECT_EQ(sized->uncompressed_bytes, sized->estimated_bytes);
        continue;
      }
      Random rng(kSeed);
      auto single = SampleCF(*table, c.index, c.scheme, options, &rng);
      ASSERT_TRUE(single.ok());
      auto pinned = engine.EstimateCFAt(*epoch, c.index, c.scheme);
      ASSERT_TRUE(pinned.ok());
      EXPECT_EQ(single->cf.value, pinned->cf.value) << c.index.name;
      if (metric == SizeMetric::kPageBytes) {
        EXPECT_EQ(single->cf.value, sized->estimated_cf) << c.index.name;
      }
    }
    EXPECT_EQ(1u, engine.cache_stats().samples_drawn);
  }
}

TEST(EngineTest, EstimateCFMatchesSampleCFResultFields) {
  auto table = WorkloadTable();
  constexpr uint64_t kSeed = 9;
  IndexDescriptor desc{"ix", {"city"}, false};
  CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryPage);

  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto batch = engine.EstimateCFAt(*Pin(engine), desc, scheme);
  ASSERT_TRUE(batch.ok());

  Random rng(kSeed);
  SampleCFOptions options;
  options.fraction = 0.02;
  auto single = SampleCF(*table, desc, scheme, options, &rng);
  ASSERT_TRUE(single.ok());

  EXPECT_EQ(single->cf.value, batch->cf.value);
  EXPECT_EQ(single->sample_rows, batch->sample_rows);
  EXPECT_EQ(single->sample_dictionary_entries,
            batch->sample_dictionary_entries);
  EXPECT_EQ(single->sample_compressed.page_bytes(),
            batch->sample_compressed.page_bytes());
}

// ---------------------------------------------------------------------------
// EstimationEngine: caching
// ---------------------------------------------------------------------------

TEST(EngineTest, IndexBuildCacheIsHitAcrossSchemes) {
  auto table = WorkloadTable();
  auto candidates = Candidates();  // 4 key sets, 14 candidates
  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  EstimationEngine engine(*table, engine_options);
  const std::vector<SizedCandidate> sized = EstimateSerially(engine, candidates);

  const EstimationEngine::CacheStats stats = engine.cache_stats();
  EXPECT_EQ(1u, stats.samples_drawn);
  // 13 compressed candidates over 4 distinct key sets (the kNone candidate
  // never touches the sample).
  EXPECT_EQ(4u, stats.index_builds);
  EXPECT_EQ(9u, stats.index_cache_hits);

  // A second batch over the same candidates is served entirely from cache.
  const std::vector<SizedCandidate> again = EstimateSerially(engine, candidates);
  const EstimationEngine::CacheStats stats2 = engine.cache_stats();
  EXPECT_EQ(1u, stats2.samples_drawn);
  EXPECT_EQ(4u, stats2.index_builds);
  EXPECT_EQ(22u, stats2.index_cache_hits);
  for (size_t i = 0; i < sized.size(); ++i) {
    EXPECT_EQ(sized[i].estimated_cf, again[i].estimated_cf);
  }
}

TEST(EngineTest, DescriptorNameDoesNotDefeatTheCache) {
  auto table = WorkloadTable();
  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  EstimationEngine engine(*table, engine_options);
  const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);
  auto build = [&](IndexDescriptor descriptor) {
    return engine.SampleIndexAt(*epoch, descriptor).ok();
  };
  ASSERT_TRUE(build(IndexDescriptor{"a", {"city"}, false}));
  ASSERT_TRUE(build(IndexDescriptor{"b", {"city"}, false}));
  EXPECT_EQ(1u, engine.cache_stats().index_builds);
  EXPECT_EQ(1u, engine.cache_stats().index_cache_hits);

  // Clustered vs non-clustered and different key order are distinct builds.
  ASSERT_TRUE(build(IndexDescriptor{"c", {"city"}, true}));
  ASSERT_TRUE(build(IndexDescriptor{"d", {"status", "city"}, false}));
  ASSERT_TRUE(build(IndexDescriptor{"e", {"city", "status"}, false}));
  EXPECT_EQ(4u, engine.cache_stats().index_builds);
}

TEST(EngineTest, ConcurrentFirstReadsOfACarriedKeyShareOnePatch) {
  auto table = WorkloadTable();
  EstimationEngineOptions engine_options;
  engine_options.base.fraction = 0.02;
  EstimationEngine engine(*table, engine_options);
  const IndexDescriptor desc{"ix", {"city", "status"}, false};
  ASSERT_TRUE(engine.SampleIndexAt(*Pin(engine), desc).ok());
  auto grown = engine.GrowSampleToEpoch(3000);
  ASSERT_TRUE(grown.ok());
  const EstimationEngine::CacheStats before = engine.cache_stats();

  // Every thread makes the first read of the carried key at once.
  constexpr int kThreads = 8;
  std::vector<std::shared_ptr<const Index>> served(kThreads);
  std::atomic<int> arrived{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      auto index = engine.SampleIndexAt(**grown, desc);
      if (index.ok()) served[t] = *index;
    });
  }
  for (std::thread& thread : threads) thread.join();

  const EstimationEngine::CacheStats after = engine.cache_stats();
  EXPECT_EQ(before.index_extensions + 1, after.index_extensions);
  EXPECT_EQ(before.index_builds, after.index_builds);
  EXPECT_EQ(before.invalidations, after.invalidations);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(nullptr, served[t]) << "thread " << t;
    EXPECT_EQ(served[0].get(), served[t].get()) << "thread " << t;
  }
  Result<Index> built =
      Index::Build((*grown)->sample(), desc, engine_options.base.build);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(built->num_rows(), served[0]->num_rows());
  EXPECT_EQ(built->stats().leaf_used_bytes, served[0]->stats().leaf_used_bytes);
  for (uint64_t i = 0; i < built->num_rows(); ++i) {
    Slice a = built->row(i);
    Slice b = served[0]->row(i);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size())) << "row " << i;
  }
}

TEST(EngineTest, WaitingOnAnotherThreadsBuildIsTracedAndReadyHitsAreNot) {
  trace::Reset();
  trace::SetEnabled(true);
  // A ready build: no span.
  std::promise<int> ready;
  ready.set_value(1);
  WaitForSharedBuild(ready.get_future().share());
  EXPECT_EQ(0u, trace::TotalStarted());

  // A build still running when the waiter arrives: one span. The waiter
  // cannot signal that it is past its readiness check, so the build
  // completes after a delay, longer on each retry.
  for (int delay_ms : {20, 200, 2000}) {
    std::promise<int> running;
    std::shared_future<int> build = running.get_future().share();
    std::thread waiter([&] { WaitForSharedBuild(build); });
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    running.set_value(1);
    waiter.join();
    if (trace::TotalStarted() != 0) break;
  }
  trace::SetEnabled(false);
  const std::vector<trace::SpanRecord> records = trace::CollectRecords();
  ASSERT_EQ(1u, records.size());
  EXPECT_STREQ("engine.index_wait", records[0].name);
  trace::Reset();
}

// ---------------------------------------------------------------------------
// Candidate fan-out order
// ---------------------------------------------------------------------------

CandidateConfiguration KeySetCandidate(const std::string& table,
                                       std::vector<std::string> keys,
                                       CompressionType type,
                                       bool clustered = false) {
  CandidateConfiguration c;
  c.table_name = table;
  c.index = {"ix_" + std::to_string(static_cast<int>(type)), std::move(keys),
             clustered};
  c.scheme = CompressionScheme::Uniform(type);
  return c;
}

/// The (table, key set) a candidate's sample index is cached under.
std::string KeySetOf(const CandidateConfiguration& c) {
  return c.table_name + "/" + SampleIndexCacheKey(c.index);
}

TEST(KeySetOrderTest, StartsEveryKeySetBeforeRepeatingAny) {
  // Key-set-major input, with the same column on two tables and a
  // clustered twin of a non-clustered key set: five distinct key sets.
  std::vector<CandidateConfiguration> candidates;
  for (CompressionType type :
       {CompressionType::kNullSuppression, CompressionType::kRle,
        CompressionType::kPrefix}) {
    candidates.push_back(KeySetCandidate("t", {"a"}, type));
  }
  for (CompressionType type :
       {CompressionType::kRle, CompressionType::kDictionaryPage}) {
    candidates.push_back(KeySetCandidate("u", {"a"}, type));
  }
  candidates.push_back(KeySetCandidate("t", {"a", "b"}, CompressionType::kRle));
  candidates.push_back(
      KeySetCandidate("t", {"a"}, CompressionType::kRle, /*clustered=*/true));
  for (CompressionType type :
       {CompressionType::kDictionaryGlobal, CompressionType::kDelta,
        CompressionType::kNone}) {
    candidates.push_back(KeySetCandidate("t", {"b"}, type));
  }
  // A repeat of the first key set after the others, under another name.
  candidates.push_back(KeySetCandidate("t", {"a"}, CompressionType::kDelta));
  candidates.back().index.name = "renamed";

  const std::vector<size_t> order = KeySetInterleavedOrder(candidates);

  // A permutation of every input position.
  ASSERT_EQ(candidates.size(), order.size());
  std::vector<size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) ASSERT_EQ(i, sorted[i]);

  // Each key set's first use precedes every repeat of any key set, and
  // each key set keeps its input order.
  std::map<std::string, size_t> last_of;
  size_t first_repeat = order.size();
  size_t last_first_use = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    const std::string key = KeySetOf(candidates[order[k]]);
    auto seen = last_of.find(key);
    if (seen == last_of.end()) {
      last_first_use = k;
    } else {
      first_repeat = std::min(first_repeat, k);
      EXPECT_LT(seen->second, order[k]) << key;
    }
    last_of[key] = order[k];
  }
  EXPECT_EQ(5u, last_of.size());  // t/a, u/a, t/(a,b), clustered t/a, t/b
  EXPECT_LT(last_first_use, first_repeat);
  // First uses, then second uses, third uses and the renamed fourth use.
  const std::vector<size_t> want = {0, 3, 5, 6, 7, 1, 4, 8, 2, 9, 10};
  EXPECT_EQ(want, order);
}

TEST(KeySetOrderTest, OrdersOnlyTheGivenMembers) {
  std::vector<CandidateConfiguration> candidates;
  for (const char* col : {"a", "b"}) {
    for (CompressionType type :
         {CompressionType::kNullSuppression, CompressionType::kRle,
          CompressionType::kPrefix}) {
      candidates.push_back(KeySetCandidate("t", {col}, type));
    }
  }
  // Members skip positions 0 and 4; the rounds count members only.
  const std::vector<size_t> members = {1, 2, 3, 5};
  const std::vector<size_t> want = {1, 3, 2, 5};
  EXPECT_EQ(want, KeySetInterleavedOrder(candidates, members));
  EXPECT_TRUE(KeySetInterleavedOrder(candidates, {}).empty());
  EXPECT_TRUE(KeySetInterleavedOrder({}).empty());
}

// ---------------------------------------------------------------------------
// One-table service: fan-out determinism
// ---------------------------------------------------------------------------

TEST(EngineTest, ParallelBatchIsDeterministicUnderFixedSeed) {
  // A standalone table is a one-table catalog; the service owns the pool.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("workload", WorkloadTable()).ok());
  auto candidates = Candidates();
  constexpr uint64_t kSeed = 123;

  // At f = 0.02 the page-metric CF' snaps to a handful of values, so each
  // run also reports what tells one drawn sample from another: every
  // candidate's data-bytes CF' and the sample row ids, both read from the
  // epoch the batch was sized on.
  struct Run {
    std::vector<SizedCandidate> sized;
    std::vector<double> data_cf;
    std::vector<RowId> sample_ids;
  };
  auto run = [&](uint32_t threads) {
    CatalogEstimationServiceOptions options;
    options.base.fraction = 0.02;
    options.seed = kSeed;
    options.num_threads = threads;
    CatalogEstimationService service(catalog, options);
    auto sized = service.EstimateAll(candidates);
    EXPECT_TRUE(sized.ok());
    Run out;
    out.sized = std::move(sized).ValueOrDie();
    EstimationEngine* engine = *service.Engine("workload");
    const std::shared_ptr<const SampleEpoch> epoch = Pin(*engine);
    out.sample_ids = epoch->sample().row_ids();
    for (const CandidateConfiguration& c : candidates) {
      if (IsUncompressedScheme(c.scheme)) {
        out.data_cf.push_back(1.0);
        continue;
      }
      auto cf = engine->EstimateCFAt(*epoch, c.index, c.scheme);
      EXPECT_TRUE(cf.ok());
      out.data_cf.push_back(cf->cf.value);
    }
    return out;
  };

  const Run serial = run(1);
  for (int attempt = 0; attempt < 3; ++attempt) {
    const Run parallel = run(4);
    ASSERT_EQ(serial.sized.size(), parallel.sized.size());
    for (size_t i = 0; i < serial.sized.size(); ++i) {
      EXPECT_EQ(serial.sized[i].estimated_cf, parallel.sized[i].estimated_cf);
      EXPECT_EQ(serial.sized[i].estimated_bytes,
                parallel.sized[i].estimated_bytes);
      EXPECT_EQ(serial.sized[i].uncompressed_bytes,
                parallel.sized[i].uncompressed_bytes);
      EXPECT_EQ(serial.data_cf[i], parallel.data_cf[i])
          << candidates[i].index.name;
    }
    EXPECT_EQ(serial.sample_ids, parallel.sample_ids);
  }
}

// ---------------------------------------------------------------------------
// Re-routed consumers
// ---------------------------------------------------------------------------

TEST(EngineTest, EstimateCandidateSizeStillMatchesEngine) {
  auto table = WorkloadTable();
  auto candidates = Candidates();
  constexpr uint64_t kSeed = 42;
  SampleCFOptions options;
  options.fraction = 0.02;

  EstimationEngineOptions engine_options;
  engine_options.base = options;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  const std::vector<SizedCandidate> batch = EstimateSerially(engine, candidates);

  for (size_t i = 0; i < candidates.size(); ++i) {
    Random rng(kSeed);
    auto single = EstimateCandidateSize(*table, candidates[i], options, &rng);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->estimated_cf, batch[i].estimated_cf);
    EXPECT_EQ(single->estimated_bytes, batch[i].estimated_bytes);
    EXPECT_EQ(single->uncompressed_bytes, batch[i].uncompressed_bytes);
  }
}

TEST(EngineTest, AdviseConfigurationsSelectsUnderBound) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("workload", WorkloadTable()).ok());
  auto candidates = Candidates();
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.02;
  CatalogEstimationService service(catalog, options);

  auto sized = service.EstimateAll(candidates);
  ASSERT_TRUE(sized.ok());
  uint64_t total = 0;
  for (const SizedCandidate& s : *sized) total += s.estimated_bytes;

  auto rec = AdviseConfigurations(service, candidates, total / 2);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_bytes, total / 2);
  EXPECT_FALSE(rec->selected.empty());
  // At most one configuration per index name.
  std::set<std::string> names;
  for (const SizedCandidate& s : rec->selected) {
    EXPECT_TRUE(names.insert(s.config.table_name + "." + s.config.index.name)
                    .second);
  }
}

TEST(EngineTest, EngineBackedRecommendSchemeMatchesSingleShot) {
  auto table = WorkloadTable();
  constexpr uint64_t kSeed = 5;
  IndexDescriptor desc{"ix", {"city", "status"}, true};
  SampleCFOptions options;
  options.fraction = 0.02;

  Random rng(kSeed);
  auto single = RecommendScheme(*table, desc, {}, options, &rng);
  ASSERT_TRUE(single.ok());

  EstimationEngineOptions engine_options;
  engine_options.base = options;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto batch = RecommendScheme(engine, desc);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(single->estimated_cf, batch->estimated_cf);
  EXPECT_EQ(single->sample_rows, batch->sample_rows);
  ASSERT_EQ(single->columns.size(), batch->columns.size());
  for (size_t c = 0; c < single->columns.size(); ++c) {
    EXPECT_EQ(single->columns[c].best, batch->columns[c].best);
    EXPECT_EQ(single->columns[c].estimated_cf, batch->columns[c].estimated_cf);
  }
  // All schemes were ranked off one sample index build.
  EXPECT_EQ(1u, engine.cache_stats().index_builds);
  EXPECT_GT(engine.cache_stats().index_cache_hits, 0u);
}

TEST(EngineTest, EngineBackedHybridMatchesSingleShot) {
  auto table = WorkloadTable();
  constexpr uint64_t kSeed = 17;
  IndexDescriptor desc{"ix", {"city"}, false};
  CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal);

  HybridCFOptions options;
  options.base.fraction = 0.02;
  Random rng(kSeed);
  auto single = HybridDictionaryCF(*table, desc, scheme, options, &rng);
  ASSERT_TRUE(single.ok());

  EstimationEngineOptions engine_options;
  engine_options.base = options.base;
  engine_options.seed = kSeed;
  EstimationEngine engine(*table, engine_options);
  auto batch = HybridDictionaryCF(engine, desc, scheme);
  ASSERT_TRUE(batch.ok());

  EXPECT_EQ(single->estimate, batch->estimate);
  EXPECT_EQ(single->plain.cf.value, batch->plain.cf.value);
  EXPECT_EQ(single->column_dv_estimates, batch->column_dv_estimates);
}

}  // namespace
}  // namespace cfest
