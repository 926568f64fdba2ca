// Tests for the catalog estimation stack: CatalogEstimationService's
// cross-table batching (bit-identical to per-table engines, and a
// one-table catalog bit-identical to a standalone engine), the
// reservoir-maintained engine sample with NotifyAppend delta refresh
// (equal to a fresh draw over the grown table), invalidation granularity
// (cache-stats assertions), and the storage-layer append plumbing it all
// rides on.

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "common/metrics.h"
#include "common/random.h"
#include "datagen/table_gen.h"
#include "estimator/compression_fraction.h"
#include "estimator/engine.h"
#include "estimator/service.h"
#include "storage/catalog.h"
#include "storage/table_view.h"

namespace cfest {
namespace {

std::unique_ptr<Table> OrdersTable(uint64_t rows = 12000, uint64_t seed = 7) {
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

std::unique_ptr<Table> LineitemTable(uint64_t rows = 15000,
                                     uint64_t seed = 11) {
  auto table = GenerateTable(
      {ColumnSpec::Integer("partkey", 800),
       ColumnSpec::String("shipmode", 8, 7, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(3, 8)),
       ColumnSpec::Integer("quantity", 50)},
      rows, seed);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

/// A catalog holding both tables.
std::unique_ptr<Catalog> TwoTableCatalog() {
  auto catalog = std::make_unique<Catalog>();
  EXPECT_TRUE(catalog->AddTable("orders", OrdersTable()).ok());
  EXPECT_TRUE(catalog->AddTable("lineitem", LineitemTable()).ok());
  return catalog;
}

/// Pins the engine's current epoch, drawing the sample on first use.
std::shared_ptr<const SampleEpoch> Pin(EstimationEngine& engine) {
  auto epoch = engine.PinEpoch();
  EXPECT_TRUE(epoch.ok());
  return std::move(epoch).ValueOrDie();
}

/// Registry delta of one {table=<table>} counter child between snapshots.
uint64_t TableDelta(const metrics::MetricsSnapshot& before,
                    const metrics::MetricsSnapshot& after,
                    const std::string& name, const std::string& table) {
  return after.LabeledCounterValue(name, {{"table", table}}) -
         before.LabeledCounterValue(name, {{"table", table}});
}

/// Candidates interleaved across the two tables — the service must group
/// them internally yet return positionally aligned results.
std::vector<CandidateConfiguration> MixedCandidates() {
  std::vector<CandidateConfiguration> candidates;
  auto add = [&](const std::string& table, const std::string& col,
                 CompressionType type) {
    CandidateConfiguration c;
    c.table_name = table;
    c.index = {"ix_" + col + "_" + CompressionTypeName(type), {col},
               /*clustered=*/false};
    c.scheme = CompressionScheme::Uniform(type);
    c.benefit = 1.0;
    candidates.push_back(std::move(c));
  };
  for (CompressionType type :
       {CompressionType::kNullSuppression, CompressionType::kRle,
        CompressionType::kPrefix}) {
    add("orders", "status", type);
    add("lineitem", "shipmode", type);
    add("orders", "city", type);
    add("lineitem", "partkey", type);
  }
  // One uncompressed candidate for the schema-arithmetic path.
  CandidateConfiguration none;
  none.table_name = "orders";
  none.index = {"ix_amount_none", {"amount"}, false};
  none.scheme = CompressionScheme::Uniform(CompressionType::kNone);
  candidates.push_back(std::move(none));
  return candidates;
}

// ---------------------------------------------------------------------------
// Storage plumbing: append-only tables and catalog deltas
// ---------------------------------------------------------------------------

TEST(MutableTableTest, AppendRowsGrowsTableAndKeepsExistingBytes) {
  auto table = OrdersTable(100);
  const uint64_t n = table->num_rows();
  const std::string row0(table->row(0).data(), table->row(0).size());

  auto decoded = table->DecodeRow(5);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(table->AppendRow(*decoded).ok());
  EXPECT_EQ(n + 1, table->num_rows());
  // Existing rows keep their ids and bytes; the new row equals its source.
  EXPECT_EQ(row0, std::string(table->row(0).data(), table->row(0).size()));
  EXPECT_EQ(std::string(table->row(5).data(), table->row(5).size()),
            std::string(table->row(n).data(), table->row(n).size()));
}

TEST(MutableTableTest, ViewsRefuseAppends) {
  auto table = OrdersTable(100);
  auto view = TableView::Make(*table, {0, 1, 2});
  ASSERT_TRUE(view.ok());
  auto decoded = table->DecodeRow(0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_FALSE((*view)->AppendRow(*decoded).ok());
}

TEST(CatalogTest, AppendRowsReturnsTheAppendedRange) {
  auto catalog = TwoTableCatalog();
  auto before = catalog->GetTable("orders");
  ASSERT_TRUE(before.ok());
  const uint64_t n = (*before)->num_rows();

  std::vector<Row> rows;
  for (RowId id = 0; id < 5; ++id) {
    auto decoded = (*before)->DecodeRow(id);
    ASSERT_TRUE(decoded.ok());
    rows.push_back(*decoded);
  }
  auto range = catalog->AppendRows("orders", rows);
  ASSERT_TRUE(range.ok());
  EXPECT_EQ(n, range->begin);
  EXPECT_EQ(n + 5, range->end);
  EXPECT_EQ(5u, range->size());
  EXPECT_EQ(n + 5, (*catalog->GetTable("orders"))->num_rows());

  EXPECT_FALSE(catalog->AppendRows("nope", rows).ok());
}

TEST(CatalogTest, RemoveTableHandsOwnershipBack) {
  auto catalog = TwoTableCatalog();
  EXPECT_TRUE(catalog->HasTable("orders"));
  EXPECT_EQ(2u, catalog->num_tables());

  auto removed = catalog->RemoveTable("orders");
  ASSERT_TRUE(removed.ok());
  EXPECT_NE(nullptr, removed->get());
  EXPECT_GT((*removed)->num_rows(), 0u);
  EXPECT_FALSE(catalog->HasTable("orders"));
  EXPECT_EQ(1u, catalog->num_tables());
  EXPECT_FALSE(catalog->RemoveTable("orders").ok());

  // The name is free again.
  EXPECT_TRUE(catalog->AddTable("orders", std::move(*removed)).ok());
  EXPECT_EQ(2u, catalog->num_tables());
}

// ---------------------------------------------------------------------------
// Acceptance (1): cross-table EstimateAll is bit-identical to per-table
// engines under the same per-table seeds
// ---------------------------------------------------------------------------

TEST(ServiceTest, CrossTableBatchMatchesPerTableEnginesBitForBit) {
  auto catalog = TwoTableCatalog();
  const std::vector<CandidateConfiguration> candidates = MixedCandidates();

  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.02;
  options.base.metric = SizeMetric::kPageBytes;
  options.seed = 42;
  options.table_seeds["lineitem"] = 1234;  // exercise per-table seeds
  CatalogEstimationService service(*catalog, options);
  EXPECT_EQ(42u, service.SeedForTable("orders"));
  EXPECT_EQ(1234u, service.SeedForTable("lineitem"));

  const metrics::MetricsSnapshot before =
      metrics::MetricRegistry::Global().Snapshot();
  auto batch = service.EstimateAll(candidates);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(candidates.size(), batch->size());
  const metrics::MetricsSnapshot after =
      metrics::MetricRegistry::Global().Snapshot();

  // Reference: one standalone engine per table, same seeds, same shared
  // options, each candidate sized serially at one pinned epoch.
  std::map<std::string, std::unique_ptr<EstimationEngine>> engines;
  std::map<std::string, std::shared_ptr<const SampleEpoch>> epochs;
  for (const std::string& name : catalog->TableNames()) {
    EstimationEngineOptions engine_options;
    engine_options.base = options.base;
    engine_options.seed = service.SeedForTable(name);
    auto engine = std::make_unique<EstimationEngine>(
        **catalog->GetTable(name), engine_options);
    epochs.emplace(name, Pin(*engine));
    engines.emplace(name, std::move(engine));
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::string& table = candidates[i].table_name;
    auto single = engines.at(table)->EstimateAt(*epochs.at(table),
                                                candidates[i]);
    ASSERT_TRUE(single.ok());
    EXPECT_EQ(single->estimated_cf, (*batch)[i].estimated_cf)
        << "candidate " << i << " (" << candidates[i].index.name << ")";
    EXPECT_EQ(single->estimated_bytes, (*batch)[i].estimated_bytes);
    EXPECT_EQ(single->uncompressed_bytes, (*batch)[i].uncompressed_bytes);
    EXPECT_EQ(candidates[i].index.name, (*batch)[i].config.index.name);
  }
  // Page-metric estimates of small samples barely depend on which rows
  // were drawn, so compare the samples themselves.
  for (const std::string& name : catalog->TableNames()) {
    EstimationEngine* engine = *service.Engine(name);
    EXPECT_EQ(Pin(*engine)->sample().row_ids(),
              epochs.at(name)->sample().row_ids())
        << name;
  }

  // One sample per table, regardless of candidate count (the reference
  // engines are unlabeled, so the table children count the service only).
  EXPECT_EQ(1u, TableDelta(before, after, "cfest.engine.samples_drawn",
                           "orders"));
  EXPECT_EQ(1u, TableDelta(before, after, "cfest.engine.samples_drawn",
                           "lineitem"));
}

// The one-table front door: a standalone table is a one-table catalog, and
// its EstimateAll (coalesced, pool-fanned) equals a serial PinEpoch +
// EstimateAt loop on a standalone engine with the same seed, bit for bit.
TEST(ServiceTest, OneTableCatalogMatchesSerialEngineLoopBitForBit) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("orders", OrdersTable()).ok());
  std::vector<CandidateConfiguration> candidates;
  for (const CandidateConfiguration& c : MixedCandidates()) {
    if (c.table_name == "orders") candidates.push_back(c);
  }
  candidates.push_back(candidates.front());  // a coalesced duplicate

  // A 6,000-row sample spans enough pages that each scheme's page-metric
  // estimate differs from the others'.
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.5;
  options.seed = 2024;
  options.num_threads = 4;
  CatalogEstimationService service(catalog, options);
  auto batch = service.EstimateAll(candidates);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(candidates.size(), batch->size());

  EstimationEngineOptions engine_options;
  engine_options.base = options.base;
  engine_options.seed = options.seed;
  EstimationEngine engine(**catalog.GetTable("orders"), engine_options);
  const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);
  for (size_t i = 0; i < candidates.size(); ++i) {
    auto serial = engine.EstimateAt(*epoch, candidates[i]);
    ASSERT_TRUE(serial.ok());
    const SizedCandidate& fanned = (*batch)[i];
    EXPECT_EQ(serial->estimated_cf, fanned.estimated_cf)
        << "candidate " << i << " (" << candidates[i].index.name << ")";
    EXPECT_EQ(serial->estimated_bytes, fanned.estimated_bytes);
    EXPECT_EQ(serial->uncompressed_bytes, fanned.uncompressed_bytes);
    EXPECT_EQ(serial->sample_rows, fanned.sample_rows);
    EXPECT_EQ(candidates[i].index.name, fanned.config.index.name);
  }
}

TEST(ServiceTest, ParallelFanOutIsDeterministic) {
  auto catalog = TwoTableCatalog();
  const std::vector<CandidateConfiguration> candidates = MixedCandidates();

  // At f = 0.02 the page-metric CF' snaps to a handful of values, so each
  // run also reports what tells one drawn sample from another: every
  // candidate's data-bytes CF' and every table's sample row ids, both read
  // from the epochs the batch was sized on.
  struct Run {
    std::vector<SizedCandidate> sized;
    std::vector<double> data_cf;
    std::map<std::string, std::vector<RowId>> sample_ids;
  };
  auto run = [&](uint32_t threads) {
    CatalogEstimationServiceOptions options;
    options.base.fraction = 0.02;
    options.num_threads = threads;
    CatalogEstimationService service(*catalog, options);
    auto sized = service.EstimateAll(candidates);
    EXPECT_TRUE(sized.ok());
    Run out;
    out.sized = std::move(sized).ValueOrDie();
    for (const CandidateConfiguration& c : candidates) {
      EstimationEngine* engine = *service.Engine(c.table_name);
      const std::shared_ptr<const SampleEpoch> epoch = Pin(*engine);
      out.sample_ids[c.table_name] = epoch->sample().row_ids();
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
      EXPECT_EQ(serial.data_cf[i], parallel.data_cf[i])
          << candidates[i].table_name << "." << candidates[i].index.name;
    }
    EXPECT_EQ(serial.sample_ids, parallel.sample_ids);
  }
}

// The owned candidates fan out in key-set-interleaved order, not input
// order; every result must still land at its candidate's input position.
TEST(ServiceTest, KeySetMajorBatchLandsAtInputPositions) {
  auto catalog = TwoTableCatalog();
  // Key-set-major: each key set's four schemes are adjacent, so the
  // interleaved start order differs from input order at 12 of the 16
  // positions. The integer key set takes delta where the strings take
  // prefix, which sizes an integer column like null suppression does.
  std::vector<CandidateConfiguration> candidates;
  auto add_key_set = [&](const std::string& table, const std::string& col,
                         CompressionType third) {
    for (CompressionType type :
         {CompressionType::kNullSuppression, CompressionType::kRle, third,
          CompressionType::kDictionaryPage}) {
      CandidateConfiguration c;
      c.table_name = table;
      c.index = {"ix_" + col + "_" + CompressionTypeName(type), {col}, false};
      c.scheme = CompressionScheme::Uniform(type);
      candidates.push_back(std::move(c));
    }
  };
  add_key_set("orders", "status", CompressionType::kPrefix);
  add_key_set("orders", "city", CompressionType::kPrefix);
  add_key_set("lineitem", "shipmode", CompressionType::kPrefix);
  add_key_set("lineitem", "partkey", CompressionType::kDelta);

  for (uint32_t threads : {1u, 4u}) {
    // At f = 0.02 on 8 KB pages the page-metric CF' of most candidates
    // collapses to 1/3, which cannot tell one candidate's result from
    // another's; 6,000- and 7,500-row samples on 1 KB pages span over a
    // hundred pages each, enough for every scheme of a key set to get its
    // own CF'.
    CatalogEstimationServiceOptions options;
    options.base.fraction = 0.5;
    options.base.build.page_size = 1024;
    options.seed = 77;
    options.num_threads = threads;
    CatalogEstimationService service(*catalog, options);
    auto batch = service.EstimateAll(candidates);
    ASSERT_TRUE(batch.ok()) << threads;
    ASSERT_EQ(candidates.size(), batch->size());

    // The serial reference: EstimateAt at the epochs the batch was sized
    // on, one candidate at a time in input order.
    std::set<std::pair<double, uint64_t>> distinct;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const CandidateConfiguration& c = candidates[i];
      EstimationEngine* engine = *service.Engine(c.table_name);
      auto serial = engine->EstimateAt(*Pin(*engine), c);
      ASSERT_TRUE(serial.ok());
      const SizedCandidate& fanned = (*batch)[i];
      const std::string at = std::to_string(threads) + " threads, " +
                             c.table_name + "." + c.index.name;
      EXPECT_EQ(serial->estimated_cf, fanned.estimated_cf) << at;
      EXPECT_EQ(serial->estimated_bytes, fanned.estimated_bytes) << at;
      EXPECT_EQ(serial->uncompressed_bytes, fanned.uncompressed_bytes) << at;
      EXPECT_EQ(c.index.name, fanned.config.index.name) << at;
      distinct.emplace(serial->estimated_cf, serial->uncompressed_bytes);
    }
    // The comparison can see a misplaced result: no two candidates share
    // both CF' and uncompressed size.
    EXPECT_EQ(candidates.size(), distinct.size());
  }
}

TEST(ServiceTest, RemovedTablesEngineIsNeverServed) {
  auto catalog = TwoTableCatalog();
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.02;
  CatalogEstimationService service(*catalog, options);
  const std::vector<CandidateConfiguration> candidates = MixedCandidates();
  ASSERT_TRUE(service.EstimateAll(candidates).ok());

  // Removing the table must drop the cached engine: lookups fail instead
  // of serving an engine bound to a table the caller now owns.
  auto removed = catalog->RemoveTable("orders");
  ASSERT_TRUE(removed.ok());
  EXPECT_FALSE(service.Engine("orders").ok());
  EXPECT_FALSE(service.EstimateAll(candidates).ok());

  // Re-registering serves a fresh engine bound to the current table.
  ASSERT_TRUE(catalog->AddTable("orders", std::move(*removed)).ok());
  auto engine = service.Engine("orders");
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(*catalog->GetTable("orders"), &(*engine)->table());
  EXPECT_TRUE(service.EstimateAll(candidates).ok());
}

TEST(ServiceTest, UnknownTableFailsTheBatchUpFront) {
  auto catalog = TwoTableCatalog();
  std::vector<CandidateConfiguration> candidates = MixedCandidates();
  candidates[3].table_name = "supplier";  // not registered

  CatalogEstimationService service(*catalog);
  auto sized = service.EstimateAll(candidates);
  EXPECT_FALSE(sized.ok());
  EXPECT_EQ(StatusCode::kNotFound, sized.status().code());
}

TEST(ServiceTest, AdviseConfigurationsMergesAcrossTables) {
  auto catalog = TwoTableCatalog();
  const std::vector<CandidateConfiguration> candidates = MixedCandidates();

  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.02;
  CatalogEstimationService service(*catalog, options);
  auto sized = service.EstimateAll(candidates);
  ASSERT_TRUE(sized.ok());
  uint64_t total = 0;
  for (const SizedCandidate& s : *sized) total += s.estimated_bytes;

  auto rec = AdviseConfigurations(service, candidates, total / 2);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_bytes, total / 2);
  ASSERT_FALSE(rec->selected.empty());
  // The merged recommendation spans both tables (the workload is balanced
  // enough that a half-bound selection should touch each).
  bool saw_orders = false, saw_lineitem = false;
  for (const SizedCandidate& s : rec->selected) {
    saw_orders |= s.config.table_name == "orders";
    saw_lineitem |= s.config.table_name == "lineitem";
  }
  EXPECT_TRUE(saw_orders);
  EXPECT_TRUE(saw_lineitem);
}

// ---------------------------------------------------------------------------
// Acceptance (2): NotifyAppend + re-estimate equals a fresh engine over the
// grown table (same reservoir contents under the same RNG stream)
// ---------------------------------------------------------------------------

/// Rows 'delta' rows decoded from `source` to append (content doesn't
/// matter for the reservoir identity; reusing early rows keeps it simple).
std::vector<Row> DeltaRows(const Table& source, uint64_t delta) {
  std::vector<Row> rows;
  for (RowId id = 0; id < delta; ++id) {
    auto decoded = source.DecodeRow(id % source.num_rows());
    EXPECT_TRUE(decoded.ok());
    rows.push_back(*decoded);
  }
  return rows;
}

TEST(ReservoirEngineTest, IncrementalRefreshEqualsFreshDrawOverGrownTable) {
  constexpr uint64_t kSeed = 77;
  constexpr uint64_t kCapacity = 300;
  const uint64_t base_rows = 10000;
  const uint64_t delta = 1000;  // 10% growth

  // Engine A: drawn over the base table, then grown incrementally.
  auto catalog = std::make_unique<Catalog>();
  ASSERT_TRUE(catalog->AddTable("orders", OrdersTable(base_rows)).ok());
  const Table* table_a = *catalog->GetTable("orders");

  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  options.base.metric = SizeMetric::kPageBytes;
  options.seed = kSeed;
  options.maintain_reservoir = true;
  options.reservoir_capacity = kCapacity;
  EstimationEngine engine_a(*table_a, options);

  const IndexDescriptor desc{"ix", {"city"}, false};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryPage);
  // Draw over the base table.
  ASSERT_TRUE(engine_a.EstimateCFAt(*Pin(engine_a), desc, scheme).ok());

  auto range = catalog->AppendRows("orders", DeltaRows(*table_a, delta));
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(engine_a.NotifyAppend(*range).ok());
  const std::shared_ptr<const SampleEpoch> epoch_a = Pin(engine_a);
  auto incremental = engine_a.EstimateCFAt(*epoch_a, desc, scheme);
  ASSERT_TRUE(incremental.ok());

  // Engine B: fresh, drawn in one pass over an identically grown table.
  auto grown = OrdersTable(base_rows);
  for (const Row& row : DeltaRows(*grown, delta)) {
    ASSERT_TRUE(grown->AppendRow(row).ok());
  }
  ASSERT_EQ(base_rows + delta, grown->num_rows());
  EstimationEngine engine_b(*grown, options);
  const std::shared_ptr<const SampleEpoch> epoch_b = Pin(engine_b);
  auto fresh = engine_b.EstimateCFAt(*epoch_b, desc, scheme);
  ASSERT_TRUE(fresh.ok());

  // Same reservoir contents (row ids, slot for slot) ...
  EXPECT_EQ(epoch_a->sample().row_ids(), epoch_b->sample().row_ids());

  // ... hence bit-identical estimates.
  EXPECT_EQ(fresh->cf.value, incremental->cf.value);
  EXPECT_EQ(fresh->sample_rows, incremental->sample_rows);
  EXPECT_EQ(fresh->sample_compressed.page_bytes(),
            incremental->sample_compressed.page_bytes());
}

/// True when two sample indexes hold the same rows in the same order and
/// the same stats.
void ExpectSameIndex(const Index& a, const Index& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (uint64_t i = 0; i < a.num_rows(); ++i) {
    ASSERT_EQ(a.row(i).ToString(), b.row(i).ToString()) << "row " << i;
  }
  EXPECT_EQ(a.stats(), b.stats());
}

// NotifyAppend patches the cached sample indexes into the successor epoch
// instead of rebuilding them. After every append — filling and full
// reservoirs, tiny to larger-than-the-table capacities — each index the
// epoch serves must equal a from-scratch Build over its sample, and every
// estimate must equal a fresh engine drawn over the grown table.
TEST(ReservoirEngineTest, CarriedIndexesEqualBuildAfterEveryAppend) {
  const uint64_t base_rows = 3000;
  const std::vector<IndexDescriptor> descriptors = {
      {"ix_status", {"status"}, false},
      {"ix_city_amount", {"city", "amount"}, false},
      {"cx_status", {"status"}, true},
      {"cx_amount", {"amount"}, true}};
  const std::vector<CompressionScheme> schemes = {
      CompressionScheme::Uniform(CompressionType::kRle),
      CompressionScheme::Uniform(CompressionType::kNullSuppression)};

  for (const uint64_t capacity :
       {uint64_t{1}, uint64_t{50}, uint64_t{2000}, uint64_t{100000}}) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    auto catalog = std::make_unique<Catalog>();
    ASSERT_TRUE(catalog->AddTable("orders", OrdersTable(base_rows)).ok());
    const Table* table = *catalog->GetTable("orders");
    auto replica = OrdersTable(base_rows);  // grown in lockstep

    EstimationEngineOptions options;
    options.base.fraction = 0.02;
    options.base.metric = SizeMetric::kPageBytes;
    options.seed = 91;
    options.maintain_reservoir = true;
    options.reservoir_capacity = capacity;
    EstimationEngine engine(*table, options);
    for (const IndexDescriptor& desc : descriptors) {
      ASSERT_TRUE(engine.SampleIndexAt(*Pin(engine), desc).ok());
    }

    Random rng(capacity * 31 + 7);
    uint64_t patched = 0;
    for (int step = 0; step < 6; ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      // Rows copied from random earlier rows: duplicate keys everywhere.
      std::vector<Row> delta;
      for (uint64_t i = 0, k = 1 + rng.NextBounded(600); i < k; ++i) {
        auto decoded = table->DecodeRow(rng.NextBounded(table->num_rows()));
        ASSERT_TRUE(decoded.ok());
        delta.push_back(*decoded);
      }
      for (const Row& row : delta) ASSERT_TRUE(replica->AppendRow(row).ok());
      const auto before = engine.cache_stats();
      auto range = catalog->AppendRows("orders", delta);
      ASSERT_TRUE(range.ok());
      ASSERT_TRUE(engine.NotifyAppend(*range).ok());
      const auto after = engine.cache_stats();

      // Every cached entry is either carried or dropped; non-clustered
      // ones are always carried, and a filling reservoir (appends only)
      // carries the clustered ones too.
      if (after.sample_version != before.sample_version) {
        const uint64_t extended =
            after.index_extensions - before.index_extensions;
        const uint64_t dropped = after.invalidations - before.invalidations;
        EXPECT_EQ(descriptors.size(), extended + dropped);
        EXPECT_GE(extended, 2u);
        if (capacity > table->num_rows()) {
          EXPECT_EQ(0u, dropped);
        }
        patched += extended;
      }

      const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);
      EstimationEngine fresh(*replica, options);
      const std::shared_ptr<const SampleEpoch> fresh_epoch = Pin(fresh);
      ASSERT_EQ(epoch->sample().row_ids(), fresh_epoch->sample().row_ids());
      for (const IndexDescriptor& desc : descriptors) {
        SCOPED_TRACE(desc.name);
        auto served = engine.SampleIndexAt(*epoch, desc);
        ASSERT_TRUE(served.ok());
        Result<Index> built =
            Index::Build(epoch->sample(), desc, options.base.build);
        ASSERT_TRUE(built.ok());
        ExpectSameIndex(**served, *built);
        for (const CompressionScheme& scheme : schemes) {
          auto incremental = engine.EstimateCFAt(*epoch, desc, scheme);
          auto redrawn = fresh.EstimateCFAt(*fresh_epoch, desc, scheme);
          ASSERT_TRUE(incremental.ok());
          ASSERT_TRUE(redrawn.ok());
          EXPECT_EQ(redrawn->cf.value, incremental->cf.value);
          EXPECT_EQ(redrawn->sample_rows, incremental->sample_rows);
          EXPECT_EQ(redrawn->sample_compressed.page_bytes(),
                    incremental->sample_compressed.page_bytes());
        }
      }
    }
    EXPECT_GT(patched, 0u);
  }
}

TEST(ReservoirEngineTest, NotifyAppendValidatesModeAndRanges) {
  auto table = OrdersTable(1000);

  // Engines without reservoir maintenance refuse.
  EstimationEngine frozen(*table, {});
  EXPECT_FALSE(frozen.NotifyAppend({0, 1}).ok());

  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  options.maintain_reservoir = true;
  EstimationEngine engine(*table, options);

  // Before the first draw, a valid range is an accepted no-op.
  EXPECT_TRUE(engine.NotifyAppend({900, 1000}).ok());
  EXPECT_EQ(0u, engine.cache_stats().samples_drawn);

  ASSERT_TRUE(engine.PinEpoch().ok());
  // Ranges past the table end, inverted, or non-contiguous are rejected.
  EXPECT_FALSE(engine.NotifyAppend({1000, 1200}).ok());
  EXPECT_FALSE(engine.NotifyAppend({900, 800}).ok());
  EXPECT_TRUE(engine.NotifyAppend({1000, 1000}).ok());  // empty: no-op

  // External-rng engines cannot maintain a reservoir.
  Random rng(3);
  EstimationEngineOptions bad = options;
  bad.rng = &rng;
  EstimationEngine external(*table, bad);
  EXPECT_FALSE(external.PinEpoch().ok());
}

/// Three columns with clearly different best schemes: a sequential int64
/// key, a 4-value status string and near-unique padded blobs.
std::unique_ptr<Table> MixedWorkload(uint64_t n) {
  auto table = GenerateTable(
      {ColumnSpec::Integer("key", 0),
       ColumnSpec::String("status", 16, 4, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(6, 10)),
       ColumnSpec::String("blob", 64, n / 2, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 24))},
      n, 99);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

/// Streams `source` past a reservoir-mode engine of `capacity` rows: the
/// engine draws over the first quarter, and each later quarter arrives
/// through AppendEncodedRow + NotifyAppend. Returns the estimate at the
/// epoch pinned after the last append.
Result<SampleCFResult> StreamedReservoirEstimate(
    const Table& source, uint64_t capacity, const IndexDescriptor& desc,
    const CompressionScheme& scheme) {
  const uint64_t quarter = source.num_rows() / 4;
  TableBuilder builder(source.schema());
  for (RowId id = 0; id < quarter; ++id) {
    EXPECT_TRUE(builder.AppendEncoded(source.row(id)).ok());
  }
  std::unique_ptr<Table> table = builder.Finish();

  EstimationEngineOptions options;
  options.maintain_reservoir = true;
  options.reservoir_capacity = capacity;
  EstimationEngine engine(*table, options);
  Pin(engine);  // the first draw
  for (uint64_t phase = 2; phase <= 4; ++phase) {
    const RowRange range{table->num_rows(),
                         phase == 4 ? source.num_rows() : quarter * phase};
    for (RowId id = range.begin; id < range.end; ++id) {
      EXPECT_TRUE(table->AppendEncodedRow(source.row(id)).ok());
    }
    EXPECT_TRUE(engine.NotifyAppend(range).ok());
  }
  return engine.EstimateCFAt(*Pin(engine), desc, scheme);
}

TEST(ReservoirEngineTest, ReservoirHoldingTheWholeStreamIsExact) {
  auto table = MixedWorkload(10000);
  const IndexDescriptor desc{"cx", {"key"}, true};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kNullSuppression);
  // Capacity above the stream length: the reservoir keeps every row.
  auto estimate = StreamedReservoirEstimate(*table, 20000, desc, scheme);
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  EXPECT_EQ(10000u, estimate->sample_rows);
  auto truth = ComputeTrueCF(*table, desc, scheme);
  ASSERT_TRUE(truth.ok());
  EXPECT_NEAR(estimate->cf.value, truth->value, 1e-9);
}

TEST(ReservoirEngineTest, SmallReservoirIsAccurate) {
  auto table = MixedWorkload(50000);
  const IndexDescriptor desc{"cx", {"key"}, true};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kNullSuppression);
  auto estimate = StreamedReservoirEstimate(*table, 2000, desc, scheme);
  ASSERT_TRUE(estimate.ok()) << estimate.status();
  EXPECT_EQ(2000u, estimate->sample_rows);
  auto truth = ComputeTrueCF(*table, desc, scheme);
  ASSERT_TRUE(truth.ok());
  // Theorem-1 style accuracy at r = 2000: bound is ~0.011; allow 4x.
  EXPECT_NEAR(estimate->cf.value, truth->value, 0.045);
}

// ---------------------------------------------------------------------------
// Acceptance (3): a refresh carries the affected table's non-clustered
// sample indexes, drops only its clustered ones, and leaves other tables be
// ---------------------------------------------------------------------------

TEST(ServiceTest, NotifyAppendInvalidatesOnlyTheAffectedTable) {
  auto catalog = TwoTableCatalog();
  std::vector<CandidateConfiguration> candidates = MixedCandidates();
  // One clustered orders index: its rows carry no __rid, so a refresh that
  // replaces a reservoir slot cannot patch it.
  CandidateConfiguration clustered;
  clustered.table_name = "orders";
  clustered.index = {"cx_status", {"status"}, /*clustered=*/true};
  clustered.scheme = CompressionScheme::Uniform(CompressionType::kRle);
  candidates.push_back(clustered);

  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.02;
  options.maintain_reservoirs = true;
  CatalogEstimationService service(*catalog, options);
  ASSERT_TRUE(service.EstimateAll(candidates).ok());
  const metrics::MetricsSnapshot registry_before =
      metrics::MetricRegistry::Global().Snapshot();

  auto orders_engine = service.Engine("orders");
  auto lineitem_engine = service.Engine("lineitem");
  ASSERT_TRUE(orders_engine.ok());
  ASSERT_TRUE(lineitem_engine.ok());
  const auto orders_before = (*orders_engine)->cache_stats();
  const auto lineitem_before = (*lineitem_engine)->cache_stats();
  // Orders: non-clustered on status and city, clustered on status.
  EXPECT_EQ(3u, orders_before.index_builds);
  EXPECT_EQ(1u, orders_before.sample_version);
  EXPECT_EQ(0u, orders_before.invalidations);
  EXPECT_EQ(0u, orders_before.index_extensions);

  // Grow orders by 10% — comfortably enough that some appended row replaces
  // a slot of the full reservoir (each of the 1200 rows enters with ~2%
  // probability).
  const Table* orders = *catalog->GetTable("orders");
  auto range = catalog->AppendRows("orders", DeltaRows(*orders, 1200));
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(service.NotifyAppend("orders", *range).ok());

  // Orders: the version bumped by exactly one effective refresh, the two
  // non-clustered indexes were patched into the new epoch and only the
  // clustered one was dropped. The registry's per-table children see the
  // same counts, and nothing on lineitem.
  const auto orders_after = (*orders_engine)->cache_stats();
  EXPECT_EQ(2u, orders_after.sample_version);
  EXPECT_EQ(2u, orders_after.index_extensions);
  EXPECT_EQ(1u, orders_after.invalidations);
  const metrics::MetricsSnapshot registry_after =
      metrics::MetricRegistry::Global().Snapshot();
  EXPECT_EQ(orders_after.invalidations,
            TableDelta(registry_before, registry_after,
                       "cfest.engine.invalidations", "orders"));
  EXPECT_EQ(orders_after.index_extensions,
            TableDelta(registry_before, registry_after,
                       "cfest.engine.index_extensions", "orders"));
  EXPECT_EQ(0u, TableDelta(registry_before, registry_after,
                           "cfest.engine.invalidations", "lineitem"));
  EXPECT_EQ(0u, TableDelta(registry_before, registry_after,
                           "cfest.engine.index_extensions", "lineitem"));

  // Lineitem: untouched — same version, nothing invalidated or carried.
  const auto lineitem_after = (*lineitem_engine)->cache_stats();
  EXPECT_EQ(0u, lineitem_after.invalidations);
  EXPECT_EQ(0u, lineitem_after.index_extensions);
  EXPECT_EQ(1u, lineitem_after.sample_version);

  // Re-estimating rebuilds only orders' clustered index; the carried ones
  // and all of lineitem's are hits.
  ASSERT_TRUE(service.EstimateAll(candidates).ok());
  const auto orders_rebuilt = (*orders_engine)->cache_stats();
  const auto lineitem_rebuilt = (*lineitem_engine)->cache_stats();
  EXPECT_EQ(orders_before.index_builds + 1, orders_rebuilt.index_builds);
  EXPECT_GT(orders_rebuilt.index_cache_hits, orders_before.index_cache_hits);
  EXPECT_EQ(lineitem_before.index_builds, lineitem_rebuilt.index_builds);
  EXPECT_GT(lineitem_rebuilt.index_cache_hits,
            lineitem_before.index_cache_hits);

  // NotifyAppend for an unknown table is an error; for a table whose
  // engine was never created it is a cheap no-op.
  EXPECT_FALSE(service.NotifyAppend("supplier", *range).ok());
}

TEST(ReservoirEngineTest, RejectedAppendInvalidatesNothing) {
  // Capacity 1 over a large base: a 1-row append enters the reservoir with
  // probability 1/(n+1) — the pinned seed below is one where it does not.
  auto table = OrdersTable(10000);
  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  options.maintain_reservoir = true;
  options.reservoir_capacity = 1;
  options.seed = 42;
  EstimationEngine engine(*table, options);

  const IndexDescriptor desc{"ix", {"status"}, false};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kRle);
  ASSERT_TRUE(engine.EstimateCFAt(*Pin(engine), desc, scheme).ok());
  const auto before = engine.cache_stats();
  ASSERT_EQ(1u, before.sample_version);

  auto decoded = table->DecodeRow(0);
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(table->AppendRow(*decoded).ok());
  ASSERT_TRUE(engine.NotifyAppend({10000, 10001}).ok());

  const auto after = engine.cache_stats();
  EXPECT_EQ(1u, after.sample_version) << "appended row must not have entered "
                                         "the capacity-1 reservoir under "
                                         "seed 42";
  EXPECT_EQ(0u, after.invalidations);

  // The cached index is still served.
  ASSERT_TRUE(engine.EstimateCFAt(*Pin(engine), desc, scheme).ok());
  EXPECT_EQ(before.index_builds, engine.cache_stats().index_builds);
  EXPECT_GT(engine.cache_stats().index_cache_hits, before.index_cache_hits);
}

TEST(ReservoirEngineTest, InvalidationsCountWhatASuccessorCannotServeOrPatch) {
  const IndexDescriptor read{"a", {"city"}, false};
  const IndexDescriptor unread{"b", {"status"}, false};
  const IndexDescriptor broken{"x", {"no_such_column"}, false};
  const IndexDescriptor clustered{"c", {"status"}, true};

  // Growth: the failed build, and at the second growth the carried key
  // nobody read, are what the successor can neither serve nor patch.
  {
    auto table = OrdersTable();
    EstimationEngineOptions options;
    options.base.fraction = 0.02;
    EstimationEngine engine(*table, options);
    const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);
    ASSERT_TRUE(engine.SampleIndexAt(*epoch, read).ok());
    ASSERT_TRUE(engine.SampleIndexAt(*epoch, unread).ok());
    EXPECT_FALSE(engine.SampleIndexAt(*epoch, broken).ok());
    ASSERT_TRUE(engine.GrowSample(600).ok());
    EXPECT_EQ(1u, engine.cache_stats().invalidations);
    ASSERT_TRUE(engine.SampleIndexAt(*Pin(engine), read).ok());
    ASSERT_TRUE(engine.GrowSample(900).ok());
    EXPECT_EQ(2u, engine.cache_stats().invalidations);
    EXPECT_EQ(1u, engine.cache_stats().index_extensions);
  }

  // Refresh: the failed build and the clustered index with a replaced slot.
  // Both non-clustered indexes are patched before publication, read or not.
  {
    auto table = OrdersTable();
    EstimationEngineOptions options;
    options.base.fraction = 0.02;
    options.maintain_reservoir = true;
    options.seed = 5;
    EstimationEngine engine(*table, options);
    const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);
    ASSERT_TRUE(engine.SampleIndexAt(*epoch, read).ok());
    ASSERT_TRUE(engine.SampleIndexAt(*epoch, unread).ok());
    EXPECT_FALSE(engine.SampleIndexAt(*epoch, broken).ok());
    ASSERT_TRUE(engine.SampleIndexAt(*epoch, clustered).ok());
    const uint64_t base_rows = table->num_rows();
    for (const Row& row : DeltaRows(*table, 1200)) {
      ASSERT_TRUE(table->AppendRow(row).ok());
    }
    ASSERT_TRUE(engine.NotifyAppend({base_rows, base_rows + 1200}).ok());
    const auto stats = engine.cache_stats();
    ASSERT_EQ(2u, stats.sample_version);
    EXPECT_EQ(2u, stats.invalidations);
    EXPECT_EQ(2u, stats.index_extensions);
  }
}

// ---------------------------------------------------------------------------
// Concurrency: epoch-consistent estimates under appends and sample growth
// ---------------------------------------------------------------------------

// Client threads estimate (service batches AND directly against pinned
// epochs) while an appender streams rows into "orders" and a grower
// extends "lineitem"'s sample. Three contracts:
//   1. every service batch stays OK and positionally aligned mid-stream;
//   2. every estimate produced against a pinned epoch, replayed after all
//      writers quiesce against the SAME epoch object, is bit-identical —
//      estimates are pure functions of the epoch;
//   3. after the warm-up draw, every pin took the lock-free path (the
//      writer mutex is never touched by steady-state estimates).
TEST(ConcurrentServiceTest, EstimatesStayEpochConsistentUnderAppendsAndGrowth) {
  auto catalog = TwoTableCatalog();
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.02;
  options.maintain_reservoirs = true;
  options.num_threads = 4;
  CatalogEstimationService service(*catalog, options);
  const std::vector<CandidateConfiguration> candidates = MixedCandidates();

  // Warm-up draws both samples, so every pin below is steady-state.
  ASSERT_TRUE(service.EstimateAll(candidates).ok());
  const metrics::MetricsSnapshot before =
      metrics::MetricRegistry::Global().Snapshot();

  auto orders_engine = service.Engine("orders");
  auto lineitem_engine = service.Engine("lineitem");
  ASSERT_TRUE(orders_engine.ok());
  ASSERT_TRUE(lineitem_engine.ok());

  std::vector<size_t> orders_ix;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].table_name == "orders" &&
        !IsUncompressedScheme(candidates[i].scheme)) {
      orders_ix.push_back(i);
    }
  }
  ASSERT_FALSE(orders_ix.empty());

  struct PinnedResult {
    std::shared_ptr<const SampleEpoch> epoch;
    size_t candidate = 0;
    SizedCandidate sized;
  };
  constexpr int kClients = 3;
  constexpr int kRoundsPerClient = 4;
  std::vector<std::vector<PinnedResult>> pinned(kClients);
  std::atomic<int> failures{0};
  std::atomic<bool> stop{false};
  // Start barrier: clients begin only after both writers have published
  // (or failed) once, so the estimates really race appends and growth
  // instead of finishing before the writers are scheduled.
  std::atomic<int> writers_started{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int id = 0; id < kClients; ++id) {
    clients.emplace_back([&, id] {
      while (writers_started.load() < 2) std::this_thread::yield();
      EstimationEngine* engine = *orders_engine;
      for (int round = 0; round < kRoundsPerClient; ++round) {
        // Service path: coalesced, pool-fanned batches mid-stream.
        auto batch = service.EstimateAll(candidates);
        if (!batch.ok() || batch->size() != candidates.size()) {
          ++failures;
          return;
        }
        for (size_t i = 0; i < candidates.size(); ++i) {
          if ((*batch)[i].config.index.name != candidates[i].index.name) {
            ++failures;  // positional alignment / config re-stamping broke
            return;
          }
        }
        // Engine path: pin an epoch mid-stream, estimate, keep the pin for
        // the quiesced replay below.
        auto epoch = engine->PinEpoch();
        if (!epoch.ok()) {
          ++failures;
          return;
        }
        const size_t c = orders_ix[(id + round) % orders_ix.size()];
        auto sized = engine->EstimateAt(**epoch, candidates[c]);
        if (!sized.ok()) {
          ++failures;
          return;
        }
        pinned[id].push_back(PinnedResult{*epoch, c, *sized});
      }
    });
  }

  std::thread appender([&] {
    const Table* orders = *catalog->GetTable("orders");
    bool first = true;
    do {
      auto range = catalog->AppendRows("orders", DeltaRows(*orders, 200));
      const bool ok =
          range.ok() && service.NotifyAppend("orders", *range).ok();
      if (first) writers_started.fetch_add(1);
      first = false;
      if (!ok) {
        ++failures;
        return;
      }
    } while (!stop.load(std::memory_order_relaxed));
  });
  std::thread grower([&] {
    EstimationEngine* engine = *lineitem_engine;
    uint64_t target = engine->sample_rows();
    bool first = true;
    do {
      target += 40;
      const bool ok = engine->GrowSampleToEpoch(target).ok();
      if (first) writers_started.fetch_add(1);
      first = false;
      if (!ok) {
        ++failures;
        return;
      }
    } while (!stop.load(std::memory_order_relaxed));
  });

  for (std::thread& t : clients) t.join();
  stop.store(true, std::memory_order_relaxed);
  appender.join();
  grower.join();
  ASSERT_EQ(0, failures.load());
  // One more append, so the table has moved on since every pin however
  // the threads were scheduled.
  const Table* orders = *catalog->GetTable("orders");
  auto range = catalog->AppendRows("orders", DeltaRows(*orders, 200));
  ASSERT_TRUE(range.ok());
  ASSERT_TRUE(service.NotifyAppend("orders", *range).ok());

  // Quiesced replay: the same epoch object must reproduce every mid-stream
  // estimate bit for bit, no matter how far the table and sample have
  // moved on since.
  for (const auto& per_client : pinned) {
    for (const PinnedResult& p : per_client) {
      auto replay =
          (*orders_engine)->EstimateAt(*p.epoch, candidates[p.candidate]);
      ASSERT_TRUE(replay.ok());
      EXPECT_EQ(p.sized.estimated_cf, replay->estimated_cf);
      EXPECT_EQ(p.sized.estimated_bytes, replay->estimated_bytes);
      EXPECT_EQ(p.sized.uncompressed_bytes, replay->uncompressed_bytes);
      EXPECT_EQ(p.sized.sample_rows, replay->sample_rows);
    }
  }

  // Lock-freedom by counting: each engine fell through to the writer mutex
  // exactly once (its initial draw); every pin after that was the atomic
  // fast path.
  EXPECT_EQ(1u, (*orders_engine)->cache_stats().locked_pins);
  EXPECT_EQ(1u, (*lineitem_engine)->cache_stats().locked_pins);
  const metrics::MetricsSnapshot after =
      metrics::MetricRegistry::Global().Snapshot();
  auto delta = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  EXPECT_GT(delta("cfest.engine.lock_free_pins"), 0u);
  EXPECT_EQ(delta("cfest.coalescer.requests"),
            delta("cfest.coalescer.admitted") +
                delta("cfest.coalescer.merged"));
}

}  // namespace
}  // namespace cfest
