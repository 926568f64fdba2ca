// Cross-module randomized property tests. Each property is swept over many
// seeds (TEST_P); generators are deterministic, so failures reproduce.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compression/compressed_index.h"
#include "datagen/table_gen.h"
#include "estimator/analytic_model.h"
#include "estimator/compression_fraction.h"
#include "index/comparator.h"
#include "index/index.h"
#include "sampling/sampler.h"
#include "storage/csv.h"

namespace cfest {
namespace {

/// A random schema of 1-4 columns with random types and widths.
Schema RandomSchema(Random* rng) {
  const size_t ncols = 1 + rng->NextBounded(4);
  std::vector<Column> columns;
  for (size_t c = 0; c < ncols; ++c) {
    std::string name = "c";
    name += std::to_string(c);
    switch (rng->NextBounded(5)) {
      case 0:
        columns.push_back({name, Int32Type()});
        break;
      case 1:
        columns.push_back({name, Int64Type()});
        break;
      case 2:
        columns.push_back({name, DateType()});
        break;
      default:
        columns.push_back(
            {name, CharType(4 + static_cast<uint32_t>(rng->NextBounded(40)))});
        break;
    }
  }
  return std::move(Schema::Make(std::move(columns))).ValueOrDie();
}

/// A random table over `schema` with random cardinalities and lengths.
std::unique_ptr<Table> RandomTable(const Schema& schema, uint64_t n,
                                   Random* rng) {
  TableBuilder builder(schema);
  builder.Reserve(n);
  // Per-column value pools to control duplication.
  std::vector<std::vector<Value>> pools(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const uint64_t d = 1 + rng->NextBounded(n);
    for (uint64_t v = 0; v < d; ++v) {
      if (schema.column(c).type.IsString()) {
        const uint32_t k = schema.column(c).type.length;
        const uint32_t len =
            static_cast<uint32_t>(rng->NextBounded(k + 1));
        std::string s;
        for (uint32_t i = 0; i < len; ++i) {
          s.push_back('a' + static_cast<char>(rng->NextBounded(26)));
        }
        pools[c].push_back(Value::Str(std::move(s)));
      } else {
        const uint32_t w = schema.column(c).type.FixedWidth();
        const int64_t lo = w < 8 ? -(1ll << (8 * w - 1)) : INT64_MIN / 2;
        const int64_t hi = w < 8 ? (1ll << (8 * w - 1)) - 1 : INT64_MAX / 2;
        pools[c].push_back(Value::Int(rng->NextInRange(lo, hi)));
      }
    }
  }
  Row row(schema.num_columns());
  for (uint64_t i = 0; i < n; ++i) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      row[c] = pools[c][rng->NextBounded(pools[c].size())];
    }
    EXPECT_TRUE(builder.Append(row).ok());
  }
  return builder.Finish();
}

class PropertyTest : public ::testing::TestWithParam<uint64_t> {};

// ---------------------------------------------------------------------------
// Property: compress(decode) is the identity for every scheme on random data
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, CompressionRoundTripsOnRandomTables) {
  Random rng(GetParam());
  Schema schema = RandomSchema(&rng);
  auto table = RandomTable(schema, 200 + rng.NextBounded(400), &rng);
  std::vector<Slice> rows;
  for (RowId id = 0; id < table->num_rows(); ++id) {
    rows.push_back(table->row(id));
  }
  for (CompressionType type : AllCompressionTypes()) {
    // Build a scheme applying `type` where possible, kNone elsewhere.
    CompressionScheme scheme;
    scheme.per_column.assign(schema.num_columns(), CompressionType::kNone);
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (MakeColumnCompressor(type, schema.column(c).type).ok()) {
        scheme.per_column[c] = type;
      }
    }
    IndexBuildOptions options;
    options.page_size = 1024 + rng.NextBounded(8) * 1024;
    Result<CompressedIndex> compressed =
        CompressRows(schema, scheme, rows, options);
    ASSERT_TRUE(compressed.ok())
        << CompressionTypeName(type) << ": " << compressed.status();
    std::vector<std::string> decoded;
    ASSERT_TRUE(compressed->DecodeAllRows(&decoded).ok())
        << CompressionTypeName(type);
    ASSERT_EQ(decoded.size(), rows.size()) << CompressionTypeName(type);
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(Slice(decoded[i]), rows[i])
          << CompressionTypeName(type) << " row " << i;
    }
    // Page invariant: used bytes never exceed the page size.
    for (const Page& page : compressed->pages()) {
      ASSERT_LE(page.used_bytes(), options.page_size);
    }
  }
}

// ---------------------------------------------------------------------------
// Property: encoded-row comparison agrees with decoded Value comparison
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, ComparatorAgreesWithDecodedOrder) {
  Random rng(GetParam() * 31 + 7);
  Schema schema = RandomSchema(&rng);
  auto table = RandomTable(schema, 120, &rng);
  RowComparator cmp(&schema, schema.num_columns());
  RowCodec codec(schema);
  for (int trial = 0; trial < 200; ++trial) {
    const RowId a = rng.NextBounded(table->num_rows());
    const RowId b = rng.NextBounded(table->num_rows());
    const int encoded_cmp = cmp.Compare(table->row(a), table->row(b));
    const Row ra = *table->DecodeRow(a);
    const Row rb = *table->DecodeRow(b);
    int decoded_cmp = 0;
    for (size_t c = 0; c < ra.size() && decoded_cmp == 0; ++c) {
      if (schema.column(c).type.IsString()) {
        // Encoded strings compare blank-padded; emulate on decoded values.
        std::string pa = ra[c].AsString();
        std::string pb = rb[c].AsString();
        pa.resize(schema.width(c), ' ');
        pb.resize(schema.width(c), ' ');
        decoded_cmp = pa.compare(pb);
      } else {
        decoded_cmp = ra[c].AsInt() < rb[c].AsInt()
                          ? -1
                          : (ra[c].AsInt() > rb[c].AsInt() ? 1 : 0);
      }
    }
    const auto sign = [](int v) { return v < 0 ? -1 : (v > 0 ? 1 : 0); };
    ASSERT_EQ(sign(encoded_cmp), sign(decoded_cmp))
        << "rows " << a << " vs " << b;
  }
}

// ---------------------------------------------------------------------------
// Property: index build emits a sorted permutation of its input
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, IndexBuildIsSortedPermutation) {
  Random rng(GetParam() * 97 + 13);
  Schema schema = RandomSchema(&rng);
  auto table = RandomTable(schema, 300, &rng);
  IndexDescriptor desc{"cx", {schema.column(0).name}, /*clustered=*/true};
  IndexBuildOptions options;
  options.keep_pages = false;
  auto index = Index::Build(*table, desc, options);
  ASSERT_TRUE(index.ok());
  // Sorted by the key comparator.
  RowComparator cmp(&index->schema(), 1);
  for (uint64_t i = 1; i < index->num_rows(); ++i) {
    ASSERT_LE(cmp.Compare(index->row(i - 1), index->row(i)), 0) << i;
  }
  // Permutation: multisets of serialized rows match. Index rows are the
  // table rows with columns permuted (key first), so compare per-column
  // multisets through the key column only (cheap and sufficient here).
  std::vector<std::string> table_keys, index_keys;
  const size_t key_col = 0;
  Result<size_t> table_col_result =
      table->schema().ColumnIndex(desc.key_columns[0]);
  ASSERT_TRUE(table_col_result.ok());
  const size_t table_col = *table_col_result;
  for (RowId id = 0; id < table->num_rows(); ++id) {
    table_keys.push_back(table->cell(id, table_col).ToString());
  }
  RowCodec codec(index->schema());
  for (uint64_t i = 0; i < index->num_rows(); ++i) {
    index_keys.push_back(
        codec.Cell(index->row(i), key_col).ToString());
  }
  std::sort(table_keys.begin(), table_keys.end());
  std::sort(index_keys.begin(), index_keys.end());
  ASSERT_EQ(table_keys, index_keys);
}

// ---------------------------------------------------------------------------
// Property: analytic NS closed form equals constructive bytes exactly
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, NsClosedFormExactOnSinglePage) {
  Random rng(GetParam() * 131 + 3);
  const uint32_t k = 8 + static_cast<uint32_t>(rng.NextBounded(30));
  Schema schema =
      std::move(Schema::Make({{"a", CharType(k)}})).ValueOrDie();
  auto table = RandomTable(schema, 50 + rng.NextBounded(100), &rng);
  std::vector<Slice> rows;
  for (RowId id = 0; id < table->num_rows(); ++id) {
    rows.push_back(table->row(id));
  }
  IndexBuildOptions options;
  options.page_size = 65535;  // everything in one page -> one chunk
  auto compressed = CompressRows(
      schema, CompressionScheme::Uniform(CompressionType::kNullSuppression),
      rows, options);
  ASSERT_TRUE(compressed.ok());
  auto stats = AnalyzeColumn(*table, 0);
  ASSERT_TRUE(stats.ok());
  // chunk = u16 count + sum(l_i + 1 header byte).
  EXPECT_EQ(compressed->stats().chunk_bytes,
            2u + stats->sum_lengths + stats->n * 1u);
}

// ---------------------------------------------------------------------------
// Property: samplers produce valid ids at every fraction
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, SamplersProduceValidSamples) {
  Random rng(GetParam() * 17 + 29);
  Schema schema =
      std::move(Schema::Make({{"v", Int64Type()}})).ValueOrDie();
  auto table = RandomTable(schema, 50 + rng.NextBounded(1000), &rng);
  std::vector<std::unique_ptr<RowSampler>> samplers;
  samplers.push_back(MakeUniformWithReplacementSampler());
  samplers.push_back(MakeUniformWithoutReplacementSampler());
  samplers.push_back(MakeBernoulliSampler());
  samplers.push_back(MakeReservoirSampler());
  samplers.push_back(MakeBlockSampler(1 + rng.NextBounded(64)));
  for (const auto& sampler : samplers) {
    const double f = 0.01 + rng.NextDouble() * 0.99;
    auto ids = sampler->SampleIds(*table, f, &rng);
    ASSERT_TRUE(ids.ok()) << sampler->name();
    ASSERT_FALSE(ids->empty()) << sampler->name();
    for (RowId id : *ids) ASSERT_LT(id, table->num_rows());
    if (sampler->name() == "uniform_wor" || sampler->name() == "reservoir") {
      std::vector<RowId> sorted = *ids;
      std::sort(sorted.begin(), sorted.end());
      ASSERT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << sampler->name() << " produced duplicates";
    }
  }
}

// ---------------------------------------------------------------------------
// Property: CSV round trip on random tables
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, CsvRoundTripsRandomTables) {
  Random rng(GetParam() * 211 + 5);
  Schema schema = RandomSchema(&rng);
  auto table = RandomTable(schema, 80, &rng);
  const std::string csv = WriteCsv(*table);
  auto reloaded = LoadCsv(csv, schema);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status();
  ASSERT_EQ((*reloaded)->num_rows(), table->num_rows());
  for (RowId id = 0; id < table->num_rows(); ++id) {
    // Compare decoded rows: CSV canonicalizes trailing blanks exactly like
    // the codec does, so decoded values must match.
    ASSERT_EQ(*(*reloaded)->DecodeRow(id), *table->DecodeRow(id)) << id;
  }
}

// ---------------------------------------------------------------------------
// Property: every scheme's CF is positive and page-based >= byte-based sizes
// ---------------------------------------------------------------------------

TEST_P(PropertyTest, SizeMetricsAreOrdered) {
  Random rng(GetParam() * 41 + 11);
  Schema schema = RandomSchema(&rng);
  auto table = RandomTable(schema, 400, &rng);
  IndexDescriptor desc{"cx", {schema.column(0).name}, true};
  for (CompressionType type :
       {CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
        CompressionType::kPrefixDictionary}) {
    auto data_cf = ComputeTrueCF(*table, desc, CompressionScheme::Uniform(type),
                                 SizeMetric::kDataBytes);
    auto used_cf = ComputeTrueCF(*table, desc, CompressionScheme::Uniform(type),
                                 SizeMetric::kUsedBytes);
    auto page_cf = ComputeTrueCF(*table, desc, CompressionScheme::Uniform(type),
                                 SizeMetric::kPageBytes);
    ASSERT_TRUE(data_cf.ok());
    ASSERT_TRUE(used_cf.ok());
    ASSERT_TRUE(page_cf.ok());
    EXPECT_GT(data_cf->value, 0.0);
    // Page-granular absolute sizes dominate byte-granular ones.
    EXPECT_GE(page_cf->compressed_bytes, used_cf->compressed_bytes);
    EXPECT_GE(used_cf->compressed_bytes, data_cf->compressed_bytes);
    EXPECT_GE(page_cf->uncompressed_bytes, used_cf->uncompressed_bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace cfest
