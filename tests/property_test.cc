// Cross-module randomized property tests. Each property is swept over many
// seeds (TEST_P); generators are deterministic, so failures reproduce.

#include <algorithm>
#include <limits>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress_rows.h"
#include "compression/compressed_index.h"
#include "datagen/table_gen.h"
#include "estimator/analytic_model.h"
#include "estimator/compression_fraction.h"
#include "index/comparator.h"
#include "index/index.h"
#include "sampling/sampler.h"
#include "storage/csv.h"
#include "storage/page.h"
#include "storage/table_view.h"

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

// ---------------------------------------------------------------------------
// Property: Index::Build is bit-identical to the comparison sort it replaced
// ---------------------------------------------------------------------------

/// A random schema of 1-4 columns over every type a key can have: int32,
/// int64, date, decimal, char and varchar (1-12 bytes).
Schema RandomKeySchema(Random* rng) {
  const size_t ncols = 1 + rng->NextBounded(4);
  std::vector<Column> columns;
  for (size_t c = 0; c < ncols; ++c) {
    const uint32_t len = 1 + static_cast<uint32_t>(rng->NextBounded(12));
    const DataType types[] = {Int32Type(),   Int64Type(),   DateType(),
                              DecimalType(), CharType(len), VarcharType(len)};
    std::string name = "c";
    name += std::to_string(c);
    columns.push_back({name, types[rng->NextBounded(6)]});
  }
  return std::move(Schema::Make(std::move(columns))).ValueOrDie();
}

/// Little-endian two's complement of `v` in `width` bytes (the row layout).
std::string EncodeInt(int64_t v, uint32_t width) {
  std::string cell(width, '\0');
  for (uint32_t b = 0; b < width; ++b) {
    cell[b] = static_cast<char>((static_cast<uint64_t>(v) >> (8 * b)) & 0xFF);
  }
  return cell;
}

/// `n` encoded rows of `schema`, written byte by byte so strings can hold
/// any byte (>= 0x80 included). Each column draws from one of four pools:
/// a single value (all rows equal), a few values (heavy duplicates), the
/// extremes (INT*_MIN/MAX, -1, 0, 1; all-0x00/0x7F/0x80/0xFF/space
/// strings), or fresh random bytes per row.
std::vector<std::string> RandomEncodedRows(const Schema& schema, uint64_t n,
                                           Random* rng) {
  auto random_cell = [&](uint32_t w) {
    std::string cell(w, '\0');
    for (char& ch : cell) ch = static_cast<char>(rng->NextBounded(256));
    return cell;
  };
  std::vector<std::vector<std::string>> pools(schema.num_columns());
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const uint32_t w = schema.width(c);
    switch (rng->NextBounded(4)) {
      case 0:
        pools[c].push_back(random_cell(w));
        break;
      case 1:
        for (uint64_t v = 0, d = 2 + rng->NextBounded(3); v < d; ++v) {
          pools[c].push_back(random_cell(w));
        }
        break;
      case 2:
        if (schema.column(c).type.IsString()) {
          for (const char fill : {'\x00', '\x7F', '\x80', '\xFF', ' '}) {
            pools[c].push_back(std::string(w, fill));
          }
        } else {
          const int64_t lo = w == 4 ? std::numeric_limits<int32_t>::min()
                                    : std::numeric_limits<int64_t>::min();
          const int64_t hi = w == 4 ? std::numeric_limits<int32_t>::max()
                                    : std::numeric_limits<int64_t>::max();
          for (const int64_t v : {lo, hi, int64_t{-1}, int64_t{0},
                                  int64_t{1}}) {
            pools[c].push_back(EncodeInt(v, w));
          }
        }
        break;
      default:
        break;  // empty pool: a fresh random cell per row
    }
  }
  std::vector<std::string> rows;
  for (uint64_t i = 0; i < n; ++i) {
    std::string row;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      row += pools[c].empty()
                 ? random_cell(schema.width(c))
                 : pools[c][rng->NextBounded(pools[c].size())];
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// What Index::Build produced before its radix sort, kept as the
/// reference: every row projected in source order, std::stable_sort with
/// RowComparator on the key columns, and leaves packed row by row with
/// PageBuilder. `index` supplies only the row schema and fan-out.
struct ReferenceIndex {
  std::string rows;
  IndexStats stats;
};

ReferenceIndex ReferenceBuild(const Table& table, const Index& index,
                              size_t page_size) {
  const Schema& schema = index.schema();
  const uint32_t w = schema.row_width();
  const uint64_t n = table.num_rows();
  std::string projected;
  for (RowId id = 0; id < n; ++id) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (schema.column(c).name == "__rid") {
        projected += EncodeInt(static_cast<int64_t>(id), 8);
      } else {
        const size_t source =
            table.schema().ColumnIndex(schema.column(c).name).ValueOrDie();
        projected += table.cell(id, source).ToString();
      }
    }
  }
  std::vector<uint64_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  RowComparator cmp(&schema, index.num_key_columns());
  std::stable_sort(perm.begin(), perm.end(), [&](uint64_t a, uint64_t b) {
    return cmp.Compare(Slice(projected.data() + a * w, w),
                       Slice(projected.data() + b * w, w)) < 0;
  });
  ReferenceIndex ref;
  for (const uint64_t p : perm) ref.rows.append(projected.data() + p * w, w);

  ref.stats.page_size = page_size;
  ref.stats.row_count = n;
  ref.stats.row_data_bytes = n * w;
  PageBuilder builder(0, PageType::kDataLeaf, page_size);
  auto flush = [&] {
    ref.stats.leaf_used_bytes += builder.Finish().used_bytes();
    ++ref.stats.leaf_pages;
  };
  for (uint64_t i = 0; i < n; ++i) {
    if (!builder.Fits(w)) {
      flush();
      builder = PageBuilder(ref.stats.leaf_pages, PageType::kDataLeaf,
                            page_size);
    }
    EXPECT_TRUE(builder.Add(Slice(ref.rows.data() + i * w, w)).ok());
  }
  if (!builder.empty() || n == 0) flush();
  ref.stats.internal_pages =
      InternalPageCount(ref.stats.leaf_pages, index.fanout());
  return ref;
}

std::string IndexBytes(const Index& index) {
  std::string bytes;
  for (uint64_t i = 0; i < index.num_rows(); ++i) {
    bytes += index.row(i).ToString();
  }
  return bytes;
}

/// Builds `descriptor` over `table` and checks rows, stats and (for
/// non-clustered indexes) rid order against the reference.
void ExpectBuildMatchesReference(const Table& table,
                                 const IndexDescriptor& descriptor,
                                 const IndexBuildOptions& options) {
  Result<Index> index = Index::Build(table, descriptor, options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  const ReferenceIndex ref = ReferenceBuild(table, *index, options.page_size);
  ASSERT_EQ(IndexBytes(*index), ref.rows);
  EXPECT_EQ(index->stats(), ref.stats);
  if (descriptor.clustered) return;
  // Stability, spelled out: equal keys keep ascending rids.
  RowComparator cmp(&index->schema(), index->num_key_columns());
  RowCodec codec(index->schema());
  const size_t rid_col = index->schema().num_columns() - 1;
  for (uint64_t i = 1; i < index->num_rows(); ++i) {
    if (cmp.Compare(index->row(i - 1), index->row(i)) != 0) continue;
    ASSERT_LT(codec.DecodeCell(index->row(i - 1), rid_col)->AsInt(),
              codec.DecodeCell(index->row(i), rid_col)->AsInt())
        << "row " << i;
  }
}

TEST_P(PropertyTest, IndexBuildMatchesComparisonSortReference) {
  Random rng(GetParam() * 53 + 29);
  const Schema schema = RandomKeySchema(&rng);
  // 1..all columns as keys, in random order.
  std::vector<std::string> names;
  for (const Column& column : schema.columns()) names.push_back(column.name);
  rng.Shuffle(&names);
  names.resize(1 + rng.NextBounded(names.size()));
  IndexBuildOptions options;
  options.keep_pages = false;
  options.page_size = rng.NextBernoulli(0.5) ? 512 : kDefaultPageSize;

  for (const uint64_t n : {uint64_t{0}, uint64_t{1}, uint64_t{2},
                           uint64_t{255}, uint64_t{256}, uint64_t{257},
                           uint64_t{5000} + rng.NextBounded(100)}) {
    // A base table with bulk-built rows and, past n/2, appended segments.
    const std::vector<std::string> rows = RandomEncodedRows(schema, n, &rng);
    TableBuilder builder(schema);
    for (uint64_t i = 0; i < n / 2; ++i) {
      ASSERT_TRUE(builder.AppendEncoded(Slice(rows[i])).ok());
    }
    std::unique_ptr<Table> base = builder.Finish();
    for (uint64_t i = n / 2; i < n; ++i) {
      ASSERT_TRUE(base->AppendEncodedRow(Slice(rows[i])).ok());
    }
    // A sample-shaped view (shuffled ids, repeats) and a view over that
    // view, the shape of the adaptive loop's replicate builds.
    std::vector<RowId> ids;
    for (uint64_t i = 0; i < n; ++i) ids.push_back(rng.NextBounded(n));
    std::unique_ptr<TableView> view =
        std::move(TableView::Make(*base, ids)).ValueOrDie();
    std::vector<RowId> nested_ids;
    for (uint64_t i = 0; i < n; ++i) nested_ids.push_back(n - 1 - i);
    std::unique_ptr<TableView> nested =
        std::move(TableView::Make(*view, nested_ids)).ValueOrDie();

    const Table* const tables[] = {base.get(), view.get(), nested.get()};
    const char* const shapes[] = {"base", "view", "view over view"};
    for (const bool clustered : {false, true}) {
      const IndexDescriptor descriptor{"ix", names, clustered};
      for (size_t t = 0; t < 3; ++t) {
        SCOPED_TRACE(::testing::Message() << shapes[t] << " n " << n
                                          << " clustered " << clustered);
        ExpectBuildMatchesReference(*tables[t], descriptor, options);
      }
    }
  }
}

// Patched splices the changed rows of a new source into an index built on
// the old one; it must equal Build over the new source, byte for byte and
// stat for stat. Sources are sample-shaped views over one base table whose
// rows repeat keys heavily; replacements and appends re-use ids of the old
// view, so duplicate keys straddle leaving, staying and entering rows.
TEST_P(PropertyTest, PatchedEqualsBuild) {
  Random rng(GetParam() * 59 + 31);
  const Schema schema = RandomKeySchema(&rng);
  const uint64_t n = 600 + rng.NextBounded(400);
  const std::vector<std::string> rows = RandomEncodedRows(schema, n, &rng);
  TableBuilder builder(schema);
  for (const std::string& row : rows) {
    ASSERT_TRUE(builder.AppendEncoded(Slice(row)).ok());
  }
  std::unique_ptr<Table> base = builder.Finish();
  std::vector<std::string> names;
  for (const Column& column : schema.columns()) names.push_back(column.name);
  rng.Shuffle(&names);
  names.resize(1 + rng.NextBounded(names.size()));
  IndexBuildOptions options;
  options.keep_pages = false;
  options.page_size = rng.NextBernoulli(0.5) ? 512 : kDefaultPageSize;

  // One patch: `old_n` old slots, of which `replace` change, plus `append`
  // new slots. Changed positions go in shuffled, each replaced one possibly
  // twice (a reservoir slot can be written more than once per append).
  auto check = [&](const char* shape, uint64_t old_n, uint64_t replace,
                   uint64_t append) {
    SCOPED_TRACE(::testing::Message() << shape << " old " << old_n
                                      << " replace " << replace << " append "
                                      << append);
    std::vector<RowId> old_ids;
    for (uint64_t i = 0; i < old_n; ++i) old_ids.push_back(rng.NextBounded(n));
    auto fresh_id = [&] {
      const bool repeat = old_n > 0 && rng.NextBernoulli(0.3);
      return repeat ? old_ids[rng.NextBounded(old_n)] : rng.NextBounded(n);
    };
    std::vector<uint64_t> slots(old_n);
    std::iota(slots.begin(), slots.end(), 0);
    rng.Shuffle(&slots);
    slots.resize(replace);
    std::vector<RowId> new_ids = old_ids;
    std::vector<uint64_t> changed;
    for (const uint64_t slot : slots) {
      new_ids[slot] = fresh_id();
      changed.push_back(slot);
      if (rng.NextBernoulli(0.2)) changed.push_back(slot);
    }
    for (uint64_t i = 0; i < append; ++i) {
      new_ids.push_back(fresh_id());
      changed.push_back(old_n + i);
    }
    rng.Shuffle(&changed);
    auto old_view = std::move(TableView::Make(*base, old_ids)).ValueOrDie();
    auto new_view = std::move(TableView::Make(*base, new_ids)).ValueOrDie();

    for (const bool clustered : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "clustered " << clustered);
      const IndexDescriptor descriptor{"ix", names, clustered};
      Result<Index> old_index = Index::Build(*old_view, descriptor, options);
      ASSERT_TRUE(old_index.ok()) << old_index.status().ToString();
      Result<Index> patched =
          old_index->Patched(*old_view, *new_view, changed, options);
      if (clustered && replace > 0) {
        // No __rid: a replaced clustered row has no place among equal keys.
        EXPECT_TRUE(patched.status().IsInvalidArgument())
            << patched.status().ToString();
        continue;
      }
      ASSERT_TRUE(patched.ok()) << patched.status().ToString();
      Result<Index> full = Index::Build(*new_view, descriptor, options);
      ASSERT_TRUE(full.ok());
      ASSERT_EQ(IndexBytes(*patched), IndexBytes(*full));
      EXPECT_EQ(patched->stats(), full->stats());
      ExpectBuildMatchesReference(*new_view, descriptor, options);
    }
  };

  const uint64_t old_n = 200 + rng.NextBounded(400);
  check("random", old_n, rng.NextBounded(old_n / 4 + 1),
        rng.NextBounded(old_n / 4 + 1));
  check("replace only", old_n, 1 + rng.NextBounded(old_n / 8), 0);
  // Append-only: frozen-draw growth, and a filling reservoir.
  check("append only", old_n, 0, 1 + rng.NextBounded(old_n));
  check("all slots", old_n, old_n, 0);
  check("all slots and appends", old_n, old_n, rng.NextBounded(50));
  check("nothing", old_n, 0, 0);
  check("empty", 0, 0, 0);
  check("empty, appended", 0, 0, 1 + rng.NextBounded(50));
  check("capacity 1", 1, 1, 0);
  check("capacity 1, unchanged", 1, 0, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyTest,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace cfest
