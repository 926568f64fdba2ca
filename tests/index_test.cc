// Tests for the index substrate: typed comparators, bulk build (sorting,
// clustered vs non-clustered projection, leaf packing, builds racing an
// appender), patching a built index, size accounting, and compression of
// index rows, whose grouped columns size exactly like hashed ones.

#include <algorithm>
#include <atomic>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "compression/kernels.h"
#include "datagen/table_gen.h"
#include "estimator/sample_cf.h"
#include "index/comparator.h"
#include "index/index.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace cfest {
namespace {

std::unique_ptr<Table> MakeTable(const std::vector<Row>& rows) {
  Schema schema = std::move(Schema::Make({{"name", CharType(8)},
                                          {"score", Int32Type()},
                                          {"payload", CharType(12)}}))
                      .ValueOrDie();
  TableBuilder builder(schema);
  for (const Row& row : rows) {
    EXPECT_TRUE(builder.Append(row).ok());
  }
  return builder.Finish();
}

std::unique_ptr<Table> ScoresTable() {
  return MakeTable({
      {Value::Str("carol"), Value::Int(30), Value::Str("p1")},
      {Value::Str("alice"), Value::Int(-5), Value::Str("p2")},
      {Value::Str("bob"), Value::Int(100), Value::Str("p3")},
      {Value::Str("alice"), Value::Int(7), Value::Str("p4")},
  });
}

// ---------------------------------------------------------------------------
// Comparator
// ---------------------------------------------------------------------------

TEST(ComparatorTest, StringOrdering) {
  Schema schema =
      std::move(Schema::Make({{"s", CharType(4)}})).ValueOrDie();
  RowCodec codec(schema);
  std::string a, b;
  ASSERT_TRUE(codec.Encode({Value::Str("ab")}, &a).ok());
  ASSERT_TRUE(codec.Encode({Value::Str("b")}, &b).ok());
  RowComparator cmp(&schema, 1);
  EXPECT_LT(cmp.Compare(Slice(a), Slice(b)), 0);
  EXPECT_GT(cmp.Compare(Slice(b), Slice(a)), 0);
  EXPECT_EQ(cmp.Compare(Slice(a), Slice(a)), 0);
}

TEST(ComparatorTest, IntegerOrderingWithNegatives) {
  Schema schema =
      std::move(Schema::Make({{"v", Int32Type()}})).ValueOrDie();
  RowCodec codec(schema);
  auto encode = [&](int64_t v) {
    std::string buf;
    EXPECT_TRUE(codec.Encode({Value::Int(v)}, &buf).ok());
    return buf;
  };
  RowComparator cmp(&schema, 1);
  const std::vector<int64_t> ordered = {-2000000, -1, 0, 1, 255, 256, 2000000};
  for (size_t i = 0; i + 1 < ordered.size(); ++i) {
    const std::string lo = encode(ordered[i]);
    const std::string hi = encode(ordered[i + 1]);
    EXPECT_LT(cmp.Compare(Slice(lo), Slice(hi)), 0)
        << ordered[i] << " vs " << ordered[i + 1];
  }
}

TEST(ComparatorTest, Int64Extremes) {
  Schema schema =
      std::move(Schema::Make({{"v", Int64Type()}})).ValueOrDie();
  RowCodec codec(schema);
  auto encode = [&](int64_t v) {
    std::string buf;
    EXPECT_TRUE(codec.Encode({Value::Int(v)}, &buf).ok());
    return buf;
  };
  RowComparator cmp(&schema, 1);
  const std::string lo = encode(INT64_MIN);
  const std::string hi = encode(INT64_MAX);
  const std::string zero = encode(0);
  EXPECT_LT(cmp.Compare(Slice(lo), Slice(zero)), 0);
  EXPECT_LT(cmp.Compare(Slice(zero), Slice(hi)), 0);
}

TEST(ComparatorTest, MultiColumnLexicographic) {
  Schema schema = std::move(Schema::Make({{"a", CharType(2)},
                                          {"b", Int32Type()}}))
                      .ValueOrDie();
  RowCodec codec(schema);
  auto encode = [&](const std::string& s, int64_t v) {
    std::string buf;
    EXPECT_TRUE(codec.Encode({Value::Str(s), Value::Int(v)}, &buf).ok());
    return buf;
  };
  RowComparator cmp(&schema, 2);
  EXPECT_LT(cmp.Compare(Slice(encode("a", 9)), Slice(encode("b", 1))), 0);
  EXPECT_LT(cmp.Compare(Slice(encode("a", 1)), Slice(encode("a", 9))), 0);
  // Only the first column is the key if num_key_columns == 1.
  RowComparator cmp1(&schema, 1);
  EXPECT_EQ(cmp1.Compare(Slice(encode("a", 1)), Slice(encode("a", 9))), 0);
}

// ---------------------------------------------------------------------------
// Index build
// ---------------------------------------------------------------------------

TEST(IndexBuildTest, NonClusteredSchemaHasKeyPlusRid) {
  auto table = ScoresTable();
  IndexDescriptor desc{"ix_score", {"score"}, /*clustered=*/false};
  Result<Index> index = Index::Build(*table, desc);
  ASSERT_TRUE(index.ok()) << index.status();
  EXPECT_EQ(index->schema().num_columns(), 2u);
  EXPECT_EQ(index->schema().column(0).name, "score");
  EXPECT_EQ(index->schema().column(1).name, "__rid");
  EXPECT_EQ(index->schema().row_width(), 12u);
  EXPECT_EQ(index->num_rows(), 4u);
}

TEST(IndexBuildTest, ClusteredSchemaReordersKeyFirst) {
  auto table = ScoresTable();
  IndexDescriptor desc{"cx", {"score"}, /*clustered=*/true};
  Result<Index> index = Index::Build(*table, desc);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->schema().num_columns(), 3u);
  EXPECT_EQ(index->schema().column(0).name, "score");
  EXPECT_EQ(index->schema().column(1).name, "name");
  EXPECT_EQ(index->schema().column(2).name, "payload");
  EXPECT_EQ(index->schema().row_width(), table->row_width());
}

TEST(IndexBuildTest, RowsSortedByKey) {
  auto table = ScoresTable();
  IndexDescriptor desc{"ix", {"score"}, false};
  Result<Index> index = Index::Build(*table, desc);
  ASSERT_TRUE(index.ok());
  RowCodec codec(index->schema());
  std::vector<int64_t> scores;
  for (uint64_t i = 0; i < index->num_rows(); ++i) {
    scores.push_back(codec.DecodeCell(index->row(i), 0)->AsInt());
  }
  EXPECT_EQ(scores, (std::vector<int64_t>{-5, 7, 30, 100}));
}

TEST(IndexBuildTest, RidsPointBackToHeapRows) {
  auto table = ScoresTable();
  IndexDescriptor desc{"ix", {"name"}, false};
  Result<Index> index = Index::Build(*table, desc);
  ASSERT_TRUE(index.ok());
  RowCodec codec(index->schema());
  // "alice" rows (heap ids 1 and 3) come first; stable sort keeps heap order.
  EXPECT_EQ(codec.DecodeCell(index->row(0), 1)->AsInt(), 1);
  EXPECT_EQ(codec.DecodeCell(index->row(1), 1)->AsInt(), 3);
  EXPECT_EQ(codec.DecodeCell(index->row(0), 0)->AsString(), "alice");
}

TEST(IndexBuildTest, MultiColumnKeySequenceRespected) {
  auto table = ScoresTable();
  IndexDescriptor desc{"ix", {"name", "score"}, false};
  Result<Index> index = Index::Build(*table, desc);
  ASSERT_TRUE(index.ok());
  RowCodec codec(index->schema());
  // alice rows ordered by score: -5 then 7.
  EXPECT_EQ(codec.DecodeCell(index->row(0), 1)->AsInt(), -5);
  EXPECT_EQ(codec.DecodeCell(index->row(1), 1)->AsInt(), 7);
}

TEST(IndexBuildTest, RejectsBadDescriptors) {
  auto table = ScoresTable();
  EXPECT_FALSE(Index::Build(*table, {"ix", {}, false}).ok());
  EXPECT_FALSE(Index::Build(*table, {"ix", {"nope"}, false}).ok());
  EXPECT_FALSE(Index::Build(*table, {"ix", {"name", "name"}, false}).ok());
}

TEST(IndexBuildTest, EmptyTableStillOwnsOnePage) {
  Schema schema =
      std::move(Schema::Make({{"v", Int32Type()}})).ValueOrDie();
  TableBuilder builder(schema);
  auto table = builder.Finish();
  Result<Index> index = Index::Build(*table, {"ix", {"v"}, false});
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->stats().leaf_pages, 1u);
  EXPECT_EQ(index->stats().internal_pages, 0u);
  EXPECT_EQ(index->num_rows(), 0u);
}

TEST(IndexPatchTest, RejectsInconsistentInputs) {
  auto table = ScoresTable();
  auto view = [&](std::vector<RowId> ids) {
    return std::move(TableView::Make(*table, std::move(ids))).ValueOrDie();
  };
  // Slot 1 goes from (alice, -5) to (alice, 7): an equal key whose place
  // only the __rid settles. Slot 3 is appended.
  auto old_view = view({0, 1, 2});
  auto new_view = view({0, 3, 2, 1});
  const IndexDescriptor by_name{"ix", {"name"}, false};
  Result<Index> index = Index::Build(*old_view, by_name);
  ASSERT_TRUE(index.ok());

  Result<Index> patched = index->Patched(*old_view, *new_view, {3, 1});
  ASSERT_TRUE(patched.ok()) << patched.status().ToString();
  Result<Index> built = Index::Build(*new_view, by_name);
  ASSERT_TRUE(built.ok());
  ASSERT_EQ(patched->num_rows(), built->num_rows());
  for (uint64_t i = 0; i < built->num_rows(); ++i) {
    EXPECT_EQ(patched->row(i).ToString(), built->row(i).ToString()) << i;
  }
  EXPECT_EQ(patched->stats(), built->stats());

  // The appended position is missing, or a position is past the new end.
  EXPECT_TRUE(index->Patched(*old_view, *new_view, {1})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(index->Patched(*old_view, *new_view, {1, 3, 4})
                  .status()
                  .IsInvalidArgument());
  // A patch never shrinks the source.
  EXPECT_TRUE(
      index->Patched(*old_view, *view({0, 1}), {}).status().IsInvalidArgument());
  // The old source must hold the rows the index was built on: (bob, rid 1)
  // is not in it.
  EXPECT_TRUE(index->Patched(*view({0, 2, 2}), *new_view, {1, 3})
                  .status()
                  .IsInvalidArgument());
  // The page size must be the original build's.
  IndexBuildOptions small;
  small.page_size = 512;
  EXPECT_TRUE(index->Patched(*old_view, *new_view, {1, 3}, small)
                  .status()
                  .IsInvalidArgument());

  // Clustered: appends patch, a replaced slot does not.
  const IndexDescriptor clustered{"cx", {"name"}, true};
  Result<Index> cindex = Index::Build(*old_view, clustered);
  ASSERT_TRUE(cindex.ok());
  auto grown = view({0, 1, 2, 3});
  Result<Index> cpatched = cindex->Patched(*old_view, *grown, {3});
  ASSERT_TRUE(cpatched.ok()) << cpatched.status().ToString();
  Result<Index> cbuilt = Index::Build(*grown, clustered);
  ASSERT_TRUE(cbuilt.ok());
  for (uint64_t i = 0; i < cbuilt->num_rows(); ++i) {
    EXPECT_EQ(cpatched->row(i).ToString(), cbuilt->row(i).ToString()) << i;
  }
  EXPECT_TRUE(cindex->Patched(*old_view, *new_view, {1, 3})
                  .status()
                  .IsInvalidArgument());
}

/// A table of `n` int64 rows 0..n-1.
std::unique_ptr<Table> SequenceTable(uint64_t n) {
  Schema schema =
      std::move(Schema::Make({{"v", Int64Type()}})).ValueOrDie();
  TableBuilder builder(schema);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(builder.Append({Value::Int(static_cast<int64_t>(i))}).ok());
  }
  return builder.Finish();
}

/// Builds `descriptor` over `table` with and without page images and checks
/// that both give the same stats, and that the images agree with them:
/// one page per counted leaf, every leaf but the last holding
/// `per_page` rows, the index rows in order, used bytes summing to
/// leaf_used_bytes.
void ExpectPagesMatchArithmetic(const Table& table,
                                const IndexDescriptor& descriptor,
                                size_t page_size, uint64_t per_page) {
  IndexBuildOptions counted;
  counted.page_size = page_size;
  counted.keep_pages = false;
  IndexBuildOptions paged = counted;
  paged.keep_pages = true;
  Result<Index> without = Index::Build(table, descriptor, counted);
  Result<Index> with = Index::Build(table, descriptor, paged);
  ASSERT_TRUE(without.ok()) << without.status().ToString();
  ASSERT_TRUE(with.ok()) << with.status().ToString();
  EXPECT_TRUE(without->leaf_pages().empty());
  EXPECT_EQ(without->stats(), with->stats());

  const IndexStats& stats = with->stats();
  const uint64_t n = table.num_rows();
  const uint64_t w = with->schema().row_width();
  EXPECT_EQ(stats.leaf_pages, n == 0 ? 1 : (n + per_page - 1) / per_page);
  EXPECT_EQ(stats.leaf_used_bytes,
            stats.leaf_pages * kPageHeaderSize + n * (w + kSlotSize));
  EXPECT_EQ(stats.internal_pages,
            InternalPageCount(stats.leaf_pages, with->fanout()));
  ASSERT_EQ(with->leaf_pages().size(), stats.leaf_pages);
  uint64_t used = 0;
  uint64_t row = 0;
  for (size_t p = 0; p < with->leaf_pages().size(); ++p) {
    const Page& page = with->leaf_pages()[p];
    used += page.used_bytes();
    EXPECT_EQ(page.page_id(), p);
    EXPECT_EQ(page.page_size(), page_size);
    if (p + 1 < with->leaf_pages().size()) {
      EXPECT_EQ(page.slot_count(), per_page) << "page " << p;
    }
    for (uint16_t slot = 0; slot < page.slot_count(); ++slot, ++row) {
      Result<Slice> record = page.record(slot);
      ASSERT_TRUE(record.ok());
      ASSERT_EQ(*record, with->row(row)) << "page " << p << " slot " << slot;
    }
  }
  EXPECT_EQ(row, n);
  EXPECT_EQ(used, stats.leaf_used_bytes);
}

TEST(IndexBuildTest, LeafPackingMatchesArithmetic) {
  auto table = SequenceTable(10000);
  IndexBuildOptions options;
  options.page_size = 4096;
  options.keep_pages = false;
  Result<Index> index = Index::Build(*table, {"ix", {"v"}, false}, options);
  ASSERT_TRUE(index.ok());
  // Row: 8 (key) + 8 (rid) = 16 bytes + 4 slot; capacity 4096-32 = 4064.
  const uint64_t per_page = 4064 / 20;  // 203
  const uint64_t expected_leaves = (10000 + per_page - 1) / per_page;
  EXPECT_EQ(index->stats().leaf_pages, expected_leaves);
  EXPECT_GT(index->stats().internal_pages, 0u);
  EXPECT_EQ(index->stats().row_data_bytes, 10000u * 16u);

  // Page sizes x row counts at and around a page boundary: the arithmetic
  // stats equal what packing real page images gives.
  for (const size_t page_size : {size_t{64}, size_t{512}, size_t{4096},
                                 size_t{8192}, size_t{16384}}) {
    const uint64_t rows_per_page = (page_size - kPageHeaderSize) / 20;
    for (const uint64_t n :
         {uint64_t{0}, uint64_t{1}, rows_per_page - 1, rows_per_page,
          rows_per_page + 1, 3 * rows_per_page - 1, 3 * rows_per_page,
          3 * rows_per_page + 1}) {
      SCOPED_TRACE("page_size " + std::to_string(page_size) + " n " +
                   std::to_string(n));
      auto sized = SequenceTable(n);
      ExpectPagesMatchArithmetic(*sized, {"ix", {"v"}, false}, page_size,
                                 rows_per_page);
    }
  }
}

TEST(IndexBuildTest, StatsBytesConsistentWithPages) {
  auto table = ScoresTable();
  IndexBuildOptions options;
  options.keep_pages = true;
  Result<Index> index = Index::Build(*table, {"ix", {"name"}, true}, options);
  ASSERT_TRUE(index.ok());
  uint64_t used = 0;
  for (const Page& page : index->leaf_pages()) used += page.used_bytes();
  EXPECT_EQ(used, index->stats().leaf_used_bytes);
  EXPECT_EQ(index->leaf_pages().size(), index->stats().leaf_pages);

  // Clustered rows are 24 bytes, non-clustered name rows 16: small pages
  // hold one, two or three of them, so the four rows span several leaves.
  for (const bool clustered : {true, false}) {
    const uint64_t w = clustered ? 24 : 16;
    for (const size_t page_size : {size_t{64}, size_t{96}, size_t{128},
                                   size_t{kDefaultPageSize}}) {
      SCOPED_TRACE("clustered " + std::to_string(clustered) + " page_size " +
                   std::to_string(page_size));
      ExpectPagesMatchArithmetic(
          *table, {"ix", {"name"}, clustered}, page_size,
          (page_size - kPageHeaderSize) / (w + kSlotSize));
    }
  }
}

TEST(IndexBuildTest, RejectsRowsWiderThanAPage) {
  auto table = ScoresTable();
  IndexBuildOptions options;
  options.page_size = 32 + 4 + 23;  // one byte short of a 24-byte row
  EXPECT_FALSE(Index::Build(*table, {"ix", {"name"}, true}, options).ok());
  options.page_size = 32 + 4 + 24;
  EXPECT_TRUE(Index::Build(*table, {"ix", {"name"}, true}, options).ok());
}

// A base table may grow while an index is built over it (one appender, any
// number of readers). The build reads one snapshot of the row count, so its
// stats, rows and rids always describe the same prefix of the table.
TEST(IndexBuildTest, BuildSnapshotsRowCountUnderConcurrentAppends) {
  Schema schema = std::move(Schema::Make({{"k", Int64Type()},
                                          {"pad", CharType(12)}}))
                      .ValueOrDie();
  TableBuilder builder(schema);
  Random rng(5);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(builder
                    .Append({Value::Int(rng.NextInRange(-500, 500)),
                             Value::Str("base")})
                    .ok());
  }
  std::unique_ptr<Table> table = builder.Finish();
  RowCodec table_codec(schema);

  // The writer appends until the reader has finished its rounds (or the
  // cap), so every round races live appends. A jthread stops and joins on
  // every exit, failed assertions included.
  constexpr int kMaxAppends = 100000;
  constexpr int kRounds = 10;
  std::atomic<bool> started{false};
  std::atomic<int> appended{0};
  std::jthread writer([&](std::stop_token stop) {
    Random writer_rng(6);
    for (int i = 0; i < kMaxAppends && !stop.stop_requested(); ++i) {
      const Row row = {Value::Int(writer_rng.NextInRange(-500, 500)),
                       Value::Str("append")};
      EXPECT_TRUE(table->AppendRow(row).ok());
      appended.fetch_add(1, std::memory_order_relaxed);
      started.store(true, std::memory_order_release);
    }
  });
  // Start building only once the writer is appending.
  while (!started.load(std::memory_order_acquire)) std::this_thread::yield();

  IndexBuildOptions options;
  options.keep_pages = false;
  for (int round = 0; round < kRounds; ++round) {
    for (const bool clustered : {false, true}) {
      Result<Index> index =
          Index::Build(*table, {"ix", {"k"}, clustered}, options);
      ASSERT_TRUE(index.ok()) << index.status().ToString();
      const uint64_t n = index->num_rows();
      ASSERT_EQ(n, index->stats().row_count);
      ASSERT_EQ(index->stats().row_data_bytes, n * index->schema().row_width());
      ASSERT_GE(n, 1000u);
      ASSERT_LE(n, table->num_rows());
      RowComparator cmp(&index->schema(), 1);
      RowCodec codec(index->schema());
      for (uint64_t i = 0; i < n; ++i) {
        if (i > 0) {
          ASSERT_LE(cmp.Compare(index->row(i - 1), index->row(i)), 0);
        }
        if (clustered) continue;
        // Every rid addresses a row of the snapshot, holding that key.
        const int64_t rid = codec.DecodeCell(index->row(i), 1)->AsInt();
        ASSERT_GE(rid, 0);
        ASSERT_LT(static_cast<uint64_t>(rid), n);
        const Slice heap_row = table->row(static_cast<RowId>(rid));
        ASSERT_EQ(codec.DecodeCell(index->row(i), 0)->AsInt(),
                  table_codec.DecodeCell(heap_row, 0)->AsInt());
      }
    }
  }
  writer.request_stop();
  writer.join();
  EXPECT_EQ(table->num_rows(), 1000u + static_cast<uint64_t>(appended.load()));
}

// ---------------------------------------------------------------------------
// Internal page math
// ---------------------------------------------------------------------------

TEST(InternalPageTest, Counts) {
  EXPECT_EQ(InternalPageCount(0, 100), 0u);
  EXPECT_EQ(InternalPageCount(1, 100), 0u);
  EXPECT_EQ(InternalPageCount(2, 100), 1u);
  EXPECT_EQ(InternalPageCount(100, 100), 1u);
  EXPECT_EQ(InternalPageCount(101, 100), 2u + 1u);
  EXPECT_EQ(InternalPageCount(10000, 100), 100u + 1u);
  EXPECT_EQ(InternalPageCount(5, 0), 0u);  // degenerate fanout
}

TEST(InternalPageTest, FanoutReflectsKeyWidth) {
  auto table = ScoresTable();
  Result<Index> narrow = Index::Build(*table, {"ix", {"score"}, false});
  Result<Index> wide = Index::Build(*table, {"ix", {"name", "payload"}, false});
  ASSERT_TRUE(narrow.ok());
  ASSERT_TRUE(wide.ok());
  EXPECT_GT(narrow->fanout(), wide->fanout());
}

// ---------------------------------------------------------------------------
// Index compression
// ---------------------------------------------------------------------------

TEST(IndexCompressTest, SortedKeysCompressWellUnderRle) {
  Schema schema = std::move(Schema::Make({{"flag", CharType(1)},
                                          {"payload", CharType(16)}}))
                      .ValueOrDie();
  TableBuilder builder(schema);
  for (int i = 0; i < 2000; ++i) {
    ASSERT_TRUE(builder
                    .Append({Value::Str(i % 2 == 0 ? "A" : "B"),
                             Value::Str("pl" + std::to_string(i % 50))})
                    .ok());
  }
  auto table = builder.Finish();
  IndexBuildOptions options;
  options.keep_pages = false;
  Result<Index> index = Index::Build(*table, {"ix", {"flag"}, false}, options);
  ASSERT_TRUE(index.ok());
  // After sorting, the flag column is two giant runs.
  CompressionScheme rle;
  rle.per_column = {CompressionType::kRle, CompressionType::kNone};
  Result<CompressedIndex> compressed = index->Compress(rle, options);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  // The flag column compresses to almost nothing; the rid column dominates.
  EXPECT_LT(compressed->stats().chunk_bytes,
            index->stats().row_data_bytes);
}

TEST(IndexCompressTest, CompressedRowsMatchIndexRows) {
  auto table = ScoresTable();
  Result<Index> index = Index::Build(*table, {"ix", {"name"}, true});
  ASSERT_TRUE(index.ok());
  Result<CompressedIndex> compressed = index->Compress(
      CompressionScheme::Uniform(CompressionType::kNullSuppression));
  ASSERT_TRUE(compressed.ok());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressed->DecodeAllRows(&decoded).ok());
  ASSERT_EQ(decoded.size(), index->num_rows());
  for (uint64_t i = 0; i < index->num_rows(); ++i) {
    EXPECT_EQ(Slice(decoded[i]), index->row(i));
  }
}

// ---------------------------------------------------------------------------
// Grouped columns: an index's sort makes its leading key and __rid grouped,
// and compressing with them declared grouped equals hashing every column.
// ---------------------------------------------------------------------------

TEST(GroupedColumnsTest, LeadingKeyAndRid) {
  auto table = ScoresTable();
  const Index single =
      Index::Build(*table, {"a", {"name"}, false}).ValueOrDie();
  EXPECT_EQ(single.GroupedColumns(), (std::vector<size_t>{0, 1}));
  const Index two =
      Index::Build(*table, {"b", {"name", "score"}, false}).ValueOrDie();
  EXPECT_EQ(two.GroupedColumns(), (std::vector<size_t>{0, 2}));
  const Index clustered =
      Index::Build(*table, {"c", {"score"}, true}).ValueOrDie();
  EXPECT_EQ(clustered.GroupedColumns(), (std::vector<size_t>{0}));
}

/// Low- and mid-cardinality, skewed and unique columns: string and integer
/// ones for most schemes, integers only for delta and frame of reference.
std::vector<ColumnSpec> GroupedTestSpecs(bool int_only) {
  if (int_only) {
    return {ColumnSpec::Integer("a", 4),
            ColumnSpec::Integer("b", 300, FrequencySpec::Zipf(1.0)),
            ColumnSpec::Integer("c", 0)};
  }
  return {ColumnSpec::String("a", 2, 4),
          ColumnSpec::Integer("b", 300, FrequencySpec::Zipf(1.0)),
          ColumnSpec::String("c", 14, 900, FrequencySpec::Uniform(),
                             LengthSpec::Uniform(3, 14)),
          ColumnSpec::Integer("d", 0)};
}

/// Compresses `n` rows of `schema` through the builder with `grouped`
/// declared grouped.
CompressedIndex BuildCompressed(const Schema& schema,
                                const CompressionScheme& scheme,
                                const IndexBuildOptions& options,
                                const char* rows, uint64_t n,
                                const std::vector<size_t>& grouped) {
  auto builder =
      CompressedIndexBuilder::Make(schema, scheme, options, grouped)
          .ValueOrDie();
  EXPECT_TRUE(builder->AddRows(rows, n).ok());
  Result<CompressedIndex> index = builder->Finish();
  EXPECT_TRUE(index.ok()) << index.status();
  return std::move(index).ValueOrDie();
}

/// Every data-level CompressedIndexStats field, per column too, and every
/// kept page's bytes equal.
void ExpectSameCompression(const CompressedIndex& a, const CompressedIndex& b) {
  const CompressedIndexStats& x = a.stats();
  const CompressedIndexStats& y = b.stats();
  EXPECT_EQ(y.row_count, x.row_count);
  EXPECT_EQ(y.data_pages, x.data_pages);
  EXPECT_EQ(y.aux_pages, x.aux_pages);
  EXPECT_EQ(y.used_bytes, x.used_bytes);
  EXPECT_EQ(y.aux_bytes, x.aux_bytes);
  EXPECT_EQ(y.chunk_bytes, x.chunk_bytes);
  EXPECT_EQ(y.dictionary_entries, x.dictionary_entries);
  ASSERT_EQ(y.columns.size(), x.columns.size());
  for (size_t c = 0; c < x.columns.size(); ++c) {
    EXPECT_EQ(y.columns[c].chunk_bytes, x.columns[c].chunk_bytes) << c;
    EXPECT_EQ(y.columns[c].aux_bytes, x.columns[c].aux_bytes) << c;
    EXPECT_EQ(y.columns[c].dictionary_entries,
              x.columns[c].dictionary_entries)
        << c;
  }
  ASSERT_EQ(b.pages().size(), a.pages().size());
  for (size_t p = 0; p < a.pages().size(); ++p) {
    ASSERT_EQ(b.pages()[p].buffer(), a.pages()[p].buffer()) << "page " << p;
  }
}

class GroupedCompressionTest
    : public ::testing::TestWithParam<CompressionType> {};

TEST_P(GroupedCompressionTest, EqualsHashedCompression) {
  const CompressionType type = GetParam();
  const bool int_only = type == CompressionType::kDelta ||
                        type == CompressionType::kFrameOfReference;
  const CompressionScheme scheme = CompressionScheme::Uniform(type);
  const std::vector<ColumnSpec> specs = GroupedTestSpecs(int_only);
  auto generated = GenerateTable(specs, 3000, 71);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto table = std::move(generated).ValueOrDie();
  // Single-key and two-key non-clustered indexes, and clustered ones.
  const std::vector<IndexDescriptor> descriptors = {
      {"a", {"a"}, false},       {"b", {"b"}, false},
      {"c", {"c"}, false},       {"ab", {"a", "b"}, false},
      {"ba", {"b", "a"}, false}, {"a_clustered", {"a"}, true},
      {"bc_clustered", {"b", "c"}, true}};
  // Replicate-sized indexes: draw-order groups of 3 to 100 rows, built
  // from views over the table as the adaptive loop's groups are.
  std::vector<std::unique_ptr<TableView>> groups;
  for (const uint64_t rows : {3, 8, 37, 100}) {
    std::vector<RowId> ids(rows);
    std::iota(ids.begin(), ids.end(), RowId{rows * 7});
    groups.push_back(TableView::Make(*table, std::move(ids)).ValueOrDie());
  }
  struct LevelGuard {
    ~LevelGuard() { ResetSimdLevel(); }
  } guard;
  for (const size_t page_size : {size_t{1024}, size_t{8192}}) {
    IndexBuildOptions kept{page_size, /*keep_pages=*/true};
    IndexBuildOptions sized{page_size, /*keep_pages=*/false};
    for (const IndexDescriptor& descriptor : descriptors) {
      std::vector<Index> indexes = {
          Index::Build(*table, descriptor, kept).ValueOrDie()};
      for (const auto& group : groups) {
        indexes.push_back(Index::Build(*group, descriptor, kept).ValueOrDie());
      }
      for (const SimdLevel level :
           {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
        if (level > MaxSimdLevel()) continue;
        SetSimdLevel(level);
        for (const Index& index : indexes) {
          SCOPED_TRACE(descriptor.name + " rows=" +
                       std::to_string(index.num_rows()) + " page=" +
                       std::to_string(page_size) + " " +
                       SimdLevelName(level));
          const CompressedIndex hashed =
              BuildCompressed(index.schema(), scheme, kept,
                              index.row(0).data(), index.num_rows(), {});
          ExpectSameCompression(hashed,
                                index.Compress(scheme, kept).ValueOrDie());
          ExpectSameCompression(
              BuildCompressed(index.schema(), scheme, sized,
                              index.row(0).data(), index.num_rows(), {}),
              index.Compress(scheme, sized).ValueOrDie());
        }
        // SampleCFFromIndex's with-replacement gather over the full index:
        // sorted positions keep a row drawn twice adjacent.
        const Index& full = indexes[0];
        for (const double fraction : {0.02, 0.3, 1.0}) {
          SCOPED_TRACE(descriptor.name + " gather f=" +
                       std::to_string(fraction) + " page=" +
                       std::to_string(page_size) + " " +
                       SimdLevelName(level));
          SampleCFOptions options;
          options.fraction = fraction;
          options.build = sized;
          Random draw(91);
          const SampleCFResult sample =
              SampleCFFromIndex(full, scheme, options, &draw).ValueOrDie();
          Random redraw(91);
          const uint64_t r = sample.sample_rows;
          std::vector<uint64_t> positions(r);
          for (uint64_t& p : positions) p = redraw.NextBounded(full.num_rows());
          std::sort(positions.begin(), positions.end());
          const uint32_t w = full.schema().row_width();
          std::string rows(r * w, '\0');
          kernels::GatherRows(full.row(0).data(), w, positions.data(), r,
                              rows.data());
          const CompressedIndex hashed = BuildCompressed(
              full.schema(), scheme, kept, rows.data(), r, {});
          ExpectSameCompression(
              hashed, BuildCompressed(full.schema(), scheme, kept, rows.data(),
                                      r, full.GroupedColumns()));
          const CompressedIndexStats& x = hashed.stats();
          const CompressedIndexStats& y = sample.sample_compressed;
          EXPECT_EQ(y.row_count, x.row_count);
          EXPECT_EQ(y.data_pages, x.data_pages);
          EXPECT_EQ(y.used_bytes, x.used_bytes);
          EXPECT_EQ(y.aux_bytes, x.aux_bytes);
          EXPECT_EQ(y.chunk_bytes, x.chunk_bytes);
          EXPECT_EQ(y.dictionary_entries, x.dictionary_entries);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, GroupedCompressionTest,
    ::testing::ValuesIn(AllCompressionTypes()),
    [](const auto& info) { return CompressionTypeName(info.param); });

TEST(GroupedColumnsTest, FalseDeclarationChangesDictionaryEntries) {
  // The negative control: the same index rows shuffled, so the leading key
  // and __rid are no longer grouped. Declaring them grouped anyway must
  // show as extra dictionary entries, or the equality gate above could not
  // tell a grouped column from a hashed one.
  auto table =
      GenerateTable(GroupedTestSpecs(/*int_only=*/false), 3000, 72)
          .ValueOrDie();
  const IndexBuildOptions sized{kDefaultPageSize, /*keep_pages=*/false};
  const Index index = Index::Build(*table, {"a", {"a"}, false}, sized)
                          .ValueOrDie();
  const uint32_t w = index.schema().row_width();
  std::vector<uint64_t> order(index.num_rows());
  std::iota(order.begin(), order.end(), uint64_t{0});
  Random rng(73);
  for (uint64_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.NextBounded(i)]);
  }
  std::string shuffled(order.size() * w, '\0');
  kernels::GatherRows(index.row(0).data(), w, order.data(), order.size(),
                      shuffled.data());
  for (const CompressionType type :
       {CompressionType::kDictionaryPage, CompressionType::kDictionaryGlobal,
        CompressionType::kPrefixDictionary}) {
    const CompressionScheme scheme = CompressionScheme::Uniform(type);
    const CompressedIndex hashed =
        BuildCompressed(index.schema(), scheme, sized, shuffled.data(),
                        order.size(), {});
    const CompressedIndex declared =
        BuildCompressed(index.schema(), scheme, sized, shuffled.data(),
                        order.size(), index.GroupedColumns());
    EXPECT_GT(declared.stats().columns[0].dictionary_entries,
              hashed.stats().columns[0].dictionary_entries)
        << CompressionTypeName(type);
    EXPECT_NE(declared.stats().dictionary_entries,
              hashed.stats().dictionary_entries)
        << CompressionTypeName(type);
    // In sorted order the same declaration is exact.
    ExpectSameCompression(
        BuildCompressed(index.schema(), scheme, sized, index.row(0).data(),
                        index.num_rows(), {}),
        index.Compress(scheme, sized).ValueOrDie());
  }
}

}  // namespace
}  // namespace cfest
