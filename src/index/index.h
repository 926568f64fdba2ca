// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Sort-based bulk construction of B+-tree indexes over in-memory tables, and
// their size accounting. This is the "Build index I'(S) on T'" step of the
// paper's SampleCF algorithm (Fig. 2) as well as the ground-truth path
// ("actually building and compressing the index").
//
// A clustered index materializes the full row with the key columns first; a
// non-clustered index materializes the key columns plus an 8-byte row id
// (named "__rid"), as in classical secondary indexes.

#ifndef CFEST_INDEX_INDEX_H_
#define CFEST_INDEX_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "compression/compressed_index.h"
#include "compression/scheme.h"
#include "index/comparator.h"
#include "storage/page.h"
#include "storage/schema.h"
#include "storage/table.h"

namespace cfest {

/// \brief What to build an index on: the column sequence S of SampleCF.
struct IndexDescriptor {
  std::string name;
  /// Key columns, outermost first. Must exist in the table schema.
  std::vector<std::string> key_columns;
  /// Clustered: leaf rows carry all table columns (key columns first).
  /// Non-clustered: leaf rows carry key columns + "__rid".
  bool clustered = false;
};

/// \brief Sizes of an uncompressed index.
struct IndexStats {
  uint64_t row_count = 0;
  uint64_t leaf_pages = 0;
  uint64_t internal_pages = 0;
  /// Exact bytes used inside leaf pages (header + records + slots).
  uint64_t leaf_used_bytes = 0;
  /// Pure row bytes: row_count * row_width (the paper's n * k).
  uint64_t row_data_bytes = 0;
  size_t page_size = kDefaultPageSize;

  bool operator==(const IndexStats&) const = default;

  uint64_t total_pages() const { return leaf_pages + internal_pages; }
  uint64_t page_bytes() const { return total_pages() * page_size; }
};

/// \brief Number of internal B+-tree pages above `leaf_pages` leaves when
/// each internal page holds `fanout` children. 0 for a single leaf.
uint64_t InternalPageCount(uint64_t leaf_pages, uint64_t fanout);

/// \brief A bulk-built index: sorted encoded rows + leaf page accounting.
class Index {
 public:
  /// Projects the rows of `table` (one row-count snapshot, so a concurrent
  /// appender on a base table cannot skew the build), sorts them stably on
  /// the key columns, and accounts leaf pages. The sort is an LSD radix
  /// sort over byte-comparable encoded keys: the order of std::stable_sort
  /// with RowComparator, equal keys in source order. Leaf stats are
  /// arithmetic; page images are built only with `options.keep_pages`.
  static Result<Index> Build(const Table& table,
                             const IndexDescriptor& descriptor,
                             const IndexBuildOptions& options = {});

  const IndexDescriptor& descriptor() const { return descriptor_; }
  /// Schema of the materialized index rows (keys first, then payload).
  const Schema& schema() const { return schema_; }
  size_t num_key_columns() const { return descriptor_.key_columns.size(); }

  uint64_t num_rows() const { return num_rows_; }
  /// i-th row in key order (zero-copy into the sorted buffer).
  Slice row(uint64_t i) const {
    return Slice(sorted_rows_.data() + static_cast<size_t>(i) * row_width_,
                 row_width_);
  }

  const IndexStats& stats() const { return stats_; }
  /// Leaf page images; empty if built with keep_pages = false.
  const std::vector<Page>& leaf_pages() const { return leaf_pages_; }

  /// Children per internal page for this schema and page size.
  uint64_t fanout() const;

  /// The columns whose equal cells are adjacent in key order, and in any
  /// sorted selection of rows: the leading key column and, on a
  /// non-clustered index, __rid (each row's unique position). Compression
  /// sizes their dictionaries without hashing
  /// (CompressedIndexBuilder::Make).
  std::vector<size_t> GroupedColumns() const;

  /// Compresses this index's rows (in key order) with `scheme`, declaring
  /// GroupedColumns() grouped.
  /// This is the ground-truth compressed size, and — when the index was built
  /// on a sample — the estimate returned by SampleCF.
  Result<CompressedIndex> Compress(const CompressionScheme& scheme,
                                   const IndexBuildOptions& options = {}) const;

  /// Builds the index that Build() would produce over `source`, byte for
  /// byte and stat for stat, given that this index was built over
  /// `old_source` and that `source` differs from it only at the `changed`
  /// positions (any order, duplicates allowed). Positions below num_rows()
  /// are replaced rows; every position from num_rows() to
  /// source.num_rows() must be listed (appended rows). Only the changed
  /// rows are touched: leaving rows are projected from `old_source` and
  /// found by binary search on (key, __rid), entering rows are projected
  /// from `source`, sorted on their own and spliced into the sorted run.
  /// Cost is O(changes * (key bytes + log rows)) plus one copy of the run.
  ///
  /// Clustered rows carry no __rid, so a replaced row has no place among
  /// equal keys: a clustered index accepts only appended positions and
  /// returns InvalidArgument otherwise. Both sources must share one schema,
  /// and `options` the page size of the original build.
  Result<Index> Patched(const Table& old_source, const Table& source,
                        std::vector<uint64_t> changed,
                        const IndexBuildOptions& options = {}) const;

 private:
  Index() = default;

  /// Fills the page-level stats from PageBuilder's capacity arithmetic and,
  /// with keep_pages, packs sorted_rows_ into leaf page images.
  Status PackLeafPages(const IndexBuildOptions& options);

  IndexDescriptor descriptor_;
  Schema schema_;
  uint32_t row_width_ = 0;
  uint64_t num_rows_ = 0;
  std::string sorted_rows_;
  IndexStats stats_;
  std::vector<Page> leaf_pages_;
};

}  // namespace cfest

#endif  // CFEST_INDEX_INDEX_H_
