// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Packing compressed rows into pages, and the size accounting that defines
// the compression fraction.
//
// Page record layout (one record per compressed page):
//   per column: u32 chunk_length, chunk bytes.
// Rows are packed greedily in input order (the index build feeds them sorted
// by key): a page is closed when the next row's exact compressed cost no
// longer fits, mirroring how page-level compression behaves in real engines
// and giving rise to the paper's Pg(i) paging effects. Each column compresses
// through one chunk for the whole build, reset at every page boundary. A
// chunk holds only its cost state, so sizing a page writes no payload; a
// build that keeps its pages also buffers the open page's rows and
// serializes each column from them when the page closes.

#ifndef CFEST_COMPRESSION_COMPRESSED_INDEX_H_
#define CFEST_COMPRESSION_COMPRESSED_INDEX_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "compression/scheme.h"
#include "storage/page.h"
#include "storage/schema.h"

namespace cfest {

/// \brief Per-column share of a compressed index's footprint.
struct ColumnCompressionStats {
  CompressionType type = CompressionType::kNone;
  /// Serialized chunk bytes of this column across all pages.
  uint64_t chunk_bytes = 0;
  /// Auxiliary bytes (global dictionary) owned by this column.
  uint64_t aux_bytes = 0;
  /// Dictionary entries materialized for this column (sum Pg(i) / d).
  uint64_t dictionary_entries = 0;
};

/// \brief Size accounting for one compressed (or uncompressed) index.
struct CompressedIndexStats {
  uint64_t row_count = 0;
  /// Pages holding compressed row data.
  uint64_t data_pages = 0;
  /// Pages holding auxiliary state (global dictionaries).
  uint64_t aux_pages = 0;
  /// Exact bytes used inside data pages (headers + records + slots).
  uint64_t used_bytes = 0;
  /// Auxiliary bytes (global dictionary payloads).
  uint64_t aux_bytes = 0;
  /// Sum of serialized column-chunk bytes (content without page framing).
  uint64_t chunk_bytes = 0;
  /// Total dictionary entries materialized (page-level: the paper's
  /// sum over distinct values i of Pg(i); global: d).
  uint64_t dictionary_entries = 0;
  size_t page_size = kDefaultPageSize;
  /// One entry per schema column.
  std::vector<ColumnCompressionStats> columns;

  uint64_t total_pages() const { return data_pages + aux_pages; }
  /// Page-granular footprint in bytes.
  uint64_t page_bytes() const { return total_pages() * page_size; }
  /// Byte-granular footprint: used page bytes plus auxiliary payloads.
  uint64_t content_bytes() const { return used_bytes + aux_bytes; }
};

/// \brief A compressed index: stats, pages (optional), and the compressor
/// state needed to decode them.
class CompressedIndex {
 public:
  const CompressedIndexStats& stats() const { return stats_; }
  const Schema& schema() const { return schema_; }
  const CompressionScheme& scheme() const { return scheme_; }

  /// The retained page images (empty if built with keep_pages = false).
  const std::vector<Page>& pages() const { return pages_; }

  /// Reconstructs all encoded fixed-width rows, in index order. Requires
  /// keep_pages = true at build time. Appends row_width-byte strings.
  Status DecodeAllRows(std::vector<std::string>* rows) const;

 private:
  friend class CompressedIndexBuilder;
  CompressedIndex(Schema schema, CompressionScheme scheme)
      : schema_(std::move(schema)), scheme_(std::move(scheme)) {}

  Schema schema_;
  CompressionScheme scheme_;
  CompressedIndexStats stats_;
  std::vector<Page> pages_;
  std::shared_ptr<ColumnCompressorSet> compressors_;  // decode needs dict state
};

/// \brief Build options for compressed (and uncompressed) index packing.
struct IndexBuildOptions {
  size_t page_size = kDefaultPageSize;
  /// Retain page images (needed for DecodeAllRows). Only kept pages are
  /// serialized: with keep_pages = false (every estimator's sizing path)
  /// no row is buffered, no chunk is finished and no page image is built,
  /// and the stats come from the chunks' exact costs — equal, field for
  /// field, to a kept build's.
  bool keep_pages = true;
};

/// \brief Streams sorted encoded rows into compressed pages.
class CompressedIndexBuilder {
 public:
  using Options = IndexBuildOptions;

  /// Fails if the scheme does not fit the schema. `grouped_columns` lists
  /// the columns whose equal cells are adjacent in the order rows are added
  /// (ColumnCompressorSet::Make); their dictionaries compare each cell with
  /// the newest entry instead of hashing it, with identical results. With
  /// keep_pages, global-dictionary columns still hash: decoding the pages
  /// needs the dictionary's entries, which a grouped one does not keep. Only
  /// code that owns the rows' sort passes a non-empty set (Index::Compress,
  /// SampleCFFromIndex); the grouped-columns lint rule enforces that.
  static Result<std::unique_ptr<CompressedIndexBuilder>> Make(
      const Schema& schema, const CompressionScheme& scheme,
      const Options& options = {},
      const std::vector<size_t>& grouped_columns = {});

  /// Adds one encoded row (exactly schema.row_width() bytes). Rows should be
  /// fed in index (sorted) order.
  Status Add(Slice encoded_row);

  /// Adds `n` contiguous encoded rows (n * row_width bytes at `rows`).
  /// Equivalent to n Add() calls — identical pages, stats, and errors — but
  /// sizes through every chunk's batched path: rows are transposed into
  /// arena-backed column slices, and each column stages a slice, then
  /// commits it if the page has room or drops it to retry a smaller one.
  /// An accepted cell is sized once; a full page is closed by FlushPage(),
  /// which serializes it only when pages are kept.
  Status AddRows(const char* rows, uint64_t n);

  uint64_t rows_added() const { return rows_added_; }

  /// Closes the final page, validates compressor state, and returns the
  /// compressed index. The builder must not be reused.
  Result<CompressedIndex> Finish();

 private:
  CompressedIndexBuilder(Schema schema, CompressionScheme scheme,
                         std::shared_ptr<ColumnCompressorSet> compressors,
                         const Options& options);

  /// Exact page bytes used if the current chunks (plus `extra` chunk cost)
  /// were serialized now.
  size_t PageCost(size_t extra_chunk_bytes) const;
  /// Closes the current page: charges its chunks' exact costs to the stats
  /// and, under keep_pages only, serializes each column of the buffered
  /// rows through its chunk into a page image, failing with Internal if a
  /// chunk's bytes differ from its cost. Then resets every chunk, which
  /// opens the next page.
  Status FlushPage();
  /// Tests swap in chunks that break the cost contract and check that each
  /// column keeps one chunk across pages.
  friend class CompressedIndexBuilderPeer;

  Schema schema_;
  CompressionScheme scheme_;
  Options options_;
  std::shared_ptr<ColumnCompressorSet> compressors_;
  /// The open page's chunk per column: opened once per build and reused,
  /// after a Reset(), for every later page.
  std::vector<std::unique_ptr<ColumnChunkCompressor>> chunks_;
  /// Scratch for the row-major -> column-major transpose of AddRows.
  Arena transpose_arena_;
  /// keep_pages only: the open page's rows, row-major, and one column of
  /// them at a time for Finish().
  std::string page_rows_;
  std::string page_column_;
  std::vector<Page> pages_;
  CompressedIndexStats stats_;
  uint64_t rows_added_ = 0;
  uint64_t next_page_id_ = 0;
  /// Rows the most recently flushed page held — AddRows' batch-size
  /// predictor for a newly opened page, before the page has its own
  /// per-row cost to extrapolate from.
  uint64_t last_page_rows_ = 0;
  bool finished_ = false;
};

}  // namespace cfest

#endif  // CFEST_COMPRESSION_COMPRESSED_INDEX_H_
