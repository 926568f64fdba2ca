// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Column compression interfaces.
//
// Compression operates per column and per page, as the paper describes for
// commercial systems ("each column is compressed independently"; "commercial
// systems typically apply this technique at a page level and the dictionary
// is maintained inline in every page").
//
// A ColumnCompressor is the per-index object for one column (it owns any
// cross-page state, e.g. the global dictionary of the paper's simplified
// model). It hands out ColumnChunkCompressors, which accept one page's
// fixed-width cells and report their exact serialized cost so the page packer
// can decide when a page is full. The packer opens one chunk per column per
// build and Reset()s it for each new page.
//
// A column may be declared grouped: its equal cells are adjacent in the
// order rows are added (a sorted index's leading key, or its unique row
// ids). The dictionary schemes (page, global, prefix+dictionary) then find
// a cell's entry by comparing it with the newest entry instead of hashing
// it, and keep only that entry and a count; every cost, code and byte is
// the same as without the declaration. A grouped global dictionary
// therefore holds no entries to decode with, so a build that keeps its
// pages declares none (CompressedIndexBuilder::Make). A false declaration
// silently over-counts dictionary entries, so only code that owns the sort
// declares one (the grouped-columns lint rule).

#ifndef CFEST_COMPRESSION_COMPRESSOR_H_
#define CFEST_COMPRESSION_COMPRESSOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "common/status.h"
#include "storage/types.h"

namespace cfest {

/// \brief The compression algorithms implemented by this library.
enum class CompressionType : uint8_t {
  kNone = 0,              // fixed-width cells verbatim (CF = 1 baseline)
  kNullSuppression = 1,   // paper §II-A, Fig. 1a
  kDictionaryPage = 2,    // paper §II-A, Fig. 1b: per-page inline dictionary
  kDictionaryGlobal = 3,  // paper §III-B simplified model: one global dict
  kRle = 4,               // run-length encoding (refs [7][8] extension)
  kPrefix = 5,            // per-page common-prefix elimination (extension)
  kDelta = 6,             // zigzag-varint deltas for integer keys (extension)
  kPrefixDictionary = 7,  // SQL Server-style prefix+dictionary page pipeline
  kFrameOfReference = 8,  // bit-packed offsets from a per-page base (extension)
};

/// Number of CompressionType values (the enum is dense from 0); sized
/// per-scheme arrays — e.g. the engine's labeled estimate counters — index
/// by static_cast<size_t>(type).
inline constexpr size_t kCompressionTypeCount = 9;

const char* CompressionTypeName(CompressionType type);
Result<CompressionType> CompressionTypeFromName(const std::string& name);

/// \brief Tuning knobs shared by the compressors.
struct CompressionOptions {
  /// Global-dictionary pointer size in bytes (the paper's `p`), at most 8.
  /// Used by kDictionaryGlobal and the hybrid estimator's model; 0 means the
  /// default, 4. MakeColumnCompressor rejects widths above 8.
  uint32_t global_pointer_bytes = 4;

  /// kDictionaryPage: store dictionary entries at the full declared width k
  /// (the paper's model) instead of null-suppressed with a length header.
  bool dict_entries_full_width = true;

  /// kDictionaryPage: bit-pack pointers to ceil(log2(d_page)) bits (the
  /// paper's "requires ceil(log2 d) bits"). If false, pointers are byte
  /// aligned at ceil(ceil(log2(d_page))/8) bytes.
  bool dict_bit_packed_pointers = true;

  bool operator==(const CompressionOptions&) const = default;
};

/// \brief Streaming compressor for one column over one page's rows.
///
/// Contract: a chunk keeps only the state its Cost() depends on (a count and
/// a byte sum, a run's value, a page's dictionary membership, ...), never the
/// encoded payload. Cost() is the exact number of bytes Finish() would
/// produce for the cells added so far; CostWith(cell) is the exact cost if
/// `cell` were added next. Cells must be exactly the column's fixed width.
/// The page packer sizes pages from Cost() alone. Only for a page it keeps
/// does it call Finish(cells, n), handing back the page's column slice, and
/// there a length differing from Cost() is an internal error. Cross-page
/// tallies (TotalDictionaryEntries) are therefore kept where cells become
/// permanent — Add() and CommitStaged() — never in Finish().
///
/// Every chunk sizes two equivalent ways: per cell (CostWith/Add, the
/// reference the tests compare against, and the path that closes a full
/// page) and batched (StageBatch, then CommitStaged or DropStaged: the page
/// packer's fast path over column-major slices). A staged batch is sized by
/// adding it to the cost state, so a batch the page accepts is sized once.
/// Committing n staged cells leaves exactly the state and costs of n
/// CostWith/Add calls; dropping them restores the few scalars (and the
/// dictionary's tentative entries) of the state before StageBatch. The
/// packer may therefore mix the two paths freely without changing any page
/// split.
///
/// Reset() empties a chunk for the next page and keeps its buffers'
/// capacity: afterwards the chunk behaves exactly like a fresh NewChunk() —
/// the same costs and page splits for any later cells.
/// Cross-page tallies (the parent's TotalDictionaryEntries, the global
/// dictionary) live in the ColumnCompressor and are untouched by it.
class ColumnChunkCompressor {
 public:
  virtual ~ColumnChunkCompressor() = default;

  /// Exact serialized size (bytes) if `cell` were appended next.
  virtual size_t CostWith(const Slice& cell) = 0;

  /// Appends a cell. Must only be called with fixed-width cells.
  virtual void Add(const Slice& cell) = 0;

  /// Appends the `n` contiguous fixed-width cells at `cells` tentatively and
  /// returns the chunk's exact serialized size with them. The next call on
  /// the chunk must be CommitStaged() or DropStaged(), and `cells` must stay
  /// valid until then.
  virtual size_t StageBatch(const char* cells, size_t n) = 0;

  /// Keeps the staged cells, as if each had been passed to Add().
  virtual void CommitStaged() = 0;

  /// Discards the staged cells, restoring the chunk exactly to its state
  /// before StageBatch().
  virtual void DropStaged() = 0;

  /// Exact serialized size of the cells added so far.
  virtual size_t Cost() const = 0;

  /// Number of cells added.
  virtual uint32_t count() const = 0;

  /// Serializes a page, in exactly Cost() bytes: `cells` holds the `n`
  /// contiguous fixed-width cells added since the chunk was opened or Reset(),
  /// in order. Called when the page closes, before any later cell is added;
  /// has no side effects.
  virtual std::string Finish(const char* cells, size_t n) const = 0;

  /// Empties the chunk, as if freshly opened, keeping buffer capacity. Any
  /// staged batch is discarded.
  virtual void Reset() = 0;
};

/// \brief Per-index compressor for one column.
class ColumnCompressor {
 public:
  virtual ~ColumnCompressor() = default;

  virtual CompressionType type() const = 0;
  virtual const DataType& data_type() const = 0;

  /// Opens an empty chunk for this column's pages.
  virtual std::unique_ptr<ColumnChunkCompressor> NewChunk() = 0;

  /// Decodes a serialized chunk back into fixed-width cells, appending each
  /// cell's bytes to *cells. Exact inverse of chunk Finish().
  virtual Status DecodeChunk(Slice chunk,
                             std::vector<std::string>* cells) const = 0;

  /// Bytes of cross-page auxiliary state this compressor needs stored with
  /// the index (e.g. the global dictionary). 0 for purely page-local schemes.
  virtual uint64_t AuxiliaryBytes() const { return 0; }

  /// Post-hoc validity check, consulted when an index build finishes (e.g.
  /// the global dictionary reports overflow of its fixed-width pointers).
  virtual Status Validate() const { return Status::OK(); }

  /// Total dictionary entries materialized across all pages so far; this is
  /// the paper's sum over distinct values of Pg(i) for the page-level
  /// dictionary, and d for the global model. 0 for non-dictionary schemes.
  virtual uint64_t TotalDictionaryEntries() const { return 0; }
};

/// Creates a compressor for `type` over a column of `data_type`. `grouped`
/// declares that equal cells of this column are adjacent in the order they
/// are added (see above); only the dictionary schemes use it.
Result<std::unique_ptr<ColumnCompressor>> MakeColumnCompressor(
    CompressionType type, const DataType& data_type,
    const CompressionOptions& options = {}, bool grouped = false);

/// All compression types, for parameterized tests and benches.
std::vector<CompressionType> AllCompressionTypes();

}  // namespace cfest

#endif  // CFEST_COMPRESSION_COMPRESSOR_H_
