// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// A CompressionScheme names the algorithm used for each column of an index
// ("each column is compressed independently", paper §II-A); a
// ColumnCompressorSet instantiates the per-column compressors.

#ifndef CFEST_COMPRESSION_SCHEME_H_
#define CFEST_COMPRESSION_SCHEME_H_

#include <memory>
#include <string>
#include <vector>

#include "compression/compressor.h"
#include "storage/schema.h"

namespace cfest {

/// \brief Per-index compression configuration.
struct CompressionScheme {
  /// Algorithm applied to every column without an explicit override.
  CompressionType default_type = CompressionType::kNullSuppression;
  /// Optional per-column override; if non-empty must have one entry per
  /// schema column.
  std::vector<CompressionType> per_column;
  CompressionOptions options;

  static CompressionScheme Uniform(CompressionType type,
                                   CompressionOptions options = {}) {
    CompressionScheme s;
    s.default_type = type;
    s.options = options;
    return s;
  }

  /// "null_suppression" or "mixed(rle,none,...)".
  std::string ToString() const;
};

/// \brief The instantiated per-column compressors for one index build.
class ColumnCompressorSet {
 public:
  /// Validates the scheme against the schema and creates all compressors.
  /// `grouped_columns` lists the columns whose equal cells are adjacent in
  /// the order rows are added (MakeColumnCompressor's `grouped`); an index
  /// past the schema is InvalidArgument.
  static Result<ColumnCompressorSet> Make(
      const Schema& schema, const CompressionScheme& scheme,
      const std::vector<size_t>& grouped_columns = {});

  size_t num_columns() const { return compressors_.size(); }
  ColumnCompressor* column(size_t i) { return compressors_[i].get(); }
  const ColumnCompressor* column(size_t i) const {
    return compressors_[i].get();
  }

  /// Sum of per-column auxiliary bytes (e.g. global dictionaries).
  uint64_t AuxiliaryBytes() const;

  /// Sum of per-column dictionary entry counts (the Pg(i) sums).
  uint64_t TotalDictionaryEntries() const;

  /// First validation failure across columns, if any.
  Status Validate() const;

 private:
  ColumnCompressorSet() = default;
  std::vector<std::unique_ptr<ColumnCompressor>> compressors_;
};

}  // namespace cfest

#endif  // CFEST_COMPRESSION_SCHEME_H_
