// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// A reference for tests: compresses a batch of encoded rows through
// CompressedIndexBuilder::Add, one row at a time and in the caller's order,
// so no column is declared grouped.

#ifndef CFEST_TESTS_COMPRESS_ROWS_H_
#define CFEST_TESTS_COMPRESS_ROWS_H_

#include <vector>

#include "common/result.h"
#include "common/slice.h"
#include "compression/compressed_index.h"
#include "compression/scheme.h"
#include "storage/schema.h"

namespace cfest {

inline Result<CompressedIndex> CompressRows(
    const Schema& schema, const CompressionScheme& scheme,
    const std::vector<Slice>& rows, const IndexBuildOptions& options = {}) {
  CFEST_ASSIGN_OR_RETURN(auto builder,
                         CompressedIndexBuilder::Make(schema, scheme, options));
  for (const Slice& row : rows) {
    CFEST_RETURN_NOT_OK(builder->Add(row));
  }
  return builder->Finish();
}

}  // namespace cfest

#endif  // CFEST_TESTS_COMPRESS_ROWS_H_
