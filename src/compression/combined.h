// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Combined prefix + dictionary page compression — the pipeline SQL Server's
// PAGE compression actually applies (prefix pass, then dictionary pass) and
// therefore the closest model to the estimator the paper's authors shipped.
// Per page: the distinct values share one common prefix stored once; the
// dictionary stores each distinct value's *suffix* (null-suppressed); rows
// store bit-packed ceil(log2 d_page) pointers.
//
// Chunk wire format:
//   u16 dict_count, u8 ptr_bits,
//   length header + prefix bytes,
//   per entry: length header + suffix bytes,
//   u16 row_count, bit-packed pointers.

#ifndef CFEST_COMPRESSION_COMBINED_H_
#define CFEST_COMPRESSION_COMBINED_H_

#include "compression/compressor.h"

namespace cfest {

/// `grouped`: the column's equal cells are adjacent (MakeColumnCompressor).
std::unique_ptr<ColumnCompressor> MakeCombinedPageCompressor(
    const DataType& data_type, bool grouped);

}  // namespace cfest

#endif  // CFEST_COMPRESSION_COMBINED_H_
