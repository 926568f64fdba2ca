// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Page-level dictionary compression (paper §II-A, Fig. 1b): each page carries
// an inline dictionary of the distinct values occurring in that page; rows
// store pointers of ceil(log2(d_page)) bits. A value occurring in Pg(i)
// pages is therefore materialized Pg(i) times — the paging effect the paper's
// CF_DC formula with the Pg(i) sum captures.
//
// Chunk wire format:
//   u16 dict_count, u8 ptr_bits,
//   dictionary entries (full fixed width, or NS-encoded per options),
//   u16 row_count, bit-packed pointers (LSB-first, padded to a whole byte).

#ifndef CFEST_COMPRESSION_DICTIONARY_PAGE_H_
#define CFEST_COMPRESSION_DICTIONARY_PAGE_H_

#include "compression/compressor.h"

namespace cfest {

/// `grouped`: the column's equal cells are adjacent (MakeColumnCompressor).
std::unique_ptr<ColumnCompressor> MakePageDictionaryCompressor(
    const DataType& data_type, const CompressionOptions& options,
    bool grouped);

}  // namespace cfest

#endif  // CFEST_COMPRESSION_DICTIONARY_PAGE_H_
