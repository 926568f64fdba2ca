// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Global dictionary compression — the paper's simplified model of §III-B:
// a single index-wide dictionary stores each distinct value once (k bytes
// per entry); every row stores a pointer of p bytes. Under this model
//
//   CF_DC = p/k + d/n
//
// which is exactly what the analytic model and Theorems 2/3 are phrased over.
// The dictionary bytes are reported through ColumnCompressor::AuxiliaryBytes()
// and packed into dedicated dictionary pages by the index builder.
//
// Chunk wire format: u16 row_count, then row_count little-endian p-byte codes.

#ifndef CFEST_COMPRESSION_DICTIONARY_GLOBAL_H_
#define CFEST_COMPRESSION_DICTIONARY_GLOBAL_H_

#include "compression/compressor.h"

namespace cfest {

/// `grouped`: the column's equal cells are adjacent (MakeColumnCompressor).
std::unique_ptr<ColumnCompressor> MakeGlobalDictionaryCompressor(
    const DataType& data_type, const CompressionOptions& options,
    bool grouped);

}  // namespace cfest

#endif  // CFEST_COMPRESSION_DICTIONARY_GLOBAL_H_
