// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Hardware-fast sizing kernels. These are the inner loops of SampleCF's
// per-row cost model — null-suppressed length scans, RLE run-boundary
// detection, frame-of-reference min/max, dictionary probing, and the
// sorted-row gathers of the sample-index build — lifted out of the per-cell
// virtual-call path into batch primitives over contiguous fixed-width cell
// slices.
//
// Every kernel has a scalar reference implementation (namespace
// kernels::scalar) that defines the semantics, and vector variants
// (SSE4.2 / AVX2 on x86-64) selected at runtime via ActiveSimdLevel()
// (common/simd.h). All variants are bit-identical by contract;
// tests/kernels_test.cc pins that across fuzzed widths, alignments, odd
// tails, and empty/single-cell slices.
//
// Cell layout: `cells` points at `n` contiguous cells of exactly `width`
// bytes each — the column-major slices the batched compress path
// (compression/compressed_index.cc) transposes index rows into.

#ifndef CFEST_COMPRESSION_KERNELS_H_
#define CFEST_COMPRESSION_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simd.h"

namespace cfest {
namespace kernels {

// ---------------------------------------------------------------------------
// Null-suppression length scan (the paper's l_i / NS "bit-width" kernel).
// ---------------------------------------------------------------------------

/// Per-cell null-suppressed lengths, matching NullSuppressedLength()
/// (storage/row_codec.h): strings drop trailing blanks (0x20) and NULs,
/// integers drop trailing zero bytes of the little-endian encoding.
/// `out` receives n entries.
void NullSuppressedLengths(const char* cells, uint32_t width, size_t n,
                           bool is_string, uint32_t* out);

// ---------------------------------------------------------------------------
// RLE run-boundary detection.
// ---------------------------------------------------------------------------

/// Appends to *starts the index of every cell that opens a new run.
/// `prev_cell` is the value of the run open before this slice (null if
/// none): cell 0 starts a run iff prev_cell is null or differs from it.
/// Indices are strictly increasing, in [0, n).
void RunStarts(const char* cells, uint32_t width, size_t n,
               const char* prev_cell, std::vector<uint32_t>* starts);

// ---------------------------------------------------------------------------
// Integer decode + min/max (frame-of-reference sizing).
// ---------------------------------------------------------------------------

/// Decodes n little-endian two's-complement cells of 1..8 bytes into
/// sign-extended int64s (matching frame_of_reference.cc's DecodeCellValue).
void DecodeInts(const char* cells, uint32_t width, size_t n, int64_t* out);

struct MinMax {
  int64_t min = 0;
  int64_t max = 0;
};

/// Min and max of n > 0 int64 values.
MinMax MinMaxInts(const int64_t* values, size_t n);

// ---------------------------------------------------------------------------
// Hashing (dictionary probe) and row gathers (index build/merge).
// ---------------------------------------------------------------------------

/// 64-bit hash of a byte range. CRC32C-based where SSE4.2 is active, FNV-1a
/// otherwise. The hash value is an internal probe accelerator only — no
/// on-disk or estimate bytes ever depend on it, so the variants need not
/// (and do not) agree with each other.
uint64_t HashBytes(const char* data, size_t n);

/// out[i] = rows[perm[i]] for n fixed-width rows: the permutation-apply of
/// the index-build radix sort (32-bit permutations whenever the row count
/// fits, 64-bit beyond).
void GatherRows(const char* rows, uint32_t width, const uint32_t* perm,
                size_t n, char* out);
void GatherRows(const char* rows, uint32_t width, const uint64_t* perm,
                size_t n, char* out);

/// Strided gather: out receives n contiguous `width`-byte cells read at
/// `stride`-byte steps from src (the row-major → column-major transpose of
/// the batched compress path).
void GatherStrided(const char* src, size_t stride, uint32_t width, size_t n,
                   char* out);

// ---------------------------------------------------------------------------
// Scalar references. Same contracts; always the plain per-cell loops.
// Exposed so tests can pin bit-identity against them.
// ---------------------------------------------------------------------------

namespace scalar {
void NullSuppressedLengths(const char* cells, uint32_t width, size_t n,
                           bool is_string, uint32_t* out);
void RunStarts(const char* cells, uint32_t width, size_t n,
               const char* prev_cell, std::vector<uint32_t>* starts);
void DecodeInts(const char* cells, uint32_t width, size_t n, int64_t* out);
MinMax MinMaxInts(const int64_t* values, size_t n);
uint64_t HashBytes(const char* data, size_t n);
void GatherRows(const char* rows, uint32_t width, const uint32_t* perm,
                size_t n, char* out);
void GatherRows(const char* rows, uint32_t width, const uint64_t* perm,
                size_t n, char* out);
void GatherStrided(const char* src, size_t stride, uint32_t width, size_t n,
                   char* out);
}  // namespace scalar

}  // namespace kernels
}  // namespace cfest

#endif  // CFEST_COMPRESSION_KERNELS_H_
