// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Shared wire-format helpers for compressed column chunks. All chunk formats
// are little-endian and self-delimiting.

#ifndef CFEST_COMPRESSION_ENCODING_UTIL_H_
#define CFEST_COMPRESSION_ENCODING_UTIL_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/slice.h"
#include "common/status.h"
#include "compression/kernels.h"
#include "storage/row_codec.h"
#include "storage/types.h"

namespace cfest {
namespace encoding {

inline void PutU16(std::string* out, uint16_t v) {
  out->push_back(static_cast<char>(v & 0xFF));
  out->push_back(static_cast<char>((v >> 8) & 0xFF));
}

inline void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

/// Reads a u16/u32 at *pos, advancing it. Returns false on overrun.
inline bool GetU16(Slice in, size_t* pos, uint16_t* v) {
  if (*pos + 2 > in.size()) return false;
  *v = static_cast<uint16_t>(static_cast<unsigned char>(in[*pos])) |
       static_cast<uint16_t>(static_cast<unsigned char>(in[*pos + 1])) << 8;
  *pos += 2;
  return true;
}

inline bool GetU32(Slice in, size_t* pos, uint32_t* v) {
  if (*pos + 4 > in.size()) return false;
  uint32_t r = 0;
  for (int i = 0; i < 4; ++i) {
    r |= static_cast<uint32_t>(static_cast<unsigned char>(in[*pos + i]))
         << (8 * i);
  }
  *v = r;
  *pos += 4;
  return true;
}

/// Appends a 1- or 2-byte length header (LengthHeaderBytes()).
inline void PutLength(std::string* out, size_t len, uint32_t header_bytes) {
  if (header_bytes == 1) {
    out->push_back(static_cast<char>(len & 0xFF));
  } else {
    PutU16(out, static_cast<uint16_t>(len));
  }
}

/// Reads a 1- or 2-byte length header at *pos, advancing it.
Status GetLength(Slice in, size_t* pos, uint32_t header_bytes, uint32_t* len);

/// Bytes a null-suppressed cell of this column costs on the wire:
/// length header + suppressed payload.
inline size_t NullSuppressedCost(const Slice& cell, const DataType& type) {
  return LengthHeaderBytes(type) + NullSuppressedLength(cell, type);
}

/// Calls fn(cell, len) for each of the `n` contiguous fixed-width cells at
/// `cells`, in order, with its null-suppressed length. The lengths come from
/// the batched kernel in stack-sized blocks, so the batch paths of the
/// chunk compressors need no scratch allocation.
template <typename Fn>
void ForEachSuppressed(const char* cells, const DataType& type, size_t n,
                       Fn&& fn) {
  constexpr size_t kBlock = 256;
  uint32_t lengths[kBlock] = {};
  const uint32_t w = type.FixedWidth();
  for (size_t start = 0; start < n; start += kBlock) {
    const size_t m = std::min(kBlock, n - start);
    const char* block = cells + start * w;
    kernels::NullSuppressedLengths(block, w, m, type.IsString(), lengths);
    for (size_t i = 0; i < m; ++i) fn(block + i * w, lengths[i]);
  }
}

/// Calls fn(values, m) for consecutive blocks of the `n` contiguous
/// `width`-byte integer cells at `cells`, in order, each block decoded to
/// sign-extended int64s by the batched kernel into a stack buffer.
template <typename Fn>
void ForEachIntBlock(const char* cells, uint32_t width, size_t n, Fn&& fn) {
  constexpr size_t kBlock = 256;
  int64_t values[kBlock] = {};
  for (size_t start = 0; start < n; start += kBlock) {
    const size_t m = std::min(kBlock, n - start);
    kernels::DecodeInts(cells + start * width, width, m, values);
    fn(values, m);
  }
}

/// Length of the common prefix of the first `limit` bytes of `a` and `b`.
inline size_t CommonPrefixLength(const char* a, const char* b, size_t limit) {
  size_t i = 0;
  if constexpr (std::endian::native == std::endian::little) {
    for (; i + 8 <= limit; i += 8) {
      uint64_t x;
      uint64_t y;
      std::memcpy(&x, a + i, 8);
      std::memcpy(&y, b + i, 8);
      if (x != y) return i + static_cast<size_t>(std::countr_zero(x ^ y)) / 8;
    }
  }
  while (i < limit && a[i] == b[i]) ++i;
  return i;
}

/// Appends length header + suppressed payload of `cell`.
void PutNullSuppressed(const Slice& cell, const DataType& type,
                       std::string* out);

/// Reads one null-suppressed cell at *pos, appending the re-padded
/// fixed-width cell bytes to *cell_out.
Status GetNullSuppressed(Slice in, size_t* pos, const DataType& type,
                         std::string* cell_out);

/// Re-pads a suppressed payload to the column's fixed width: blanks for
/// strings, zero bytes for integers.
void PadCell(Slice payload, const DataType& type, std::string* cell_out);

}  // namespace encoding
}  // namespace cfest

#endif  // CFEST_COMPRESSION_ENCODING_UTIL_H_
