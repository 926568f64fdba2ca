#include "compression/kernels.h"

#include <bit>
#include <cstring>

#include "common/metrics.h"

#if defined(__x86_64__) || defined(__i386__)
#define CFEST_KERNELS_X86 1
#include <immintrin.h>
#else
#define CFEST_KERNELS_X86 0
#endif

namespace cfest {
namespace kernels {
namespace {

// ---------------------------------------------------------------------------
// Byte-predicate bitmasks.
//
// The vector paths reduce both hot predicates — "is this byte padding?"
// (NS length scan) and "are these bytes equal?" (RLE boundary scan) — to a
// bitmask with one bit per byte, built 16/32 bytes per instruction, then
// answer the per-cell question with O(1) word ops on the mask. That shape
// handles every cell width, alignment, and tail length uniformly, which is
// what keeps the variants bit-identical to the scalar references.
// ---------------------------------------------------------------------------

/// Mask words needed for `bytes` bits plus one guard word so unaligned
/// 64-bit extraction never reads past the array.
size_t MaskWords(size_t bytes) { return bytes / 64 + 2; }

void BuildNonPadMaskScalar(const char* data, size_t bytes, bool is_string,
                           uint64_t* mask) {
  std::memset(mask, 0, MaskWords(bytes) * sizeof(uint64_t));
  for (size_t i = 0; i < bytes; ++i) {
    const char c = data[i];
    const bool pad = is_string ? (c == ' ' || c == '\0') : (c == '\0');
    if (!pad) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

#if CFEST_KERNELS_X86

__attribute__((target("sse4.2"))) void BuildNonPadMaskSse42(
    const char* data, size_t bytes, bool is_string, uint64_t* mask) {
  std::memset(mask, 0, MaskWords(bytes) * sizeof(uint64_t));
  const __m128i blanks = _mm_set1_epi8(' ');
  const __m128i zeros = _mm_setzero_si128();
  size_t i = 0;
  for (; i + 16 <= bytes; i += 16) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + i));
    __m128i pad = _mm_cmpeq_epi8(v, zeros);
    if (is_string) pad = _mm_or_si128(pad, _mm_cmpeq_epi8(v, blanks));
    const uint64_t nonpad =
        static_cast<uint16_t>(~_mm_movemask_epi8(pad));
    mask[i >> 6] |= nonpad << (i & 63);
  }
  for (; i < bytes; ++i) {
    const char c = data[i];
    const bool pad = is_string ? (c == ' ' || c == '\0') : (c == '\0');
    if (!pad) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

__attribute__((target("avx2"))) void BuildNonPadMaskAvx2(const char* data,
                                                         size_t bytes,
                                                         bool is_string,
                                                         uint64_t* mask) {
  std::memset(mask, 0, MaskWords(bytes) * sizeof(uint64_t));
  const __m256i blanks = _mm256_set1_epi8(' ');
  const __m256i zeros = _mm256_setzero_si256();
  size_t i = 0;
  for (; i + 32 <= bytes; i += 32) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(data + i));
    __m256i pad = _mm256_cmpeq_epi8(v, zeros);
    if (is_string) pad = _mm256_or_si256(pad, _mm256_cmpeq_epi8(v, blanks));
    const uint64_t nonpad =
        static_cast<uint32_t>(~_mm256_movemask_epi8(pad));
    mask[i >> 6] |= nonpad << (i & 63);
  }
  for (; i < bytes; ++i) {
    const char c = data[i];
    const bool pad = is_string ? (c == ' ' || c == '\0') : (c == '\0');
    if (!pad) mask[i >> 6] |= uint64_t{1} << (i & 63);
  }
}

// ---------------------------------------------------------------------------
// Narrow-cell NS length fast path.
//
// The dominant sizing widths are the integer FixedWidths 4 and 8 (and
// char(4)/char(8)): one cmpeq+movemask covers 4-8 whole cells, and each
// cell's length is bit_width() of its slice of the inverted pad mask —
// no mask array, no per-cell word extraction.
// ---------------------------------------------------------------------------

/// W is the cell width (4 or 8). The constexpr trip count fully unrolls
/// the extraction, so each cell costs one shift+mask+bit_width on the
/// inverted movemask. The last n % (cells per vector) cells go through the
/// scalar reference.
template <uint32_t W>
__attribute__((target("sse4.2"))) void NsNarrowSse42(const char* cells,
                                                     size_t n, bool is_string,
                                                     uint32_t* out) {
  const __m128i blanks = _mm_set1_epi8(' ');
  const __m128i zeros = _mm_setzero_si128();
  constexpr uint32_t kPerVec = 16 / W;
  constexpr uint32_t kCellMask = W == 8 ? 0xFFu : 0xFu;
  size_t i = 0;
  for (; i + kPerVec <= n; i += kPerVec) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells + i * W));
    __m128i pad = _mm_cmpeq_epi8(v, zeros);
    if (is_string) pad = _mm_or_si128(pad, _mm_cmpeq_epi8(v, blanks));
    const uint32_t nonpad = static_cast<uint16_t>(~_mm_movemask_epi8(pad));
    for (uint32_t c = 0; c < kPerVec; ++c) {
      out[i + c] = static_cast<uint32_t>(
          std::bit_width((nonpad >> (c * W)) & kCellMask));
    }
  }
  scalar::NullSuppressedLengths(cells + i * W, W, n - i, is_string, out + i);
}

template <uint32_t W>
__attribute__((target("avx2"))) void NsNarrowAvx2(const char* cells, size_t n,
                                                  bool is_string,
                                                  uint32_t* out) {
  const __m256i blanks = _mm256_set1_epi8(' ');
  const __m256i zeros = _mm256_setzero_si256();
  constexpr uint32_t kPerVec = 32 / W;
  constexpr uint32_t kCellMask = W == 8 ? 0xFFu : 0xFu;
  size_t i = 0;
  for (; i + kPerVec <= n; i += kPerVec) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(cells + i * W));
    __m256i pad = _mm256_cmpeq_epi8(v, zeros);
    if (is_string) pad = _mm256_or_si256(pad, _mm256_cmpeq_epi8(v, blanks));
    const uint32_t nonpad =
        static_cast<uint32_t>(~_mm256_movemask_epi8(pad));
    for (uint32_t c = 0; c < kPerVec; ++c) {
      out[i + c] = static_cast<uint32_t>(
          std::bit_width((nonpad >> (c * W)) & kCellMask));
    }
  }
  scalar::NullSuppressedLengths(cells + i * W, W, n - i, is_string, out + i);
}

/// Dispatches the width-4/8 NS fast path at the given vector level.
void NsNarrow(SimdLevel level, const char* cells, uint32_t width, size_t n,
              bool is_string, uint32_t* out) {
  if (level == SimdLevel::kAvx2) {
    if (width == 8) return NsNarrowAvx2<8>(cells, n, is_string, out);
    return NsNarrowAvx2<4>(cells, n, is_string, out);
  }
  if (width == 8) return NsNarrowSse42<8>(cells, n, is_string, out);
  NsNarrowSse42<4>(cells, n, is_string, out);
}

// ---------------------------------------------------------------------------
// Run-boundary scans: whole-cell windowed compares.
//
// One unaligned vector compare of cell i against cell i-1 answers a
// boundary in a single cmpeq+movemask; for w <= half a vector, the window
// [cell i-1, cell i] vs [cell i, cell i+1] answers two boundaries at once.
// Only boundaries whose window stays inside the slice take the vector
// path; the last few fall back to memcmp, keeping results bit-identical.
// ---------------------------------------------------------------------------

/// Calls visit(i) for every boundary i in [1, n) where cell i != cell i-1.
template <typename Visitor>
__attribute__((target("sse4.2"))) void NeqBoundariesSse42(const char* cells,
                                                          uint32_t w, size_t n,
                                                          Visitor&& visit) {
  const size_t bytes = n * w;
  size_t i = 1;
  if (w <= 8) {
    const uint32_t want = (1u << w) - 1;
    for (; i + 1 < n && i * w + 16 <= bytes; i += 2) {
      const __m128i a = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cells + (i - 1) * w));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells + i * w));
      const uint32_t m =
          static_cast<uint16_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(a, b)));
      if ((m & want) != want) visit(i);
      if (((m >> w) & want) != want) visit(i + 1);
    }
  } else if (w <= 16) {
    const uint32_t want = w == 16 ? 0xFFFFu : (1u << w) - 1;
    for (; i < n && i * w + 16 <= bytes; ++i) {
      const __m128i a = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(cells + (i - 1) * w));
      const __m128i b =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(cells + i * w));
      const uint32_t m =
          static_cast<uint16_t>(_mm_movemask_epi8(_mm_cmpeq_epi8(a, b)));
      if ((m & want) != want) visit(i);
    }
  } else {
    for (; i < n; ++i) {
      const char* a = cells + (i - 1) * w;
      const char* b = cells + i * w;
      bool eq = true;
      size_t off = 0;
      for (; off + 16 <= w; off += 16) {
        const __m128i va =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + off));
        const __m128i vb =
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + off));
        if (_mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) != 0xFFFF) {
          eq = false;
          break;
        }
      }
      if (eq && off < w) eq = std::memcmp(a + off, b + off, w - off) == 0;
      if (!eq) visit(i);
    }
    return;
  }
  for (; i < n; ++i) {
    if (std::memcmp(cells + i * w, cells + (i - 1) * w, w) != 0) visit(i);
  }
}

template <typename Visitor>
__attribute__((target("avx2"))) void NeqBoundariesAvx2(const char* cells,
                                                       uint32_t w, size_t n,
                                                       Visitor&& visit) {
  const size_t bytes = n * w;
  size_t i = 1;
  if (w <= 16) {
    const uint32_t want = w == 16 ? 0xFFFFu : (1u << w) - 1;
    for (; i + 1 < n && i * w + 32 <= bytes; i += 2) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cells + (i - 1) * w));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cells + i * w));
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)));
      if ((m & want) != want) visit(i);
      if (((m >> w) & want) != want) visit(i + 1);
    }
  } else if (w <= 32) {
    const uint32_t want = w == 32 ? 0xFFFFFFFFu : (1u << w) - 1;
    for (; i < n && i * w + 32 <= bytes; ++i) {
      const __m256i a = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cells + (i - 1) * w));
      const __m256i b = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(cells + i * w));
      const uint32_t m = static_cast<uint32_t>(
          _mm256_movemask_epi8(_mm256_cmpeq_epi8(a, b)));
      if ((m & want) != want) visit(i);
    }
  } else {
    for (; i < n; ++i) {
      const char* a = cells + (i - 1) * w;
      const char* b = cells + i * w;
      bool eq = true;
      size_t off = 0;
      for (; off + 32 <= w; off += 32) {
        const __m256i va =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + off));
        const __m256i vb =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + off));
        if (static_cast<uint32_t>(_mm256_movemask_epi8(
                _mm256_cmpeq_epi8(va, vb))) != 0xFFFFFFFFu) {
          eq = false;
          break;
        }
      }
      if (eq && off < w) eq = std::memcmp(a + off, b + off, w - off) == 0;
      if (!eq) visit(i);
    }
    return;
  }
  for (; i < n; ++i) {
    if (std::memcmp(cells + i * w, cells + (i - 1) * w, w) != 0) visit(i);
  }
}

#endif  // CFEST_KERNELS_X86

void BuildNonPadMask(const char* data, size_t bytes, bool is_string,
                     uint64_t* mask) {
#if CFEST_KERNELS_X86
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx2:
      BuildNonPadMaskAvx2(data, bytes, is_string, mask);
      return;
    case SimdLevel::kSse42:
      BuildNonPadMaskSse42(data, bytes, is_string, mask);
      return;
    case SimdLevel::kScalar:
      break;
  }
#endif
  BuildNonPadMaskScalar(data, bytes, is_string, mask);
}

/// `nbits` (<= 64) mask bits starting at `bit_off`. Relies on the guard
/// word MaskWords() reserves.
inline uint64_t ExtractBits(const uint64_t* mask, size_t bit_off,
                            uint32_t nbits) {
  const size_t word = bit_off >> 6;
  const unsigned sh = static_cast<unsigned>(bit_off & 63);
  uint64_t bits = mask[word] >> sh;
  if (sh != 0) bits |= mask[word + 1] << (64 - sh);
  if (nbits < 64) bits &= (uint64_t{1} << nbits) - 1;
  return bits;
}

/// Null-suppressed length of the cell whose non-pad mask starts at
/// `base_bit`: one past the highest set bit, 0 if none.
inline uint32_t LengthFromMask(const uint64_t* mask, size_t base_bit,
                               uint32_t width) {
  uint32_t rem = width;
  while (rem > 0) {
    uint32_t chunk = rem & 63;
    if (chunk == 0) chunk = 64;
    rem -= chunk;
    const uint64_t bits = ExtractBits(mask, base_bit + rem, chunk);
    if (bits != 0) {
      return rem + static_cast<uint32_t>(std::bit_width(bits));
    }
  }
  return 0;
}

/// Reusable per-thread mask scratch: the engine's fan-out threads each keep
/// one, so steady-state kernel calls allocate nothing.
std::vector<uint64_t>& MaskScratch() {
  thread_local std::vector<uint64_t> scratch;
  return scratch;
}

uint64_t* MaskFor(size_t bytes) {
  std::vector<uint64_t>& scratch = MaskScratch();
  if (scratch.size() < MaskWords(bytes)) scratch.resize(MaskWords(bytes));
  return scratch.data();
}

}  // namespace

// ---------------------------------------------------------------------------
// Scalar references.
// ---------------------------------------------------------------------------

namespace scalar {

void NullSuppressedLengths(const char* cells, uint32_t width, size_t n,
                           bool is_string, uint32_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const char* cell = cells + i * width;
    uint32_t len = width;
    if (is_string) {
      while (len > 0 && (cell[len - 1] == ' ' || cell[len - 1] == '\0')) {
        --len;
      }
    } else {
      while (len > 0 && cell[len - 1] == '\0') --len;
    }
    out[i] = len;
  }
}

void RunStarts(const char* cells, uint32_t width, size_t n,
               const char* prev_cell, std::vector<uint32_t>* starts) {
  if (n == 0) return;
  if (prev_cell == nullptr || std::memcmp(prev_cell, cells, width) != 0) {
    starts->push_back(0);
  }
  for (size_t i = 1; i < n; ++i) {
    if (std::memcmp(cells + i * width, cells + (i - 1) * width, width) != 0) {
      starts->push_back(static_cast<uint32_t>(i));
    }
  }
}

void DecodeInts(const char* cells, uint32_t width, size_t n, int64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    const char* cell = cells + i * width;
    uint64_t v = 0;
    for (uint32_t b = 0; b < width; ++b) {
      v |= static_cast<uint64_t>(static_cast<unsigned char>(cell[b]))
           << (8 * b);
    }
    if (width < 8) {
      const uint64_t sign = uint64_t{1} << (8 * width - 1);
      if (v & sign) v |= ~((sign << 1) - 1);
    }
    out[i] = static_cast<int64_t>(v);
  }
}

MinMax MinMaxInts(const int64_t* values, size_t n) {
  MinMax mm{values[0], values[0]};
  for (size_t i = 1; i < n; ++i) {
    if (values[i] < mm.min) mm.min = values[i];
    if (values[i] > mm.max) mm.max = values[i];
  }
  return mm;
}

uint64_t HashBytes(const char* data, size_t n) {
  // FNV-1a 64.
  uint64_t h = 0xcbf29ce484222325ull;
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

void GatherRows(const char* rows, uint32_t width, const uint32_t* perm,
                size_t n, char* out) {
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out + i * width, rows + size_t{perm[i]} * width, width);
  }
}

void GatherRows(const char* rows, uint32_t width, const uint64_t* perm,
                size_t n, char* out) {
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out + i * width, rows + perm[i] * width, width);
  }
}

void GatherStrided(const char* src, size_t stride, uint32_t width, size_t n,
                   char* out) {
  for (size_t i = 0; i < n; ++i) {
    std::memcpy(out + i * width, src + i * stride, width);
  }
}

}  // namespace scalar

// ---------------------------------------------------------------------------
// Dispatched entry points.
// ---------------------------------------------------------------------------

/// Per-level dispatch counters for the batch-granular kernels (one count
/// per kernel call, amortized over the n cells it scans — the per-probe
/// HashBytes path is deliberately NOT counted; see the overhead policy in
/// estimator/README.md).
namespace {

void CountDispatch(SimdLevel level) {
  static metrics::Counter* const counters[] = {
      metrics::MetricRegistry::Global().GetCounter(
          "cfest.kernels.dispatch_scalar"),
      metrics::MetricRegistry::Global().GetCounter(
          "cfest.kernels.dispatch_sse42"),
      metrics::MetricRegistry::Global().GetCounter(
          "cfest.kernels.dispatch_avx2")};
  counters[static_cast<int>(level)]->Increment();
}

}  // namespace

void NullSuppressedLengths(const char* cells, uint32_t width, size_t n,
                           bool is_string, uint32_t* out) {
  if (n == 0 || width == 0) {
    for (size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const SimdLevel level = ActiveSimdLevel();
  CountDispatch(level);
  if (level == SimdLevel::kScalar || n * width < 64) {
    scalar::NullSuppressedLengths(cells, width, n, is_string, out);
    return;
  }
#if CFEST_KERNELS_X86
  if (width == 4 || width == 8) {
    NsNarrow(level, cells, width, n, is_string, out);
    return;
  }
#endif
  const size_t bytes = n * width;
  uint64_t* mask = MaskFor(bytes);
  BuildNonPadMask(cells, bytes, is_string, mask);
  for (size_t i = 0; i < n; ++i) {
    out[i] = LengthFromMask(mask, i * width, width);
  }
}

void RunStarts(const char* cells, uint32_t width, size_t n,
               const char* prev_cell, std::vector<uint32_t>* starts) {
  if (n == 0) return;
  if (width == 0) {
    // Zero-width cells are all equal; at most the slice opens one run.
    if (prev_cell == nullptr) starts->push_back(0);
    return;
  }
  const SimdLevel level = ActiveSimdLevel();
  CountDispatch(level);
  if (level == SimdLevel::kScalar || n < 2 || (n - 1) * width < 64) {
    scalar::RunStarts(cells, width, n, prev_cell, starts);
    return;
  }
  if (prev_cell == nullptr || std::memcmp(prev_cell, cells, width) != 0) {
    starts->push_back(0);
  }
#if CFEST_KERNELS_X86
  const auto collect = [starts](size_t i) {
    starts->push_back(static_cast<uint32_t>(i));
  };
  if (level == SimdLevel::kAvx2) {
    NeqBoundariesAvx2(cells, width, n, collect);
  } else {
    NeqBoundariesSse42(cells, width, n, collect);
  }
#else
  for (size_t i = 1; i < n; ++i) {
    if (std::memcmp(cells + i * width, cells + (i - 1) * width, width) != 0) {
      starts->push_back(static_cast<uint32_t>(i));
    }
  }
#endif
}

void DecodeInts(const char* cells, uint32_t width, size_t n, int64_t* out) {
  if (width == 8) {
    // Little-endian host: 8-byte cells are already the int64 encoding.
    std::memcpy(out, cells, n * sizeof(int64_t));
    return;
  }
  scalar::DecodeInts(cells, width, n, out);
}

#if CFEST_KERNELS_X86

namespace {

__attribute__((target("sse4.2"))) MinMax MinMaxIntsSse42(
    const int64_t* values, size_t n) {
  __m128i vmin = _mm_set1_epi64x(values[0]);
  __m128i vmax = vmin;
  size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128i v =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(values + i));
    vmin = _mm_blendv_epi8(vmin, v, _mm_cmpgt_epi64(vmin, v));
    vmax = _mm_blendv_epi8(vmax, v, _mm_cmpgt_epi64(v, vmax));
  }
  alignas(16) int64_t lanes[2];
  MinMax mm{values[0], values[0]};
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vmin);
  for (int64_t v : lanes) mm.min = v < mm.min ? v : mm.min;
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vmax);
  for (int64_t v : lanes) mm.max = v > mm.max ? v : mm.max;
  for (; i < n; ++i) {
    if (values[i] < mm.min) mm.min = values[i];
    if (values[i] > mm.max) mm.max = values[i];
  }
  return mm;
}

__attribute__((target("avx2"))) MinMax MinMaxIntsAvx2(const int64_t* values,
                                                      size_t n) {
  __m256i vmin = _mm256_set1_epi64x(values[0]);
  __m256i vmax = vmin;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i v =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    vmin = _mm256_blendv_epi8(vmin, v, _mm256_cmpgt_epi64(vmin, v));
    vmax = _mm256_blendv_epi8(vmax, v, _mm256_cmpgt_epi64(v, vmax));
  }
  alignas(32) int64_t lanes[4];
  MinMax mm{values[0], values[0]};
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmin);
  for (int64_t v : lanes) mm.min = v < mm.min ? v : mm.min;
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), vmax);
  for (int64_t v : lanes) mm.max = v > mm.max ? v : mm.max;
  for (; i < n; ++i) {
    if (values[i] < mm.min) mm.min = values[i];
    if (values[i] > mm.max) mm.max = values[i];
  }
  return mm;
}

__attribute__((target("sse4.2"))) uint64_t HashBytesCrc(const char* data,
                                                        size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t chunk;
    std::memcpy(&chunk, data + i, 8);
    crc = _mm_crc32_u64(crc, chunk);
  }
  for (; i < n; ++i) {
    crc = _mm_crc32_u8(static_cast<uint32_t>(crc),
                       static_cast<unsigned char>(data[i]));
  }
  // Widen the 32-bit CRC and fold in the length so short keys spread over
  // the full 64-bit range the probe tables mask down from.
  return (crc ^ (static_cast<uint64_t>(n) << 32)) * 0x9E3779B97F4A7C15ull;
}

}  // namespace

#endif  // CFEST_KERNELS_X86

MinMax MinMaxInts(const int64_t* values, size_t n) {
#if CFEST_KERNELS_X86
  switch (ActiveSimdLevel()) {
    case SimdLevel::kAvx2:
      if (n >= 8) return MinMaxIntsAvx2(values, n);
      break;
    case SimdLevel::kSse42:
      if (n >= 4) return MinMaxIntsSse42(values, n);
      break;
    case SimdLevel::kScalar:
      break;
  }
#endif
  return scalar::MinMaxInts(values, n);
}

uint64_t HashBytes(const char* data, size_t n) {
#if CFEST_KERNELS_X86
  if (ActiveSimdLevel() >= SimdLevel::kSse42) return HashBytesCrc(data, n);
#endif
  return scalar::HashBytes(data, n);
}

namespace {

template <typename Index>
void GatherRowsImpl(const char* rows, uint32_t width, const Index* perm,
                    size_t n, char* out) {
  // Width-specialized copies compile to straight vector moves; the generic
  // tail handles any row shape.
  switch (width) {
    case 8:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * 8, rows + size_t{perm[i]} * 8, 8);
      }
      return;
    case 16:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * 16, rows + size_t{perm[i]} * 16, 16);
      }
      return;
    case 24:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * 24, rows + size_t{perm[i]} * 24, 24);
      }
      return;
    case 32:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * 32, rows + size_t{perm[i]} * 32, 32);
      }
      return;
    default:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * width, rows + size_t{perm[i]} * width, width);
      }
      return;
  }
}

}  // namespace

void GatherRows(const char* rows, uint32_t width, const uint32_t* perm,
                size_t n, char* out) {
  GatherRowsImpl(rows, width, perm, n, out);
}

void GatherRows(const char* rows, uint32_t width, const uint64_t* perm,
                size_t n, char* out) {
  GatherRowsImpl(rows, width, perm, n, out);
}

void GatherStrided(const char* src, size_t stride, uint32_t width, size_t n,
                   char* out) {
  switch (width) {
    case 4:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * 4, src + i * stride, 4);
      }
      return;
    case 8:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * 8, src + i * stride, 8);
      }
      return;
    case 16:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * 16, src + i * stride, 16);
      }
      return;
    default:
      for (size_t i = 0; i < n; ++i) {
        std::memcpy(out + i * width, src + i * stride, width);
      }
      return;
  }
}

}  // namespace kernels
}  // namespace cfest
