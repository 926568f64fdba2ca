// Tests for the hardware-fast sizing kernels (compression/kernels.h): every
// SIMD variant pinned bit-identical to its scalar reference across fuzzed
// widths, alignments, odd tails, and empty/single-cell slices; the arena
// allocator; the bulk BitWriter; the batched chunk path (stage, then commit
// or drop) against the per-cell path; and the incremental (Fenwick) advisor
// bound against a test-local rescan.

#include <algorithm>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "advisor/search.h"
#include "common/arena.h"
#include "common/bit_util.h"
#include "common/random.h"
#include "common/simd.h"
#include "compression/cell_dictionary.h"
#include "compression/compressed_index.h"
#include "compression/compressor.h"
#include "compression/kernels.h"
#include "compression/scheme.h"
#include "storage/row_codec.h"

namespace cfest {
namespace {

/// Every level worth pinning on this machine (always includes kScalar).
std::vector<SimdLevel> TestableLevels() {
  std::vector<SimdLevel> levels = {SimdLevel::kScalar};
  if (MaxSimdLevel() >= SimdLevel::kSse42) levels.push_back(SimdLevel::kSse42);
  if (MaxSimdLevel() >= SimdLevel::kAvx2) levels.push_back(SimdLevel::kAvx2);
  return levels;
}

/// Restores the default dispatch policy when a test scope ends.
struct SimdLevelGuard {
  ~SimdLevelGuard() { ResetSimdLevel(); }
};

/// Cell data with many pad bytes and runs, offset from the allocation start
/// so vector loads see every alignment.
std::string FuzzCells(Random* rng, uint32_t width, size_t n, bool is_string,
                      size_t misalign) {
  std::string buf(misalign + n * width, '\0');
  for (size_t i = 0; i < n; ++i) {
    char* cell = buf.data() + misalign + i * width;
    const uint64_t shape = rng->NextBounded(10);
    if (shape < 3) {
      // Fully padded cell (length 0).
      std::memset(cell, is_string ? ' ' : '\0', width);
    } else if (shape < 5 && i > 0) {
      // Repeat the previous cell: RLE runs.
      std::memcpy(cell, cell - width, width);
    } else {
      const uint32_t len = static_cast<uint32_t>(rng->NextBounded(width + 1));
      for (uint32_t b = 0; b < len; ++b) {
        cell[b] = static_cast<char>(rng->NextBounded(256));
      }
      if (len > 0 && is_string) {
        // Make the last byte non-pad half the time so lengths vary.
        if (rng->NextBounded(2) == 0) cell[len - 1] = 'x';
      }
      for (uint32_t b = len; b < width; ++b) cell[b] = is_string ? ' ' : '\0';
    }
  }
  return buf;
}

/// Blank-padded string cells sharing one random stem, the shape prefix
/// compression feeds on: suffixes come from a three-letter alphabet (so
/// values repeat), and some cells stop short of, or inside, the stem.
std::string StemmedCells(Random* rng, uint32_t width, size_t n) {
  std::string stem;
  for (uint32_t b = 0; b < width; ++b) {
    stem.push_back(static_cast<char>('a' + rng->NextBounded(26)));
  }
  std::string buf(n * width, ' ');
  for (size_t i = 0; i < n; ++i) {
    char* cell = buf.data() + i * width;
    const uint32_t len = static_cast<uint32_t>(rng->NextBounded(width + 1));
    const uint32_t stem_len = std::min<uint32_t>(
        len, static_cast<uint32_t>(width / 2 + rng->NextBounded(3)));
    std::memcpy(cell, stem.data(), stem_len);
    for (uint32_t b = stem_len; b < len; ++b) {
      cell[b] = static_cast<char>('0' + rng->NextBounded(3));
    }
  }
  return buf;
}

/// Little-endian integer cells on a random walk that crosses zero, so
/// consecutive deltas are positive, negative and zero, small and large.
std::string RandomWalkCells(Random* rng, uint32_t width, size_t n) {
  std::string buf(n * width, '\0');
  int64_t v = -1000;
  const int64_t limit = width >= 8 ? (int64_t{1} << 40) : (int64_t{1} << 28);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t kind = rng->NextBounded(4);
    const int64_t step =
        kind == 0 ? 0
        : kind == 1
            ? static_cast<int64_t>(rng->NextBounded(200)) - 100
            : static_cast<int64_t>(rng->NextBounded(2000001)) - 1000000;
    v = std::clamp<int64_t>(v + step * (kind == 3 ? 4096 : 1), -limit, limit);
    const uint64_t bits = static_cast<uint64_t>(v);
    for (uint32_t b = 0; b < width; ++b) {
      buf[i * width + b] = static_cast<char>((bits >> (8 * b)) & 0xFF);
    }
  }
  return buf;
}

/// Sorted cells in long runs, the shape a one-column index feeds its key
/// compressor: ascending distinct values (little-endian integers, or
/// blank-padded zero-filled decimals behind a "k", whose common prefix
/// shortens as the values grow), each repeated 1 to 40 times.
std::string SortedRunCells(Random* rng, uint32_t width, size_t n,
                           bool is_string) {
  std::string buf(n * width, is_string ? ' ' : '\0');
  uint64_t value = rng->NextBounded(1000);
  size_t i = 0;
  while (i < n) {
    const size_t run = std::min<size_t>(n - i, 1 + rng->NextBounded(40));
    std::string cell(width, is_string ? ' ' : '\0');
    if (is_string) {
      const std::string digits = std::to_string(value);
      const size_t room = std::min<size_t>(width - 1, 18);
      cell[0] = 'k';
      for (size_t b = 0; b < room; ++b) {
        cell[1 + b] = b + digits.size() < room
                          ? '0'
                          : digits[b + digits.size() - room];
      }
    } else {
      for (uint32_t b = 0; b < width && b < 8; ++b) {
        cell[b] = static_cast<char>((value >> (8 * b)) & 0xFF);
      }
    }
    for (size_t k = 0; k < run; ++k) {
      std::memcpy(buf.data() + (i + k) * width, cell.data(), width);
    }
    i += run;
    value += 1 + rng->NextBounded(rng->NextBounded(2) == 0 ? 3 : 5000);
  }
  return buf;
}

TEST(SimdLevelTest, ProbeAndPin) {
  SimdLevelGuard guard;
  EXPECT_STREQ(SimdLevelName(SimdLevel::kScalar), "scalar");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kSse42), "sse42");
  EXPECT_STREQ(SimdLevelName(SimdLevel::kAvx2), "avx2");
  SetSimdLevel(SimdLevel::kScalar);
  EXPECT_EQ(ActiveSimdLevel(), SimdLevel::kScalar);
  // A pin above the CPU's capability clamps instead of lying.
  SetSimdLevel(SimdLevel::kAvx2);
  EXPECT_LE(ActiveSimdLevel(), MaxSimdLevel());
  ResetSimdLevel();
  EXPECT_LE(ActiveSimdLevel(), MaxSimdLevel());
}

TEST(KernelsTest, NullSuppressedLengthsMatchScalarAndRowCodec) {
  SimdLevelGuard guard;
  Random rng(42);
  const uint32_t widths[] = {1, 2, 3, 4, 7, 8, 9, 16, 20, 33, 64, 65, 300};
  const size_t counts[] = {0, 1, 2, 3, 15, 16, 17, 63, 64, 65, 513};
  for (const bool is_string : {false, true}) {
    for (const uint32_t w : widths) {
      const DataType cell_type = is_string ? CharType(w) : Int64Type();
      for (const size_t n : counts) {
        for (const size_t misalign : {size_t{0}, size_t{1}, size_t{7}}) {
          const std::string buf = FuzzCells(&rng, w, n, is_string, misalign);
          const char* cells = buf.data() + misalign;
          std::vector<uint32_t> expect(n + 1, 0xDEAD);
          kernels::scalar::NullSuppressedLengths(cells, w, n, is_string,
                                                 expect.data());
          // The scalar reference must agree with the row codec's
          // definition of l_i.
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(expect[i],
                      NullSuppressedLength(Slice(cells + i * w, w), cell_type));
          }
          for (const SimdLevel level : TestableLevels()) {
            SetSimdLevel(level);
            std::vector<uint32_t> got(n + 1, 0xBEEF);
            kernels::NullSuppressedLengths(cells, w, n, is_string, got.data());
            for (size_t i = 0; i < n; ++i) {
              ASSERT_EQ(got[i], expect[i])
                  << "level=" << SimdLevelName(level) << " w=" << w
                  << " n=" << n << " mis=" << misalign << " i=" << i;
            }
          }
        }
      }
    }
  }
}

TEST(KernelsTest, RunStartsMatchScalar) {
  SimdLevelGuard guard;
  Random rng(43);
  const uint32_t widths[] = {1, 2, 4, 8, 10, 16, 20, 64, 65, 130};
  const size_t counts[] = {0, 1, 2, 3, 31, 32, 33, 500};
  for (const uint32_t w : widths) {
    for (const size_t n : counts) {
      for (const size_t misalign : {size_t{0}, size_t{3}}) {
        const std::string buf = FuzzCells(&rng, w, n, false, misalign);
        const char* cells = buf.data() + misalign;
        // prev = null, a matching cell, a differing cell.
        std::string match(n > 0 ? std::string(cells, w) : std::string(w, 'q'));
        std::string differ(w, '\x7f');
        const char* prevs[] = {nullptr, match.data(), differ.data()};
        for (const char* prev : prevs) {
          std::vector<uint32_t> expect;
          kernels::scalar::RunStarts(cells, w, n, prev, &expect);
          for (const SimdLevel level : TestableLevels()) {
            SetSimdLevel(level);
            std::vector<uint32_t> got;
            kernels::RunStarts(cells, w, n, prev, &got);
            ASSERT_EQ(got, expect)
                << "level=" << SimdLevelName(level) << " w=" << w
                << " n=" << n << " mis=" << misalign;
          }
        }
      }
    }
  }
}

TEST(KernelsTest, DecodeIntsSignExtendsLikeFrameOfReference) {
  SimdLevelGuard guard;
  Random rng(44);
  for (uint32_t w = 1; w <= 8; ++w) {
    const size_t n = 257;
    std::string buf(n * w, '\0');
    for (size_t i = 0; i < buf.size(); ++i) {
      buf[i] = static_cast<char>(rng.NextBounded(256));
    }
    std::vector<int64_t> expect(n);
    kernels::scalar::DecodeInts(buf.data(), w, n, expect.data());
    for (size_t i = 0; i < n; ++i) {
      // Independent little-endian + sign-extension reference.
      uint64_t v = 0;
      for (uint32_t b = 0; b < w; ++b) {
        v |= static_cast<uint64_t>(static_cast<unsigned char>(buf[i * w + b]))
             << (8 * b);
      }
      if (w < 8) {
        const uint64_t sign = uint64_t{1} << (8 * w - 1);
        if (v & sign) v |= ~((sign << 1) - 1);
      }
      ASSERT_EQ(expect[i], static_cast<int64_t>(v));
    }
    for (const SimdLevel level : TestableLevels()) {
      SetSimdLevel(level);
      std::vector<int64_t> got(n);
      kernels::DecodeInts(buf.data(), w, n, got.data());
      ASSERT_EQ(got, expect) << "w=" << w;
    }
  }
}

TEST(KernelsTest, MinMaxIntsMatchesStdMinmax) {
  SimdLevelGuard guard;
  Random rng(45);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{5}, size_t{7}, size_t{8}, size_t{9},
                         size_t{1000}}) {
    std::vector<int64_t> values(n);
    for (int64_t& v : values) {
      v = static_cast<int64_t>(rng.NextU64());  // full range incl. negatives
    }
    const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
    for (const SimdLevel level : TestableLevels()) {
      SetSimdLevel(level);
      const kernels::MinMax mm = kernels::MinMaxInts(values.data(), n);
      ASSERT_EQ(mm.min, *lo) << "n=" << n;
      ASSERT_EQ(mm.max, *hi) << "n=" << n;
    }
  }
}

TEST(KernelsTest, HashBytesIsDeterministicPerLevel) {
  SimdLevelGuard guard;
  Random rng(46);
  std::string data(300, '\0');
  for (char& c : data) c = static_cast<char>(rng.NextBounded(256));
  for (const SimdLevel level : TestableLevels()) {
    SetSimdLevel(level);
    for (const size_t len : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                             size_t{9}, size_t{300}}) {
      ASSERT_EQ(kernels::HashBytes(data.data(), len),
                kernels::HashBytes(data.data(), len));
    }
    // Single-byte flip changes the hash (any decent hash must).
    std::string other = data;
    other[5] ^= 1;
    EXPECT_NE(kernels::HashBytes(data.data(), data.size()),
              kernels::HashBytes(other.data(), other.size()));
  }
}

TEST(KernelsTest, GatherMatchesNaive) {
  Random rng(47);
  for (const uint32_t w : {1u, 4u, 8u, 16u, 24u, 13u, 32u, 40u}) {
    const size_t n = 200;
    std::string rows(n * w, '\0');
    for (char& c : rows) c = static_cast<char>(rng.NextBounded(256));
    std::vector<uint64_t> perm(n);
    for (size_t i = 0; i < n; ++i) perm[i] = n - 1 - i;
    std::string got(n * w, '\0');
    kernels::GatherRows(rows.data(), w, perm.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(0, std::memcmp(got.data() + i * w,
                               rows.data() + perm[i] * w, w));
    }
    // The scalar reference is bit-identical to the dispatched entry point.
    std::string ref(n * w, '\0');
    kernels::scalar::GatherRows(rows.data(), w, perm.data(), n, ref.data());
    ASSERT_EQ(ref, got);
    // 32-bit permutations (the index build's, whenever rows fit) gather
    // the same rows.
    const std::vector<uint32_t> perm32(perm.begin(), perm.end());
    std::string got32(n * w, '\0');
    kernels::GatherRows(rows.data(), w, perm32.data(), n, got32.data());
    ASSERT_EQ(got32, got);
    std::string ref32(n * w, '\0');
    kernels::scalar::GatherRows(rows.data(), w, perm32.data(), n,
                                ref32.data());
    ASSERT_EQ(ref32, got);
    // Strided gather of "column" bytes out of wider rows.
    const size_t stride = w + 3;
    std::string wide(n * stride, '\0');
    for (char& c : wide) c = static_cast<char>(rng.NextBounded(256));
    std::string cells(n * w, '\0');
    kernels::GatherStrided(wide.data(), stride, w, n, cells.data());
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(0, std::memcmp(cells.data() + i * w,
                               wide.data() + i * stride, w));
    }
    std::string cells_ref(n * w, '\0');
    kernels::scalar::GatherStrided(wide.data(), stride, w, n,
                                   cells_ref.data());
    ASSERT_EQ(cells_ref, cells);
  }
}

TEST(ArenaTest, BumpAlignResetReuse) {
  Arena arena(64);
  char* a = arena.Allocate(10, 16);
  char* b = arena.Allocate(1, 1);
  char* c = arena.Allocate(100, 16);  // forces a new, larger block
  EXPECT_EQ(reinterpret_cast<uintptr_t>(a) % 16, 0u);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(c) % 16, 0u);
  EXPECT_NE(a, b);
  std::memset(c, 0x5A, 100);
  EXPECT_EQ(arena.bytes_allocated(), 111u);
  const size_t reserved = arena.bytes_reserved();
  arena.Reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Steady state: a reset arena recycles its blocks, no new reservations.
  for (int round = 0; round < 8; ++round) {
    arena.Allocate(10, 16);
    arena.Allocate(100, 16);
    EXPECT_EQ(arena.bytes_reserved(), reserved);
    arena.Reset();
  }
  int64_t* ints = arena.AllocateArray<int64_t>(5);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(ints) % alignof(int64_t), 0u);
}

TEST(BitWriterTest, BulkPutMatchesBitReaderRoundTrip) {
  Random rng(48);
  for (int trial = 0; trial < 20; ++trial) {
    std::string packed;
    BitWriter writer(&packed);
    std::vector<std::pair<uint64_t, int>> fields;
    for (int k = 0; k < 100; ++k) {
      const int width = static_cast<int>(rng.NextBounded(65));
      uint64_t value = rng.NextU64();
      if (width < 64) value &= (uint64_t{1} << width) - 1;
      fields.emplace_back(value, width);
      writer.Put(value, width);
    }
    size_t total_bits = 0;
    for (const auto& [value, width] : fields) total_bits += width;
    EXPECT_EQ(packed.size(), BytesForBits(total_bits));
    BitReader reader{Slice(packed)};
    for (const auto& [value, width] : fields) {
      uint64_t got = 0;
      ASSERT_TRUE(reader.Get(width, &got));
      ASSERT_EQ(got, value) << "width=" << width;
    }
  }
}

// ---------------------------------------------------------------------------
// CellDictionary: first-appearance codes and exact tentative roll-back.
// ---------------------------------------------------------------------------

TEST(CellDictionaryTest, RollBackRestoresEntriesWithAndWithoutGrowth) {
  SimdLevelGuard guard;
  auto key = [](size_t i) {
    std::string k = "key-";
    k += std::to_string(i);
    return k;
  };
  for (const SimdLevel level : TestableLevels()) {
    SetSimdLevel(level);
    CellDictionary dict(16);
    for (size_t i = 0; i < 10; ++i) {
      const std::string k = key(i);
      const CellDictionary::Insertion ins =
          dict.Insert(k.data(), static_cast<uint32_t>(k.size()));
      ASSERT_TRUE(ins.inserted);
      ASSERT_EQ(ins.code, i);
    }
    // Sections that stay within the 16-slot table (one new key), grow it
    // once (two) and grow it several times (500); each mixes old keys
    // (existing codes) with new ones.
    for (const size_t extra : {size_t{1}, size_t{2}, size_t{500}}) {
      dict.BeginTentative();
      for (size_t i = 0; i < 10 + extra; ++i) {
        const std::string k = key(i);
        const CellDictionary::Insertion ins =
            dict.Insert(k.data(), static_cast<uint32_t>(k.size()));
        ASSERT_EQ(ins.code, i);
        ASSERT_EQ(ins.inserted, i >= 10);
      }
      ASSERT_EQ(dict.size(), 10 + extra);
      dict.RollBack();
      ASSERT_EQ(dict.size(), 10u) << SimdLevelName(level);
      for (size_t i = 0; i < 10 + extra; ++i) {
        const std::string k = key(i);
        ASSERT_EQ(dict.Contains(k.data(), static_cast<uint32_t>(k.size())),
                  i < 10)
            << "extra=" << extra << " i=" << i;
      }
      for (uint32_t code = 0; code < 10; ++code) {
        ASSERT_EQ(dict.entry(code).ToString(), key(code));
      }
    }
    // Codes after a roll-back continue where the kept entries end.
    const std::string k = key(777);
    EXPECT_EQ(dict.Insert(k.data(), static_cast<uint32_t>(k.size())).code,
              10u);
  }
}

TEST(CellDictionaryTest, CommitKeepsEntriesWithAndWithoutGrowth) {
  SimdLevelGuard guard;
  auto key = [](size_t i) {
    std::string k = "key-";
    k += std::to_string(i);
    return k;
  };
  for (const SimdLevel level : TestableLevels()) {
    SetSimdLevel(level);
    CellDictionary dict(16);
    size_t size = 0;
    // A section within the 16-slot table (one new key), then sections that
    // grow it once and several times; each is committed, and a RollBack()
    // after the commit removes nothing.
    for (const size_t extra : {size_t{1}, size_t{14}, size_t{500}}) {
      dict.BeginTentative();
      for (size_t i = 0; i < size + extra; ++i) {
        const std::string k = key(i);
        const CellDictionary::Insertion ins =
            dict.Insert(k.data(), static_cast<uint32_t>(k.size()));
        ASSERT_EQ(ins.code, i);
        ASSERT_EQ(ins.inserted, i >= size);
      }
      dict.Commit();
      dict.RollBack();
      size += extra;
      ASSERT_EQ(dict.size(), size) << SimdLevelName(level);
      for (size_t i = 0; i < size; ++i) {
        const std::string k = key(i);
        ASSERT_TRUE(dict.Contains(k.data(), static_cast<uint32_t>(k.size())));
        ASSERT_EQ(dict.entry(static_cast<uint32_t>(i)).ToString(), k);
      }
    }
    const std::string k = key(size);
    EXPECT_EQ(dict.Insert(k.data(), static_cast<uint32_t>(k.size())).code,
              size);
  }
}

/// The i-th cell of a grouped key sequence: "g<i / 3>", so each value is
/// inserted three times in a row and never again.
std::string GroupedKey(size_t i) {
  std::string k = "g";
  k += std::to_string(i / 3);
  return k;
}

TEST(CellDictionaryTest, GroupedModeMatchesHashedMode) {
  // A grouped dictionary compares each cell with its newest entry only. On
  // a grouped sequence it must give every code, insertion flag, size, newest
  // entry and Contains() answer the hashed one gives, through tentative
  // sections that are committed or rolled back (a value's run straddling
  // the section's start or end) and through Clear().
  SimdLevelGuard guard;
  for (const SimdLevel level : TestableLevels()) {
    SetSimdLevel(level);
    Random rng(57);
    CellDictionary hashed(16);
    CellDictionary grouped(16, /*grouped=*/true);
    size_t next = 0;  // position in the grouped key sequence
    auto insert_next = [&] {
      const std::string k = GroupedKey(next++);
      const auto len = static_cast<uint32_t>(k.size());
      const CellDictionary::Insertion a = hashed.Insert(k.data(), len);
      const CellDictionary::Insertion b = grouped.Insert(k.data(), len);
      ASSERT_EQ(b.code, a.code) << "key " << k;
      ASSERT_EQ(b.inserted, a.inserted) << "key " << k;
    };
    auto expect_same = [&](const char* step) {
      ASSERT_EQ(grouped.size(), hashed.size()) << step;
      // A grouped dictionary holds its newest entry only.
      if (!hashed.empty()) {
        const auto newest = static_cast<uint32_t>(hashed.size() - 1);
        ASSERT_EQ(grouped.entry(newest).ToString(),
                  hashed.entry(newest).ToString())
            << step;
      }
      // The next key continues the newest run or starts a new value.
      const std::string k = GroupedKey(next);
      const auto len = static_cast<uint32_t>(k.size());
      ASSERT_EQ(grouped.Contains(k.data(), len), hashed.Contains(k.data(), len))
          << step << " key " << k;
    };
    for (int round = 0; round < 200; ++round) {
      const size_t mark = next;
      grouped.BeginTentative();
      hashed.BeginTentative();
      const size_t staged = rng.NextBounded(12);
      for (size_t i = 0; i < staged; ++i) insert_next();
      const uint64_t action = rng.NextBounded(5);
      if (action < 2) {
        grouped.RollBack();
        hashed.RollBack();
        next = mark;  // the packer re-stages the same cells
        expect_same("rolled back");
      } else if (action < 4) {
        grouped.Commit();
        hashed.Commit();
        grouped.RollBack();  // after a commit, removes nothing
        hashed.RollBack();
        expect_same("committed");
      } else {
        grouped.Clear();
        hashed.Clear();
        ASSERT_TRUE(grouped.empty());
        expect_same("cleared");
      }
    }
  }
}

TEST(CellDictionaryTest, GroupedRollBackRestoresTheNewestEntry) {
  CellDictionary dict(256, /*grouped=*/true);
  auto insert = [&](const std::string& k) {
    return dict.Insert(k.data(), static_cast<uint32_t>(k.size()));
  };
  auto contains = [&](const std::string& k) {
    return dict.Contains(k.data(), static_cast<uint32_t>(k.size()));
  };
  EXPECT_FALSE(contains("a"));
  EXPECT_TRUE(insert("a").inserted);
  EXPECT_EQ(insert("b").code, 1u);
  // A section that continues b's run, then moves on; rolled back, b is the
  // newest entry again and keeps its code.
  dict.BeginTentative();
  EXPECT_FALSE(insert("b").inserted);
  EXPECT_EQ(insert("c").code, 2u);
  EXPECT_EQ(insert("d").code, 3u);
  dict.RollBack();
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_TRUE(contains("b"));
  EXPECT_FALSE(contains("d"));
  const CellDictionary::Insertion again = insert("b");
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.code, 1u);
  EXPECT_EQ(insert("c").code, 2u);
  EXPECT_EQ(dict.entry(2).ToString(), "c");
  // Only the newest entry is compared: a value that recurs after another
  // one (a column that is not grouped) becomes a new entry.
  EXPECT_FALSE(contains("a"));
  EXPECT_EQ(insert("a").code, 3u);
  // Clear() restarts the codes.
  dict.Clear();
  EXPECT_TRUE(dict.empty());
  EXPECT_FALSE(contains("a"));
  EXPECT_EQ(insert("a").code, 0u);
}

// ---------------------------------------------------------------------------
// Batched chunk path == per-cell path, per scheme and per SIMD level.
// ---------------------------------------------------------------------------

std::unique_ptr<ColumnCompressor> MustMake(CompressionType type,
                                           const DataType& dt,
                                           bool grouped = false) {
  auto result = MakeColumnCompressor(type, dt, {}, grouped);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).ValueOrDie();
}

bool IsDictionaryScheme(CompressionType type) {
  return type == CompressionType::kDictionaryPage ||
         type == CompressionType::kDictionaryGlobal ||
         type == CompressionType::kPrefixDictionary;
}

/// `cells` (n cells of `width` bytes) made grouped with their runs kept: a
/// run whose value already occurred earlier is rewritten to a value the
/// column has not held ("G" and a number, or a little-endian counter).
std::string GroupedCells(std::string cells, uint32_t width, size_t n,
                         bool is_string) {
  std::set<std::string> seen;
  std::string prev_in;
  std::string prev_out;
  uint64_t fresh = 0;
  for (size_t i = 0; i < n; ++i) {
    char* cell = cells.data() + i * width;
    const std::string in(cell, width);
    if (i == 0 || in != prev_in) {
      prev_in = in;
      prev_out = in;
      while (seen.count(prev_out) != 0) {
        prev_out.assign(width, is_string ? ' ' : '\0');
        if (is_string) {
          std::string text = "G";
          text += std::to_string(fresh++);
          prev_out.replace(0, std::min<size_t>(text.size(), width), text);
        } else {
          for (uint32_t b = 0; b < width && b < 8; ++b) {
            prev_out[b] = static_cast<char>((fresh >> (8 * b)) & 0xFF);
          }
          ++fresh;
        }
      }
      seen.insert(prev_out);
    }
    std::memcpy(cell, prev_out.data(), width);
  }
  return cells;
}

/// Stages, commits and drops random-sized batches on one chunk while the
/// same cells go one by one into a per-cell chunk. A committed batch must
/// cost exactly what its stage reported and leave the per-cell state; a
/// dropped one must leave no trace.
void CheckBatchEqualsPerCell(CompressionType type, const DataType& dt,
                             const std::string& cells, size_t n) {
  const uint32_t w = dt.FixedWidth();
  auto per_cell_comp = MustMake(type, dt);
  auto batch_comp = MustMake(type, dt);
  auto per_cell = per_cell_comp->NewChunk();
  auto batch = batch_comp->NewChunk();
  Random rng(49);
  size_t i = 0;
  while (i < n) {
    const size_t take = std::min<size_t>(n - i, 1 + rng.NextBounded(37));
    // Both chunks hold the same cells here, so staging a single cell must
    // agree with the per-cell CostWith contract, and dropping it must undo
    // it.
    const Slice first(cells.data() + i * w, w);
    ASSERT_EQ(batch->StageBatch(first.data(), 1), per_cell->CostWith(first))
        << "i=" << i;
    batch->DropStaged();
    ASSERT_EQ(batch->Cost(), per_cell->Cost()) << "i=" << i;
    // The staged cost must equal the realized cost after the commit.
    const size_t prospective = batch->StageBatch(cells.data() + i * w, take);
    batch->CommitStaged();
    ASSERT_EQ(batch->Cost(), prospective);
    for (size_t k = 0; k < take; ++k) {
      per_cell->Add(Slice(cells.data() + (i + k) * w, w));
    }
    i += take;
    ASSERT_EQ(batch->Cost(), per_cell->Cost()) << "i=" << i;
    ASSERT_EQ(batch->count(), per_cell->count());
  }
  ASSERT_EQ(batch->Finish(cells.data(), n),
            per_cell->Finish(cells.data(), n));
  // Cross-page compressor state (the global dictionary) must match too.
  ASSERT_EQ(batch_comp->AuxiliaryBytes(), per_cell_comp->AuxiliaryBytes());
  ASSERT_EQ(batch_comp->TotalDictionaryEntries(),
            per_cell_comp->TotalDictionaryEntries());
}

TEST(BatchChunkTest, BatchedPathBitIdenticalAcrossLevels) {
  SimdLevelGuard guard;
  Random rng(50);
  struct Case {
    CompressionType type;
    DataType dt;
    bool is_string;
  };
  const Case cases[] = {
      {CompressionType::kNone, Int64Type(), false},
      {CompressionType::kNone, CharType(17), true},
      {CompressionType::kNullSuppression, Int64Type(), false},
      {CompressionType::kNullSuppression, CharType(20), true},
      {CompressionType::kNullSuppression, CharType(300), true},
      {CompressionType::kRle, Int32Type(), false},
      {CompressionType::kRle, CharType(16), true},
      {CompressionType::kDictionaryPage, CharType(12), true},
      {CompressionType::kDictionaryPage, Int64Type(), false},
      {CompressionType::kDictionaryGlobal, CharType(12), true},
      {CompressionType::kDictionaryGlobal, Int64Type(), false},
      {CompressionType::kFrameOfReference, Int32Type(), false},
      {CompressionType::kFrameOfReference, Int64Type(), false},
      {CompressionType::kPrefix, CharType(12), true},
      {CompressionType::kPrefix, CharType(300), true},
      {CompressionType::kPrefix, Int64Type(), false},
      {CompressionType::kPrefixDictionary, CharType(12), true},
      {CompressionType::kPrefixDictionary, CharType(300), true},
      {CompressionType::kPrefixDictionary, Int32Type(), false},
      {CompressionType::kDelta, Int32Type(), false},
      {CompressionType::kDelta, Int64Type(), false},
  };
  for (const Case& c : cases) {
    const uint32_t w = c.dt.FixedWidth();
    for (const size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{700}}) {
      std::vector<std::string> inputs = {
          FuzzCells(&rng, w, n, c.is_string, 0)};
      if (c.is_string) {
        inputs.push_back(StemmedCells(&rng, w, n));
        inputs.push_back(std::string(n * w, ' '));  // all blank
      }
      if (c.dt.IsInteger()) inputs.push_back(RandomWalkCells(&rng, w, n));
      inputs.push_back(SortedRunCells(&rng, w, n, c.is_string));
      // All-duplicate: one (fuzzed) cell repeated.
      const std::string one = FuzzCells(&rng, w, 1, c.is_string, 0);
      std::string dup;
      for (size_t i = 0; i < n; ++i) dup += one;
      inputs.push_back(std::move(dup));
      for (const std::string& cells : inputs) {
        for (const SimdLevel level : TestableLevels()) {
          SetSimdLevel(level);
          CheckBatchEqualsPerCell(c.type, c.dt, cells, n);
        }
      }
    }
  }
}

TEST(BatchChunkTest, DroppedStagesLeaveNoTrace) {
  // The page packer stages a batch, drops it when the page has no room,
  // halves it and stages again. Every drop must leave the chunk exactly as
  // a chunk that was never staged: dictionary entries, run lengths, prefix
  // lengths, buffers, minima and maxima all restore, or a later code, cost
  // or entry count would differ. Per-row Add() calls (the page-closing
  // path) follow some drops directly. The dictionary schemes run again
  // with the column declared grouped, on grouped inputs, against a hashed
  // per-cell chunk: a value's run straddles the dropped batches, and a drop
  // must leave the run's value the newest entry.
  SimdLevelGuard guard;
  Random hashed_rng(53);
  Random grouped_rng(54);
  struct Case {
    CompressionType type;
    DataType dt;
  };
  const Case cases[] = {
      {CompressionType::kNone, CharType(9)},
      {CompressionType::kNullSuppression, CharType(9)},
      {CompressionType::kNullSuppression, Int64Type()},
      {CompressionType::kDictionaryPage, CharType(9)},
      {CompressionType::kDictionaryPage, Int32Type()},
      {CompressionType::kDictionaryGlobal, CharType(9)},
      {CompressionType::kRle, CharType(9)},
      {CompressionType::kRle, Int32Type()},
      {CompressionType::kPrefix, CharType(9)},
      {CompressionType::kDelta, Int64Type()},
      {CompressionType::kPrefixDictionary, CharType(9)},
      {CompressionType::kPrefixDictionary, CharType(300)},
      {CompressionType::kFrameOfReference, Int32Type()},
  };
  for (const Case& c : cases) {
    for (const bool grouped : {false, true}) {
      if (grouped && !IsDictionaryScheme(c.type)) continue;
      Random& rng = grouped ? grouped_rng : hashed_rng;
      const uint32_t w = c.dt.FixedWidth();
      const bool is_string = !c.dt.IsInteger();
      const size_t n = 900;
      std::vector<std::string> inputs = {
          is_string ? StemmedCells(&rng, w, n) : RandomWalkCells(&rng, w, n),
          SortedRunCells(&rng, w, n, is_string),
          FuzzCells(&rng, w, n, is_string, 0),
      };
      if (grouped) {
        for (std::string& cells : inputs) {
          cells = GroupedCells(std::move(cells), w, n, is_string);
        }
      }
      for (const std::string& cells : inputs) {
        for (const SimdLevel level : TestableLevels()) {
          SetSimdLevel(level);
          const std::string where = std::string(CompressionTypeName(c.type)) +
                                    (grouped ? " grouped " : " ") +
                                    SimdLevelName(level);
          auto per_cell_comp = MustMake(c.type, c.dt);
          auto batch_comp = MustMake(c.type, c.dt, grouped);
          auto per_cell = per_cell_comp->NewChunk();
          auto batch = batch_comp->NewChunk();
          auto expect_untouched = [&](const char* step, size_t i) {
            ASSERT_EQ(batch->Cost(), per_cell->Cost())
                << where << " " << step << " i=" << i;
            ASSERT_EQ(batch->count(), per_cell->count())
                << where << " " << step;
            ASSERT_EQ(batch_comp->TotalDictionaryEntries(),
                      per_cell_comp->TotalDictionaryEntries())
                << where << " " << step;
            ASSERT_EQ(batch_comp->AuxiliaryBytes(),
                      per_cell_comp->AuxiliaryBytes())
                << where << " " << step;
          };
          size_t i = 0;
          while (i < n) {
            const size_t take =
                std::min<size_t>(n - i, 1 + rng.NextBounded(60));
            const char* slice = cells.data() + i * w;
            // An oversized attempt, its halving, and a later slice the chunk
            // never receives, each staged and dropped before the batch that
            // is kept.
            batch->StageBatch(slice, std::min(n - i, 2 * take));
            batch->DropStaged();
            expect_untouched("oversized", i);
            batch->StageBatch(slice, (take + 1) / 2);
            batch->DropStaged();
            expect_untouched("halved", i);
            batch->StageBatch(cells.data() + (n - take) * w, take);
            batch->DropStaged();
            expect_untouched("never appended", i);
            size_t k = 0;
            if (rng.NextBounded(3) == 0) {
              // The packer's last resort after a drop: one row through Add().
              batch->Add(Slice(slice, w));
              k = 1;
            }
            if (k < take) {
              const size_t prospective =
                  batch->StageBatch(slice + k * w, take - k);
              batch->CommitStaged();
              ASSERT_EQ(batch->Cost(), prospective) << where;
            }
            for (k = 0; k < take; ++k) {
              per_cell->Add(Slice(slice + k * w, w));
            }
            i += take;
            expect_untouched("committed", i);
          }
          // A drop right before the chunk closes leaves its bytes untouched.
          batch->StageBatch(cells.data(), n);
          batch->DropStaged();
          ASSERT_EQ(batch->Finish(cells.data(), n),
                    per_cell->Finish(cells.data(), n))
              << where;
          expect_untouched("finished", n);
        }
      }
    }
  }
}

TEST(BatchChunkTest, DictionarySectionThatGrowsTableDropsAndCommits) {
  // A staged batch with more new values than the dictionary's table holds
  // at 75% load grows the table inside the tentative section. Dropping it
  // rebuilds the table from the older entries; committing it keeps the
  // grown table. Either way the chunk must match the per-cell chunk, and
  // later cells must get the same codes.
  SimdLevelGuard guard;
  Random rng(56);
  const DataType dt = CharType(12);
  const uint32_t w = dt.FixedWidth();
  // 2000 distinct cells: past the 256-slot page tables and the 1024-slot
  // global table.
  const size_t n = 2000;
  std::string cells(n * w, ' ');
  for (size_t i = 0; i < n; ++i) {
    std::string text = "k";
    text += std::to_string(i * 7919 % 100003);
    cells.replace(i * w, text.size(), text);
  }
  for (const CompressionType type :
       {CompressionType::kDictionaryPage, CompressionType::kDictionaryGlobal,
        CompressionType::kPrefixDictionary}) {
    for (const SimdLevel level : TestableLevels()) {
      SetSimdLevel(level);
      auto per_cell_comp = MustMake(type, dt);
      auto batch_comp = MustMake(type, dt);
      auto per_cell = per_cell_comp->NewChunk();
      auto batch = batch_comp->NewChunk();
      // A few old entries first, so the section starts from a non-empty
      // dictionary.
      const size_t head = 10 + rng.NextBounded(20);
      batch->StageBatch(cells.data(), head);
      batch->CommitStaged();
      for (size_t i = 0; i < head; ++i) {
        per_cell->Add(Slice(cells.data() + i * w, w));
      }
      // Dropped: the whole rest, re-using the old values at the end.
      std::string tail = cells.substr(head * w);
      tail += cells.substr(0, head * w);
      batch->StageBatch(tail.data(), n);
      batch->DropStaged();
      ASSERT_EQ(batch->Cost(), per_cell->Cost()) << CompressionTypeName(type);
      ASSERT_EQ(batch_comp->TotalDictionaryEntries(),
                per_cell_comp->TotalDictionaryEntries());
      // Committed: the same section, then per-row adds of old and new
      // values, which must find the committed codes.
      const size_t prospective = batch->StageBatch(tail.data(), n);
      batch->CommitStaged();
      for (size_t i = 0; i < n; ++i) {
        per_cell->Add(Slice(tail.data() + i * w, w));
      }
      ASSERT_EQ(batch->Cost(), prospective);
      ASSERT_EQ(batch->Cost(), per_cell->Cost()) << CompressionTypeName(type);
      std::string page = cells.substr(0, head * w) + tail;  // for Finish()
      for (size_t i = 0; i < 2 * head; ++i) {
        const Slice cell(cells.data() + (i * 37 % n) * w, w);
        batch->Add(cell);
        per_cell->Add(cell);
        page.append(cell.data(), w);
      }
      ASSERT_EQ(batch->Cost(), per_cell->Cost()) << CompressionTypeName(type);
      const size_t page_n = head + n + 2 * head;
      ASSERT_EQ(batch->Finish(page.data(), page_n),
                per_cell->Finish(page.data(), page_n))
          << CompressionTypeName(type) << " " << SimdLevelName(level);
      ASSERT_EQ(batch_comp->TotalDictionaryEntries(),
                per_cell_comp->TotalDictionaryEntries());
      ASSERT_EQ(batch_comp->AuxiliaryBytes(), per_cell_comp->AuxiliaryBytes());
    }
  }
}

/// AddRows (at every SIMD level) must produce exactly the pages, stats and
/// decoded rows of the per-row Add loop at the scalar level.
void ExpectAddRowsMatchesPerRow(const Schema& schema,
                                const CompressionScheme& scheme,
                                const std::string& rows, size_t page_size) {
  const size_t n = rows.size() / schema.row_width();
  IndexBuildOptions options;
  options.page_size = page_size;
  auto build = [&](bool batched, SimdLevel level) {
    SetSimdLevel(level);
    auto builder = CompressedIndexBuilder::Make(schema, scheme, options)
                       .ValueOrDie();
    if (batched) {
      EXPECT_TRUE(builder->AddRows(rows.data(), n).ok());
    } else {
      for (size_t i = 0; i < n; ++i) {
        EXPECT_TRUE(
            builder
                ->Add(Slice(rows.data() + i * schema.row_width(),
                            schema.row_width()))
                .ok());
      }
    }
    return builder->Finish().ValueOrDie();
  };
  const CompressedIndex reference = build(false, SimdLevel::kScalar);
  for (const SimdLevel level : TestableLevels()) {
    const CompressedIndex batched = build(true, level);
    ASSERT_EQ(batched.stats().data_pages, reference.stats().data_pages)
        << SimdLevelName(level);
    ASSERT_EQ(batched.stats().used_bytes, reference.stats().used_bytes);
    ASSERT_EQ(batched.stats().chunk_bytes, reference.stats().chunk_bytes);
    ASSERT_EQ(batched.stats().dictionary_entries,
              reference.stats().dictionary_entries);
    ASSERT_EQ(batched.pages().size(), reference.pages().size());
    for (size_t p = 0; p < batched.pages().size(); ++p) {
      ASSERT_EQ(batched.pages()[p].record(0).ValueOrDie(),
                reference.pages()[p].record(0).ValueOrDie())
          << "page " << p << " level " << SimdLevelName(level);
    }
    std::vector<std::string> decoded;
    ASSERT_TRUE(batched.DecodeAllRows(&decoded).ok());
    ASSERT_EQ(decoded.size(), n);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(decoded[i],
                rows.substr(i * schema.row_width(), schema.row_width()));
    }
  }
}

void AppendInt(std::string* row, int64_t v, uint32_t width) {
  const uint64_t bits = static_cast<uint64_t>(v);
  for (uint32_t b = 0; b < width; ++b) {
    row->push_back(static_cast<char>((bits >> (8 * b)) & 0xFF));
  }
}

void AppendChar(std::string* row, const std::string& v, uint32_t width) {
  row->append(v, 0, std::min<size_t>(v.size(), width));
  row->append(width - std::min<size_t>(v.size(), width), ' ');
}

TEST(BatchChunkTest, AddRowsMatchesPerRowPages) {
  SimdLevelGuard guard;
  Random rng(51);
  Schema schema({{"k", Int64Type()},
                 {"v", CharType(12)},
                 {"m", Int32Type()}});
  CompressionScheme scheme;
  scheme.default_type = CompressionType::kNullSuppression;
  scheme.per_column = {CompressionType::kFrameOfReference,
                       CompressionType::kDictionaryPage,
                       CompressionType::kNullSuppression};
  const size_t n = 4000;
  std::string rows;
  rows.reserve(n * schema.row_width());
  for (size_t i = 0; i < n; ++i) {
    // Sorted-ish keys with runs in the middle column.
    AppendInt(&rows, static_cast<int64_t>(i / 3), 8);
    std::string v = "v";
    v += std::to_string(i / 50);
    AppendChar(&rows, v, 12);
    AppendInt(&rows, static_cast<int64_t>(rng.NextBounded(1000)), 4);
  }
  ExpectAddRowsMatchesPerRow(schema, scheme, rows, 4096);

  // Every scheme on every column; the integer-only schemes (delta, FOR)
  // leave the string column null-suppressed.
  for (const CompressionType type : AllCompressionTypes()) {
    SCOPED_TRACE(CompressionTypeName(type));
    CompressionScheme uniform = CompressionScheme::Uniform(type);
    if (type == CompressionType::kDelta ||
        type == CompressionType::kFrameOfReference) {
      for (const Column& column : schema.columns()) {
        uniform.per_column.push_back(column.type.IsInteger()
                                         ? type
                                         : CompressionType::kNullSuppression);
      }
    }
    ExpectAddRowsMatchesPerRow(schema, uniform, rows, 4096);
  }
}

TEST(BatchChunkTest, AddRowsMatchesPerRowPagesWideClustered) {
  // A clustered index stores every column of a wide table under one scheme:
  // a sorted key, skewed and random integers, low-cardinality flags, dates,
  // stemmed names and free-text comments (the lineitem shape).
  SimdLevelGuard guard;
  Random rng(54);
  Schema mixed({{"orderkey", Int64Type()},
                {"partkey", Int32Type()},
                {"qty", Int32Type()},
                {"price", Int64Type()},
                {"flag", CharType(1)},
                {"status", CharType(1)},
                {"shipdate", CharType(10)},
                {"mode", CharType(10)},
                {"instruct", CharType(25)},
                {"comment", CharType(44)},
                {"note", CharType(300)}});
  const char* const kModes[] = {"AIR", "MAIL", "SHIP", "TRUCK", "RAIL"};
  const char* const kInstruct[] = {"DELIVER IN PERSON", "COLLECT COD",
                                   "TAKE BACK RETURN", "NONE"};
  const size_t n = 3000;
  std::string rows;
  for (size_t i = 0; i < n; ++i) {
    AppendInt(&rows, static_cast<int64_t>(i / 4) * 32 + 1, 8);
    AppendInt(&rows, static_cast<int64_t>(rng.NextBounded(200000)), 4);
    AppendInt(&rows, static_cast<int64_t>(1 + rng.NextBounded(50)), 4);
    AppendInt(&rows, static_cast<int64_t>(rng.NextBounded(10000000)) - 5000,
              8);
    AppendChar(&rows, rng.NextBounded(2) == 0 ? "N" : "R", 1);
    AppendChar(&rows, i % 7 == 0 ? "F" : "O", 1);
    std::string date = "199";
    date += std::to_string(2 + rng.NextBounded(7));
    date += "-0";
    date += std::to_string(1 + rng.NextBounded(9));
    date += "-1";
    date += std::to_string(rng.NextBounded(10));
    AppendChar(&rows, date, 10);
    AppendChar(&rows, kModes[rng.NextBounded(5)], 10);
    AppendChar(&rows, kInstruct[rng.NextBounded(4)], 25);
    std::string comment = "carefully ";
    for (size_t w = rng.NextBounded(6); w > 0; --w) {
      comment += kModes[rng.NextBounded(5)];
      comment += ' ';
    }
    AppendChar(&rows, comment, 44);
    AppendChar(&rows, rng.NextBounded(3) == 0 ? "" : comment + comment, 300);
  }
  for (const CompressionType type :
       {CompressionType::kPrefixDictionary, CompressionType::kPrefix}) {
    SCOPED_TRACE(CompressionTypeName(type));
    ExpectAddRowsMatchesPerRow(mixed, CompressionScheme::Uniform(type), rows,
                               8192);
  }

  // Delta takes integer columns only: a wide all-integer clustered index.
  Schema ints({{"orderkey", Int64Type()},
               {"linenumber", Int32Type()},
               {"partkey", Int32Type()},
               {"price", Int64Type()},
               {"walk", Int64Type()},
               {"shipdate", Int32Type()}});
  const std::string walk = RandomWalkCells(&rng, 8, n);
  std::string int_rows;
  for (size_t i = 0; i < n; ++i) {
    AppendInt(&int_rows, static_cast<int64_t>(i / 4) * 32 + 1, 8);
    AppendInt(&int_rows, static_cast<int64_t>(1 + i % 4), 4);
    AppendInt(&int_rows, static_cast<int64_t>(rng.NextBounded(200000)), 4);
    AppendInt(&int_rows,
              static_cast<int64_t>(rng.NextBounded(10000000)) - 5000000, 8);
    int_rows.append(walk, i * 8, 8);
    AppendInt(&int_rows, 8000 + static_cast<int64_t>(rng.NextBounded(2500)),
              4);
  }
  ExpectAddRowsMatchesPerRow(
      ints, CompressionScheme::Uniform(CompressionType::kDelta), int_rows,
      8192);
}

// ---------------------------------------------------------------------------
// Incremental (Fenwick) advisor bound == a rescan of the density order.
// ---------------------------------------------------------------------------

/// The rescan reference for SearchSizedCandidates: the same take-first
/// branch-and-bound over point-valued items in `order` (one item per
/// selection key, greedy incumbent), whose fractional-knapsack bound
/// rescans the density order at every node instead of descending a
/// Fenwick tree.
class RescanSearch {
 public:
  RescanSearch(const std::vector<SizedCandidate>& candidates,
               const std::vector<size_t>& order, uint64_t bound)
      : bound_(bound) {
    std::map<std::string, size_t> key_ids;
    std::vector<std::string> keys;
    for (const size_t i : order) {
      items_.push_back(&candidates[i]);
      keys.push_back(CandidateSelectionKey(candidates[i].config));
      key_.push_back(
          key_ids.emplace(keys.back(), key_ids.size()).first->second);
    }
    taken_.assign(key_ids.size(), false);
    for (size_t i = 0; i < items_.size(); ++i) density_.push_back(i);
    std::stable_sort(density_.begin(), density_.end(), [&](size_t a, size_t b) {
      const double da = Benefit(a) * static_cast<double>(Bytes(b));
      const double db = Benefit(b) * static_cast<double>(Bytes(a));
      if (da != db) return da > db;
      if (keys[a] != keys[b]) return keys[a] < keys[b];
      return a < b;
    });
  }

  AdvisorRecommendation Run(LazyAdvisorStats* stats) {
    // Greedy incumbent over the order.
    std::vector<bool> seeded(taken_.size(), false);
    uint64_t seeded_bytes = 0;
    for (size_t i = 0; i < items_.size(); ++i) {
      if (Benefit(i) <= 0.0 || seeded_bytes + Bytes(i) > bound_ ||
          seeded[key_[i]]) {
        continue;
      }
      seeded[key_[i]] = true;
      best_.push_back(i);
      best_benefit_ += Benefit(i);
      seeded_bytes += Bytes(i);
    }
    Dfs(0, stats);
    AdvisorRecommendation rec;
    rec.storage_bound = bound_;
    for (const size_t i : best_) {
      rec.selected.push_back(*items_[i]);
      rec.total_benefit += Benefit(i);
      rec.total_bytes += Bytes(i);
    }
    return rec;
  }

 private:
  double Benefit(size_t i) const { return items_[i]->config.benefit; }
  uint64_t Bytes(size_t i) const { return items_[i]->estimated_bytes; }

  double RescanBound(size_t i) const {
    if (bytes_ > bound_) return 0.0;
    uint64_t cap = bound_ - bytes_;
    double benefit = 0.0;
    for (const size_t j : density_) {
      if (j < i || Benefit(j) <= 0.0 || taken_[key_[j]]) continue;
      if (Bytes(j) <= cap) {
        benefit += Benefit(j);
        cap -= Bytes(j);
      } else {
        return benefit + Benefit(j) * (static_cast<double>(cap) /
                                       static_cast<double>(Bytes(j)));
      }
    }
    return benefit;
  }

  void Dfs(size_t start, LazyAdvisorStats* stats) {
    for (size_t i = start;; ++i) {
      ++stats->nodes_visited;
      if (benefit_ > best_benefit_) {
        best_benefit_ = benefit_;
        best_ = current_;
      }
      if (i >= items_.size()) return;
      if (benefit_ + RescanBound(i) <= best_benefit_) {
        ++stats->nodes_pruned;
        return;
      }
      if (Benefit(i) > 0.0 && !taken_[key_[i]] &&
          bytes_ + Bytes(i) <= bound_) {
        taken_[key_[i]] = true;
        current_.push_back(i);
        benefit_ += Benefit(i);
        bytes_ += Bytes(i);
        Dfs(i + 1, stats);
        bytes_ -= Bytes(i);
        benefit_ -= Benefit(i);
        current_.pop_back();
        taken_[key_[i]] = false;
      }
    }
  }

  uint64_t bound_;
  std::vector<const SizedCandidate*> items_;  // in the selection order
  std::vector<size_t> key_;                   // dense selection-key ids
  std::vector<size_t> density_;
  std::vector<bool> taken_;                   // per key, on the DFS path
  std::vector<size_t> current_;
  uint64_t bytes_ = 0;
  double benefit_ = 0.0;
  std::vector<size_t> best_;
  double best_benefit_ = 0.0;
};

/// Searches `candidates` under every bound with SearchSizedCandidates and
/// the rescan reference and asserts they select, visit and prune
/// identically.
void ExpectIncrementalBoundMatchesRescan(
    const std::vector<SizedCandidate>& candidates,
    const std::vector<uint64_t>& bounds, int trial) {
  const std::vector<size_t> order = OrderCandidatesForSelection(candidates);
  for (const uint64_t bound : bounds) {
    LazyAdvisorStats fast_stats;
    LazyAdvisorStats slow_stats;
    const AdvisorRecommendation fast =
        SearchSizedCandidates(candidates, order, bound, &fast_stats);
    const AdvisorRecommendation slow =
        RescanSearch(candidates, order, bound).Run(&slow_stats);
    ASSERT_EQ(fast.total_benefit, slow.total_benefit)
        << "trial=" << trial << " bound=" << bound;
    ASSERT_EQ(fast.total_bytes, slow.total_bytes);
    ASSERT_EQ(fast.selected.size(), slow.selected.size());
    for (size_t i = 0; i < fast.selected.size(); ++i) {
      ASSERT_EQ(fast.selected[i].config.index.name,
                slow.selected[i].config.index.name);
      ASSERT_EQ(fast.selected[i].estimated_bytes,
                slow.selected[i].estimated_bytes);
    }
    // Same tree: the bound values agree at every node, so both searches
    // visit and prune identically.
    ASSERT_EQ(fast_stats.nodes_visited, slow_stats.nodes_visited)
        << "trial=" << trial << " bound=" << bound;
    ASSERT_EQ(fast_stats.nodes_pruned, slow_stats.nodes_pruned)
        << "trial=" << trial << " bound=" << bound;
  }
}

/// `n` random candidates with footprints in [0, max_bytes) over a handful
/// of distinct index names, so several share a selection key and exercise
/// the taken bitmap.
std::vector<SizedCandidate> RandomSizedCandidates(Random& rng, size_t n,
                                                  uint64_t max_bytes) {
  std::vector<SizedCandidate> candidates(n);
  for (size_t i = 0; i < n; ++i) {
    SizedCandidate& c = candidates[i];
    c.config.table_name = std::string("t");
    c.config.index.name =
        std::string("idx") + std::to_string(rng.NextBounded(n / 2 + 1));
    c.config.scheme =
        CompressionScheme::Uniform(rng.NextBounded(2) == 0
                                       ? CompressionType::kNullSuppression
                                       : CompressionType::kRle);
    // Integer-valued benefits: exact in double, so prune-at-equality
    // decisions cannot be perturbed by summation order and both bound
    // implementations must branch identically.
    c.config.benefit = static_cast<double>(rng.NextBounded(1000));
    c.estimated_bytes = rng.NextBounded(max_bytes);
    c.uncompressed_bytes = c.estimated_bytes * 2 + 1;
  }
  return candidates;
}

TEST(IncrementalBoundTest, SameSelectionsAsLegacyRescan) {
  Random rng(52);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 1 + rng.NextBounded(60);
    ExpectIncrementalBoundMatchesRescan(
        RandomSizedCandidates(rng, n, 100000),
        {uint64_t{0}, uint64_t{50000}, uint64_t{300000}, ~uint64_t{0}},
        trial);
  }
  // Small integer footprints (zero included) under bounds equal to prefix
  // sums of the selection order: a density-order prefix whose weight fills
  // the remaining capacity exactly is common here, so the Fenwick descent
  // must take such a prefix whole, as the rescan does.
  for (int trial = 30; trial < 90; ++trial) {
    const size_t n = 1 + rng.NextBounded(24);
    const std::vector<SizedCandidate> candidates =
        RandomSizedCandidates(rng, n, 21);
    std::vector<uint64_t> bounds = {0};
    for (size_t i : OrderCandidatesForSelection(candidates)) {
      bounds.push_back(bounds.back() + candidates[i].estimated_bytes);
    }
    ExpectIncrementalBoundMatchesRescan(candidates, bounds, trial);
  }
}

}  // namespace
}  // namespace cfest
