// Tests for the compression substrate: every compressor's exact cost
// accounting, lossless round trips, corruption handling, and the compressed
// index page packer.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/simd.h"
#include "compress_rows.h"
#include "compression/compressed_index.h"
#include "compression/compressor.h"
#include "compression/encoding_util.h"
#include "compression/scheme.h"
#include "datagen/table_gen.h"
#include "storage/row_codec.h"

namespace cfest {
namespace {

/// Pads `s` to a char(k) fixed-width cell.
std::string PadCell(const std::string& s, uint32_t k) {
  std::string cell = s;
  cell.append(k - s.size(), ' ');
  return cell;
}

/// `prefix` followed by the decimal `i` ("v" + 7 -> "v7").
std::string Numbered(const char* prefix, int i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

/// Encodes an int64 as its 8-byte little-endian cell.
std::string IntCell(int64_t v) {
  std::string cell;
  for (int i = 0; i < 8; ++i) {
    cell.push_back(static_cast<char>((static_cast<uint64_t>(v) >> (8 * i)) &
                                     0xFF));
  }
  return cell;
}

/// `cells` back to back: the column slice a closing page hands Finish().
std::string Column(const std::vector<std::string>& cells) {
  std::string column;
  for (const std::string& cell : cells) column += cell;
  return column;
}

std::unique_ptr<ColumnCompressor> MustMake(CompressionType type,
                                           const DataType& dt,
                                           CompressionOptions options = {}) {
  auto result = MakeColumnCompressor(type, dt, options);
  EXPECT_TRUE(result.ok()) << result.status();
  return std::move(result).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Factory & names
// ---------------------------------------------------------------------------

TEST(CompressorFactoryTest, NamesRoundTrip) {
  for (CompressionType t : AllCompressionTypes()) {
    Result<CompressionType> parsed =
        CompressionTypeFromName(CompressionTypeName(t));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, t);
  }
  EXPECT_TRUE(CompressionTypeFromName("bogus").status().IsNotFound());
}

TEST(CompressorFactoryTest, RejectsZeroWidthColumn) {
  EXPECT_FALSE(
      MakeColumnCompressor(CompressionType::kNone, CharType(0)).ok());
}

// ---------------------------------------------------------------------------
// Cost exactness + round trip, parameterized over every compressor
// ---------------------------------------------------------------------------

struct ChunkCase {
  CompressionType type;
  const char* label;
};

class ChunkContractTest : public ::testing::TestWithParam<ChunkCase> {
 protected:
  /// Verifies Cost()/CostWith() are exact and decode inverts Finish().
  void CheckContract(const DataType& dt, const std::vector<std::string>& cells,
                     CompressionOptions options = {}) {
    auto compressor = MustMake(GetParam().type, dt, options);
    auto chunk = compressor->NewChunk();
    for (const std::string& cell : cells) {
      const size_t predicted = chunk->CostWith(Slice(cell));
      chunk->Add(Slice(cell));
      EXPECT_EQ(chunk->Cost(), predicted)
          << "CostWith must predict Cost after Add";
    }
    EXPECT_EQ(chunk->count(), cells.size());
    const size_t final_cost = chunk->Cost();
    std::string wire = chunk->Finish(Column(cells).data(), cells.size());
    EXPECT_EQ(wire.size(), final_cost) << "Cost() must equal serialized size";

    std::vector<std::string> decoded;
    ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
    ASSERT_EQ(decoded.size(), cells.size());
    for (size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(decoded[i], cells[i]) << "cell " << i;
    }
  }
};

TEST_P(ChunkContractTest, StringCellsMixedLengths) {
  const uint32_t k = 20;
  std::vector<std::string> cells = {
      PadCell("abc", k),   PadCell("", k),           PadCell("abc", k),
      PadCell("abcdefghijklmnopqrst", k),            PadCell("x", k),
      PadCell("abc", k),   PadCell("zzz", k),
  };
  CheckContract(CharType(k), cells);
}

TEST_P(ChunkContractTest, IntegerCells) {
  std::vector<std::string> cells = {IntCell(0),     IntCell(1),
                                    IntCell(256),   IntCell(-1),
                                    IntCell(1 << 20), IntCell(1),
                                    IntCell(0)};
  CheckContract(Int64Type(), cells);
}

TEST_P(ChunkContractTest, SingleCell) {
  CheckContract(CharType(8), {PadCell("hi", 8)});
}

TEST_P(ChunkContractTest, EmptyChunk) {
  CheckContract(CharType(8), {});
}

TEST_P(ChunkContractTest, AllIdenticalCells) {
  std::vector<std::string> cells(50, PadCell("same", 12));
  CheckContract(CharType(12), cells);
}

TEST_P(ChunkContractTest, AllDistinctCells) {
  std::vector<std::string> cells;
  for (int i = 0; i < 60; ++i) {
    cells.push_back(PadCell(Numbered("v", i), 12));
  }
  CheckContract(CharType(12), cells);
}

TEST_P(ChunkContractTest, WideColumnTwoByteLengthHeaders) {
  const uint32_t k = 300;
  std::vector<std::string> cells = {PadCell(std::string(280, 'a'), k),
                                    PadCell("b", k), PadCell("", k)};
  CheckContract(CharType(k), cells);
}

TEST_P(ChunkContractTest, RandomizedSweep) {
  Random rng(99);
  for (uint32_t k : {4u, 16u, 64u}) {
    for (int trial = 0; trial < 3; ++trial) {
      std::vector<std::string> cells;
      const int n = 1 + static_cast<int>(rng.NextBounded(120));
      for (int i = 0; i < n; ++i) {
        const uint32_t len = static_cast<uint32_t>(rng.NextBounded(k + 1));
        std::string s;
        for (uint32_t j = 0; j < len; ++j) {
          s.push_back('a' + static_cast<char>(rng.NextBounded(4)));
        }
        // Avoid trailing blanks in logical values (lost by design under NS).
        if (!s.empty() && s.back() == ' ') s.back() = 'b';
        cells.push_back(PadCell(s, k));
      }
      CheckContract(CharType(k), cells);
    }
  }
}

TEST_P(ChunkContractTest, DecodeRejectsTruncatedChunk) {
  auto compressor = MustMake(GetParam().type, CharType(8));
  auto chunk = compressor->NewChunk();
  const std::vector<std::string> cells = {PadCell("abcdef", 8),
                                          PadCell("gh", 8)};
  for (const std::string& cell : cells) chunk->Add(Slice(cell));
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  for (size_t cut = 0; cut + 1 < wire.size(); cut += 3) {
    std::vector<std::string> decoded;
    Status st =
        compressor->DecodeChunk(Slice(wire.data(), cut), &decoded);
    // Either a clean corruption error, or (for prefixes of valid frames)
    // fewer cells; never a crash and never trailing garbage acceptance.
    if (st.ok()) {
      EXPECT_LT(decoded.size(), 2u);
    } else {
      EXPECT_TRUE(st.IsCorruption()) << st;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCompressors, ChunkContractTest,
    ::testing::Values(ChunkCase{CompressionType::kNone, "none"},
                      ChunkCase{CompressionType::kNullSuppression, "ns"},
                      ChunkCase{CompressionType::kDictionaryPage, "dictpage"},
                      ChunkCase{CompressionType::kDictionaryGlobal,
                                "dictglobal"},
                      ChunkCase{CompressionType::kRle, "rle"},
                      ChunkCase{CompressionType::kPrefix, "prefix"},
                      ChunkCase{CompressionType::kPrefixDictionary,
                                "combined"}),
    [](const ::testing::TestParamInfo<ChunkCase>& info) {
      return info.param.label;
    });

// ---------------------------------------------------------------------------
// Delta specifics (integer-only; excluded from the string contract sweep)
// ---------------------------------------------------------------------------

TEST(DeltaTest, RejectsStringColumns) {
  EXPECT_FALSE(
      MakeColumnCompressor(CompressionType::kDelta, CharType(8)).ok());
  EXPECT_TRUE(
      MakeColumnCompressor(CompressionType::kDelta, DateType()).ok());
}

TEST(DeltaTest, CostExactAndRoundTrips) {
  auto compressor = MustMake(CompressionType::kDelta, Int64Type());
  auto chunk = compressor->NewChunk();
  const std::vector<int64_t> values = {100, 101, 103, 103, 90,
                                       1 << 20, -5, 0, INT64_MAX,
                                       INT64_MIN + 1};
  std::vector<std::string> cells;
  for (int64_t v : values) cells.push_back(IntCell(v));
  for (const auto& cell : cells) {
    const size_t predicted = chunk->CostWith(Slice(cell));
    chunk->Add(Slice(cell));
    EXPECT_EQ(chunk->Cost(), predicted);
  }
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  EXPECT_EQ(wire.size(), chunk->Cost());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  ASSERT_EQ(decoded.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(decoded[i], cells[i]) << "value " << values[i];
  }
}

TEST(DeltaTest, SortedKeysCostOneByteEach) {
  auto compressor = MustMake(CompressionType::kDelta, Int64Type());
  auto chunk = compressor->NewChunk();
  chunk->Add(Slice(IntCell(1000000)));
  const size_t base = chunk->Cost();
  for (int64_t v = 1000001; v < 1000050; ++v) {
    chunk->Add(Slice(IntCell(v)));
  }
  // Delta 1 zigzags to 2: a single varint byte per row.
  EXPECT_EQ(chunk->Cost() - base, 49u);
}

TEST(DeltaTest, EmptyChunkRoundTrips) {
  auto compressor = MustMake(CompressionType::kDelta, Int64Type());
  auto chunk = compressor->NewChunk();
  std::string wire = chunk->Finish("", 0);
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  EXPECT_TRUE(decoded.empty());
}

TEST(DeltaTest, NarrowIntegerWidths) {
  auto compressor = MustMake(CompressionType::kDelta, Int32Type());
  auto chunk = compressor->NewChunk();
  RowCodec codec(std::move(Schema::Make({{"v", Int32Type()}})).ValueOrDie());
  std::vector<std::string> cells;
  for (int64_t v : {-100, 0, 100, INT32_MAX - 1, INT32_MIN + 1}) {
    std::string cell;
    EXPECT_TRUE(codec.Encode({Value::Int(v)}, &cell).ok());
    cells.push_back(cell);
    chunk->Add(Slice(cells.back()));
  }
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  ASSERT_EQ(decoded.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(decoded[i], cells[i]);
}

// ---------------------------------------------------------------------------
// Frame-of-reference specifics (integer-only)
// ---------------------------------------------------------------------------

TEST(ForTest, RejectsStringColumns) {
  EXPECT_FALSE(MakeColumnCompressor(CompressionType::kFrameOfReference,
                                    CharType(8))
                   .ok());
}

TEST(ForTest, CostExactAndRoundTrips) {
  auto compressor = MustMake(CompressionType::kFrameOfReference, Int64Type());
  auto chunk = compressor->NewChunk();
  const std::vector<int64_t> values = {1000, 1017, 1003, 1000, 1063,
                                       1001, -5,   0,    1000000};
  std::vector<std::string> cells;
  for (int64_t v : values) cells.push_back(IntCell(v));
  for (const auto& cell : cells) {
    const size_t predicted = chunk->CostWith(Slice(cell));
    chunk->Add(Slice(cell));
    EXPECT_EQ(chunk->Cost(), predicted);
  }
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  EXPECT_EQ(wire.size(), chunk->Cost());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  ASSERT_EQ(decoded.size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(decoded[i], cells[i]) << values[i];
  }
}

TEST(ForTest, NarrowRangePacksTightly) {
  auto compressor = MustMake(CompressionType::kFrameOfReference, Int64Type());
  auto chunk = compressor->NewChunk();
  // Values in [10^9, 10^9 + 63]: 6-bit offsets instead of 8 bytes.
  for (int i = 0; i < 800; ++i) {
    chunk->Add(Slice(IntCell(1000000000 + (i % 64))));
  }
  // 2 + 8 + 1 + ceil(800*6/8) = 611.
  EXPECT_EQ(chunk->Cost(), 2u + 8u + 1u + 600u);
}

TEST(ForTest, ConstantColumnNeedsZeroOffsetBits) {
  auto compressor = MustMake(CompressionType::kFrameOfReference, Int64Type());
  auto chunk = compressor->NewChunk();
  const std::vector<std::string> cells(500, IntCell(42));
  for (const std::string& cell : cells) chunk->Add(Slice(cell));
  EXPECT_EQ(chunk->Cost(), 2u + 8u + 1u);  // base only, 0-bit offsets
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  ASSERT_EQ(decoded.size(), 500u);
  EXPECT_EQ(decoded[0], IntCell(42));
}

TEST(ForTest, ExtremeSpanFallsBackTo64Bits) {
  auto compressor = MustMake(CompressionType::kFrameOfReference, Int64Type());
  auto chunk = compressor->NewChunk();
  const std::vector<std::string> cells = {IntCell(INT64_MIN),
                                          IntCell(INT64_MAX)};
  for (const std::string& cell : cells) chunk->Add(Slice(cell));
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0], IntCell(INT64_MIN));
  EXPECT_EQ(decoded[1], IntCell(INT64_MAX));
}

TEST(ForTest, NarrowIntegerWidthRoundTrips) {
  auto compressor = MustMake(CompressionType::kFrameOfReference, Int32Type());
  auto chunk = compressor->NewChunk();
  RowCodec codec(std::move(Schema::Make({{"v", Int32Type()}})).ValueOrDie());
  std::vector<std::string> cells;
  for (int64_t v : {-1000, -1, 0, 7, 123456}) {
    std::string cell;
    EXPECT_TRUE(codec.Encode({Value::Int(v)}, &cell).ok());
    cells.push_back(cell);
    chunk->Add(Slice(cells.back()));
  }
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  for (size_t i = 0; i < cells.size(); ++i) EXPECT_EQ(decoded[i], cells[i]);
}

// ---------------------------------------------------------------------------
// Combined prefix+dictionary specifics
// ---------------------------------------------------------------------------

TEST(CombinedTest, BeatsPlainDictionaryOnSharedPrefixes) {
  auto dict = MustMake(CompressionType::kDictionaryPage, CharType(32));
  auto combined = MustMake(CompressionType::kPrefixDictionary, CharType(32));
  auto dict_chunk = dict->NewChunk();
  auto combined_chunk = combined->NewChunk();
  for (int i = 0; i < 64; ++i) {
    const std::string value =
        PadCell(Numbered("warehouse-item-", i % 16), 32);
    dict_chunk->Add(Slice(value));
    combined_chunk->Add(Slice(value));
  }
  // Same pointers; entries store suffixes instead of 32-byte values.
  EXPECT_LT(combined_chunk->Cost(), dict_chunk->Cost());
}

TEST(CombinedTest, TracksDictionaryEntriesAcrossPages) {
  auto compressor = MustMake(CompressionType::kPrefixDictionary, CharType(8));
  for (int page = 0; page < 2; ++page) {
    auto chunk = compressor->NewChunk();
    chunk->Add(Slice(PadCell("aa", 8)));
    chunk->Add(Slice(PadCell("ab", 8)));
  }
  // Entries count when added; no chunk has to be serialized.
  EXPECT_EQ(compressor->TotalDictionaryEntries(), 4u);
}

// ---------------------------------------------------------------------------
// Null suppression specifics
// ---------------------------------------------------------------------------

TEST(NullSuppressionTest, CostMatchesPaperFormula) {
  // char(20), value "abc": 3 bytes + 1 length byte (paper Fig. 1a).
  auto compressor =
      MustMake(CompressionType::kNullSuppression, CharType(20));
  auto chunk = compressor->NewChunk();
  const size_t empty_cost = chunk->Cost();  // chunk header only
  chunk->Add(Slice(PadCell("abc", 20)));
  EXPECT_EQ(chunk->Cost() - empty_cost, 3u + 1u);
  chunk->Add(Slice(PadCell("", 20)));  // all blanks: length byte only
  EXPECT_EQ(chunk->Cost() - empty_cost, 4u + 1u);
}

// ---------------------------------------------------------------------------
// Page-level dictionary specifics
// ---------------------------------------------------------------------------

TEST(PageDictTest, DictionaryGrowsOnlyOnNewValues) {
  auto compressor = MustMake(CompressionType::kDictionaryPage, CharType(10));
  auto chunk = compressor->NewChunk();
  chunk->Add(Slice(PadCell("aa", 10)));
  const size_t after_first = chunk->Cost();
  chunk->Add(Slice(PadCell("aa", 10)));
  const size_t after_repeat = chunk->Cost();
  // A repeat adds at most pointer bits (no new 10-byte entry).
  EXPECT_LT(after_repeat - after_first, 2u);
  chunk->Add(Slice(PadCell("bb", 10)));
  EXPECT_GE(chunk->Cost() - after_repeat, 10u);  // new full-width entry
}

TEST(PageDictTest, PointerBitsMatchDictSize) {
  // With d distinct values, pointers are ceil(log2 d) bits (paper §III-B).
  auto compressor = MustMake(CompressionType::kDictionaryPage, CharType(4));
  auto chunk = compressor->NewChunk();
  std::vector<std::string> cells;
  for (int i = 0; i < 8; ++i) {
    cells.push_back(PadCell(std::string(1, 'a' + i), 4));
    chunk->Add(Slice(cells.back()));
  }
  // 100 more rows of existing values: 3-bit pointers each.
  const size_t before = chunk->Cost();
  for (int i = 0; i < 100; ++i) {
    cells.push_back(PadCell("a", 4));
    chunk->Add(Slice(cells.back()));
  }
  const size_t added = chunk->Cost() - before;
  EXPECT_LE(added, (100 * 3) / 8 + 2);
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  EXPECT_EQ(static_cast<int>(static_cast<unsigned char>(wire[2])), 3);
}

TEST(PageDictTest, ByteAlignedPointerOption) {
  CompressionOptions options;
  options.dict_bit_packed_pointers = false;
  auto compressor =
      MustMake(CompressionType::kDictionaryPage, CharType(4), options);
  auto chunk = compressor->NewChunk();
  std::vector<std::string> cells;
  for (int i = 0; i < 3; ++i) {
    cells.push_back(PadCell(std::string(1, 'a' + i), 4));
    chunk->Add(Slice(cells.back()));
  }
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  // 3 entries -> 2 bits -> rounded up to 8.
  EXPECT_EQ(static_cast<int>(static_cast<unsigned char>(wire[2])), 8);
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  EXPECT_EQ(decoded.size(), 3u);
}

TEST(PageDictTest, NsEncodedEntriesOption) {
  CompressionOptions options;
  options.dict_entries_full_width = false;
  auto compressor =
      MustMake(CompressionType::kDictionaryPage, CharType(100), options);
  auto chunk = compressor->NewChunk();
  const std::string cell = PadCell("ab", 100);
  chunk->Add(Slice(cell));
  // Entry costs 1 + 2 bytes instead of 100.
  EXPECT_LT(chunk->Cost(), 20u);
  std::string wire = chunk->Finish(cell.data(), 1);
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  EXPECT_EQ(decoded[0], PadCell("ab", 100));
}

TEST(PageDictTest, TotalDictionaryEntriesAccumulatesAcrossChunks) {
  auto compressor = MustMake(CompressionType::kDictionaryPage, CharType(4));
  for (int page = 0; page < 3; ++page) {
    auto chunk = compressor->NewChunk();
    chunk->Add(Slice(PadCell("x", 4)));
    chunk->Add(Slice(PadCell("y", 4)));
  }
  // "x" and "y" each appear in 3 pages: sum Pg(i) = 6, counted as the
  // entries are added, without serializing any chunk.
  EXPECT_EQ(compressor->TotalDictionaryEntries(), 6u);
}

// ---------------------------------------------------------------------------
// Global dictionary specifics
// ---------------------------------------------------------------------------

TEST(GlobalDictTest, AuxiliaryBytesAreDTimesK) {
  CompressionOptions options;
  options.global_pointer_bytes = 4;
  auto compressor =
      MustMake(CompressionType::kDictionaryGlobal, CharType(16), options);
  auto chunk = compressor->NewChunk();
  const std::vector<std::string> cells = {
      PadCell("a", 16), PadCell("b", 16), PadCell("a", 16)};
  for (const std::string& cell : cells) chunk->Add(Slice(cell));
  chunk->Finish(Column(cells).data(), cells.size());
  EXPECT_EQ(compressor->AuxiliaryBytes(), 2u * 16u);  // d * k
  EXPECT_EQ(compressor->TotalDictionaryEntries(), 2u);
  EXPECT_TRUE(compressor->Validate().ok());
}

TEST(GlobalDictTest, RowCostIsExactlyPointerBytes) {
  CompressionOptions options;
  options.global_pointer_bytes = 2;
  auto compressor =
      MustMake(CompressionType::kDictionaryGlobal, CharType(16), options);
  auto chunk = compressor->NewChunk();
  const size_t base = chunk->Cost();
  chunk->Add(Slice(PadCell("a", 16)));
  EXPECT_EQ(chunk->Cost() - base, 2u);
  chunk->Add(Slice(PadCell("zz", 16)));
  EXPECT_EQ(chunk->Cost() - base, 4u);
}

TEST(GlobalDictTest, SharedDictionaryAcrossChunks) {
  auto compressor = MustMake(CompressionType::kDictionaryGlobal, CharType(8));
  const std::string cell = PadCell("v", 8);
  auto c1 = compressor->NewChunk();
  c1->Add(Slice(cell));
  std::string w1 = c1->Finish(cell.data(), 1);
  auto c2 = compressor->NewChunk();
  c2->Add(Slice(cell));  // same value: no new entry
  std::string w2 = c2->Finish(cell.data(), 1);
  EXPECT_EQ(compressor->TotalDictionaryEntries(), 1u);
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(w2), &decoded).ok());
  EXPECT_EQ(decoded[0], PadCell("v", 8));
}

TEST(GlobalDictTest, PointerOverflowDetectedByValidate) {
  CompressionOptions options;
  options.global_pointer_bytes = 1;  // addresses only 256 values
  auto compressor =
      MustMake(CompressionType::kDictionaryGlobal, CharType(8), options);
  auto chunk = compressor->NewChunk();
  std::vector<std::string> cells;
  for (int i = 0; i < 300; ++i) {
    cells.push_back(PadCell(Numbered("v", i), 8));
    chunk->Add(Slice(cells.back()));
  }
  chunk->Finish(Column(cells).data(), cells.size());
  EXPECT_TRUE(compressor->Validate().IsCapacityExceeded());
}

TEST(GlobalDictTest, RoundTripsAtEveryPointerWidth) {
  // 300 rows over 200 distinct values, so 1-byte pointers still address
  // them all. Pointers of 5-8 bytes once shifted a 32-bit code by 32 bits
  // or more, writing garbage high bytes that decode out of range.
  const Schema schema({{"a", CharType(8)}});
  std::vector<std::string> cells;
  for (int i = 0; i < 300; ++i) {
    cells.push_back(PadCell(Numbered("v", i % 200), 8));
  }
  const std::vector<Slice> rows(cells.begin(), cells.end());
  for (const uint32_t p : {1u, 2u, 4u, 8u}) {
    SCOPED_TRACE(p);
    CompressionOptions options;
    options.global_pointer_bytes = p;
    Result<CompressedIndex> index = CompressRows(
        schema,
        CompressionScheme::Uniform(CompressionType::kDictionaryGlobal, options),
        rows);
    ASSERT_TRUE(index.ok()) << index.status();
    EXPECT_EQ(index->stats().chunk_bytes,
              300 * p + 2 * index->stats().data_pages);
    EXPECT_EQ(index->stats().aux_bytes, 200u * 8u);
    std::vector<std::string> decoded;
    const Status status = index->DecodeAllRows(&decoded);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(decoded, cells);
  }
}

TEST(GlobalDictTest, RejectsPointersWiderThanEightBytes) {
  CompressionOptions options;
  options.global_pointer_bytes = 9;
  EXPECT_TRUE(MakeColumnCompressor(CompressionType::kDictionaryGlobal,
                                   CharType(8), options)
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(
      ColumnCompressorSet::Make(
          Schema({{"a", CharType(8)}}),
          CompressionScheme::Uniform(CompressionType::kDictionaryGlobal,
                                     options))
          .status()
          .IsInvalidArgument());
}

// ---------------------------------------------------------------------------
// RLE specifics
// ---------------------------------------------------------------------------

TEST(RleTest, RunsCollapse) {
  auto compressor = MustMake(CompressionType::kRle, CharType(10));
  auto chunk = compressor->NewChunk();
  const size_t base = chunk->Cost();
  for (int i = 0; i < 1000; ++i) chunk->Add(Slice(PadCell("run", 10)));
  // One run: u32 + length byte + 3 payload bytes.
  EXPECT_EQ(chunk->Cost() - base, 4u + 1u + 3u);
  EXPECT_EQ(chunk->count(), 1000u);
}

TEST(RleTest, AlternatingValuesDoNotCollapse) {
  auto compressor = MustMake(CompressionType::kRle, CharType(10));
  auto chunk = compressor->NewChunk();
  std::vector<std::string> cells;
  for (int i = 0; i < 10; ++i) {
    cells.push_back(PadCell(i % 2 == 0 ? "a" : "b", 10));
    chunk->Add(Slice(cells.back()));
  }
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  ASSERT_EQ(decoded.size(), 10u);
  EXPECT_EQ(decoded[0], PadCell("a", 10));
  EXPECT_EQ(decoded[1], PadCell("b", 10));
}

// ---------------------------------------------------------------------------
// Prefix specifics
// ---------------------------------------------------------------------------

TEST(PrefixTest, SharedPrefixStoredOnce) {
  auto compressor = MustMake(CompressionType::kPrefix, CharType(20));
  auto chunk = compressor->NewChunk();
  chunk->Add(Slice(PadCell("order-0001", 20)));
  chunk->Add(Slice(PadCell("order-0002", 20)));
  chunk->Add(Slice(PadCell("order-0003", 20)));
  // 2 (count) + 1 + 9 (prefix "order-000") + 3 * (1 + 1).
  EXPECT_EQ(chunk->Cost(), 2u + 1u + 9u + 3u * 2u);
}

TEST(PrefixTest, PrefixShrinksRetroactively) {
  auto compressor = MustMake(CompressionType::kPrefix, CharType(20));
  auto chunk = compressor->NewChunk();
  const std::vector<std::string> cells = {
      PadCell("aaaa", 20), PadCell("aaab", 20), PadCell("b", 20)};
  chunk->Add(Slice(cells[0]));
  chunk->Add(Slice(cells[1]));
  const size_t with_long_prefix = chunk->Cost();
  chunk->Add(Slice(cells[2]));  // prefix collapses to ""
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  EXPECT_EQ(wire.size(), chunk->Cost());
  EXPECT_GT(wire.size(), with_long_prefix);
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  EXPECT_EQ(decoded[0], PadCell("aaaa", 20));
  EXPECT_EQ(decoded[2], PadCell("b", 20));
}

TEST(PrefixTest, ValueEqualToPrefix) {
  auto compressor = MustMake(CompressionType::kPrefix, CharType(10));
  auto chunk = compressor->NewChunk();
  // The prefix is "ab"; the first value has an empty suffix.
  const std::vector<std::string> cells = {PadCell("ab", 10),
                                          PadCell("abc", 10)};
  for (const std::string& cell : cells) chunk->Add(Slice(cell));
  std::string wire = chunk->Finish(Column(cells).data(), cells.size());
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressor->DecodeChunk(Slice(wire), &decoded).ok());
  EXPECT_EQ(decoded[0], PadCell("ab", 10));
  EXPECT_EQ(decoded[1], PadCell("abc", 10));
}

// ---------------------------------------------------------------------------
// Scheme / ColumnCompressorSet
// ---------------------------------------------------------------------------

TEST(SchemeTest, UniformAndMixed) {
  Schema schema = std::move(Schema::Make({{"a", CharType(4)},
                                          {"b", Int64Type()}}))
                      .ValueOrDie();
  CompressionScheme uniform =
      CompressionScheme::Uniform(CompressionType::kRle);
  EXPECT_EQ(uniform.ToString(), "rle");
  Result<ColumnCompressorSet> set = ColumnCompressorSet::Make(schema, uniform);
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(set->num_columns(), 2u);
  EXPECT_EQ(set->column(0)->type(), CompressionType::kRle);

  CompressionScheme mixed;
  mixed.per_column = {CompressionType::kNullSuppression,
                      CompressionType::kNone};
  EXPECT_EQ(mixed.ToString(), "mixed(null_suppression,none)");
  Result<ColumnCompressorSet> mixed_set =
      ColumnCompressorSet::Make(schema, mixed);
  ASSERT_TRUE(mixed_set.ok());
  EXPECT_EQ(mixed_set->column(1)->type(), CompressionType::kNone);

  CompressionScheme bad;
  bad.per_column = {CompressionType::kNone};
  EXPECT_FALSE(ColumnCompressorSet::Make(schema, bad).ok());
}

// ---------------------------------------------------------------------------
// CompressedIndexBuilder
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Table>> SmallTable(uint64_t n, uint64_t distinct,
                                          uint64_t seed) {
  return GenerateTable(
      {ColumnSpec::String("s", 16, distinct, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(1, 12)),
       ColumnSpec::Integer("i", distinct)},
      n, seed);
}

class CompressedIndexBuilderTest
    : public ::testing::TestWithParam<CompressionType> {};

TEST_P(CompressedIndexBuilderTest, RoundTripsAllRows) {
  auto table = SmallTable(500, 40, 7);
  ASSERT_TRUE(table.ok());
  CompressionScheme scheme = CompressionScheme::Uniform(GetParam());
  IndexBuildOptions options;
  options.page_size = 1024;  // force multiple pages
  std::vector<Slice> rows;
  for (RowId id = 0; id < (*table)->num_rows(); ++id) {
    rows.push_back((*table)->row(id));
  }
  Result<CompressedIndex> compressed =
      CompressRows((*table)->schema(), scheme, rows, options);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  EXPECT_EQ(compressed->stats().row_count, 500u);
  EXPECT_GT(compressed->stats().data_pages, 1u);

  std::vector<std::string> decoded;
  ASSERT_TRUE(compressed->DecodeAllRows(&decoded).ok());
  ASSERT_EQ(decoded.size(), 500u);
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(Slice(decoded[i]), rows[i]) << "row " << i;
  }
}

TEST_P(CompressedIndexBuilderTest, PagesNeverOverflow) {
  auto table = SmallTable(400, 25, 11);
  ASSERT_TRUE(table.ok());
  CompressionScheme scheme = CompressionScheme::Uniform(GetParam());
  IndexBuildOptions options;
  options.page_size = 512;
  std::vector<Slice> rows;
  for (RowId id = 0; id < (*table)->num_rows(); ++id) {
    rows.push_back((*table)->row(id));
  }
  Result<CompressedIndex> compressed =
      CompressRows((*table)->schema(), scheme, rows, options);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  for (const Page& page : compressed->pages()) {
    EXPECT_LE(page.used_bytes(), 512u);
    EXPECT_EQ(page.page_size(), 512u);
  }
  uint64_t total_used = 0;
  for (const Page& page : compressed->pages()) total_used += page.used_bytes();
  EXPECT_EQ(total_used, compressed->stats().used_bytes);
}

/// All types valid for a mixed string+integer table (delta is integer-only).
std::vector<CompressionType> MixedTableCompressionTypes() {
  std::vector<CompressionType> types;
  for (CompressionType t : AllCompressionTypes()) {
    if (t != CompressionType::kDelta && t != CompressionType::kFrameOfReference) {
      types.push_back(t);
    }
  }
  return types;
}

INSTANTIATE_TEST_SUITE_P(AllTypes, CompressedIndexBuilderTest,
                         ::testing::ValuesIn(MixedTableCompressionTypes()),
                         [](const auto& info) {
                           return CompressionTypeName(info.param);
                         });

TEST(CompressedIndexBuilderTest2, DeltaSchemeOnIntegerTable) {
  auto table = GenerateTable({ColumnSpec::Integer("a", 0)}, 3000, 5);
  ASSERT_TRUE(table.ok());
  std::vector<Slice> rows;
  for (RowId id = 0; id < (*table)->num_rows(); ++id) {
    rows.push_back((*table)->row(id));
  }
  IndexBuildOptions options;
  options.page_size = 1024;
  Result<CompressedIndex> compressed = CompressRows(
      (*table)->schema(), CompressionScheme::Uniform(CompressionType::kDelta),
      rows, options);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  // Sequential int64 keys: ~1 byte per row vs 8 uncompressed.
  EXPECT_LT(compressed->stats().chunk_bytes, 3000u * 3u);
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressed->DecodeAllRows(&decoded).ok());
  ASSERT_EQ(decoded.size(), 3000u);
  for (size_t i = 0; i < decoded.size(); ++i) {
    EXPECT_EQ(Slice(decoded[i]), rows[i]);
  }
}

TEST(CompressedIndexBuilderTest2, EmptyIndexHasOnePage) {
  Schema schema =
      std::move(Schema::Make({{"a", CharType(4)}})).ValueOrDie();
  Result<CompressedIndex> compressed = CompressRows(
      schema, CompressionScheme::Uniform(CompressionType::kNullSuppression),
      {});
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(compressed->stats().row_count, 0u);
  EXPECT_EQ(compressed->stats().data_pages, 1u);
}

TEST(CompressedIndexBuilderTest2, RejectsWrongRowWidth) {
  Schema schema =
      std::move(Schema::Make({{"a", CharType(4)}})).ValueOrDie();
  auto builder = CompressedIndexBuilder::Make(
      schema, CompressionScheme::Uniform(CompressionType::kNone));
  ASSERT_TRUE(builder.ok());
  std::string bad(2, 'x');
  EXPECT_TRUE((*builder)->Add(Slice(bad)).IsInvalidArgument());
}

TEST(CompressedIndexBuilderTest2, RejectsRowLargerThanPage) {
  Schema schema =
      std::move(Schema::Make({{"a", CharType(400)}})).ValueOrDie();
  IndexBuildOptions options;
  options.page_size = 256;
  auto builder = CompressedIndexBuilder::Make(
      schema, CompressionScheme::Uniform(CompressionType::kNone), options);
  ASSERT_TRUE(builder.ok());
  std::string row(400, 'x');
  EXPECT_TRUE((*builder)->Add(Slice(row)).IsCapacityExceeded());
}

TEST(CompressedIndexBuilderTest2, RejectsTinyAndHugePageSizes) {
  Schema schema =
      std::move(Schema::Make({{"a", CharType(4)}})).ValueOrDie();
  IndexBuildOptions tiny;
  tiny.page_size = 32;
  EXPECT_FALSE(CompressedIndexBuilder::Make(
                   schema, CompressionScheme::Uniform(CompressionType::kNone),
                   tiny)
                   .ok());
  IndexBuildOptions huge;
  huge.page_size = 1 << 20;
  EXPECT_FALSE(CompressedIndexBuilder::Make(
                   schema, CompressionScheme::Uniform(CompressionType::kNone),
                   huge)
                   .ok());
}

TEST(CompressedIndexBuilderTest2, KeepPagesFalseSkipsRetention) {
  auto table = SmallTable(100, 10, 3);
  ASSERT_TRUE(table.ok());
  IndexBuildOptions options;
  options.keep_pages = false;
  std::vector<Slice> rows;
  for (RowId id = 0; id < (*table)->num_rows(); ++id) {
    rows.push_back((*table)->row(id));
  }
  Result<CompressedIndex> compressed = CompressRows(
      (*table)->schema(),
      CompressionScheme::Uniform(CompressionType::kNullSuppression), rows,
      options);
  ASSERT_TRUE(compressed.ok());
  EXPECT_TRUE(compressed->pages().empty());
  EXPECT_GT(compressed->stats().used_bytes, 0u);
  std::vector<std::string> decoded;
  EXPECT_TRUE(compressed->DecodeAllRows(&decoded).IsInvalidArgument());
}

TEST(CompressedIndexBuilderTest2, GlobalDictAuxPagesCounted) {
  auto table = SmallTable(300, 200, 5);
  ASSERT_TRUE(table.ok());
  std::vector<Slice> rows;
  for (RowId id = 0; id < (*table)->num_rows(); ++id) {
    rows.push_back((*table)->row(id));
  }
  IndexBuildOptions options;
  options.page_size = 512;
  Result<CompressedIndex> compressed = CompressRows(
      (*table)->schema(),
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal), rows,
      options);
  ASSERT_TRUE(compressed.ok());
  EXPECT_GT(compressed->stats().aux_bytes, 0u);
  EXPECT_GT(compressed->stats().aux_pages, 0u);
  // aux_pages covers aux_bytes.
  EXPECT_GE(compressed->stats().aux_pages * (512 - kPageHeaderSize),
            compressed->stats().aux_bytes);
}

TEST(CompressedIndexBuilderTest2, ZeroBitPointerPagesRespectRowCountLimit) {
  // A single distinct value compresses to 0-bit pointers: without a row cap
  // the u16 chunk row count would wrap at 65536 rows. 70k identical rows
  // must round-trip exactly.
  Schema schema =
      std::move(Schema::Make({{"a", CharType(4)}})).ValueOrDie();
  RowCodec codec(schema);
  std::string row;
  ASSERT_TRUE(codec.Encode({Value::Str("x")}, &row).ok());
  auto builder = CompressedIndexBuilder::Make(
      schema, CompressionScheme::Uniform(CompressionType::kDictionaryPage));
  ASSERT_TRUE(builder.ok());
  const uint64_t n = 70000;
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_TRUE((*builder)->Add(Slice(row)).ok());
  }
  Result<CompressedIndex> compressed = (*builder)->Finish();
  ASSERT_TRUE(compressed.ok());
  EXPECT_EQ(compressed->stats().row_count, n);
  EXPECT_GE(compressed->stats().data_pages, 2u);  // capped at 65535 rows/page
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressed->DecodeAllRows(&decoded).ok());
  EXPECT_EQ(decoded.size(), n);
}

TEST(CompressedIndexBuilderTest2, PagingEffectsInflateDictionaryEntries) {
  // With few distinct values spread over many pages, sum_i Pg(i) > d.
  auto table = SmallTable(2000, 8, 13);
  ASSERT_TRUE(table.ok());
  std::vector<Slice> rows;
  for (RowId id = 0; id < (*table)->num_rows(); ++id) {
    rows.push_back((*table)->row(id));
  }
  IndexBuildOptions options;
  options.page_size = 512;
  options.keep_pages = false;
  Result<CompressedIndex> paged = CompressRows(
      (*table)->schema(),
      CompressionScheme::Uniform(CompressionType::kDictionaryPage), rows,
      options);
  ASSERT_TRUE(paged.ok());
  Result<CompressedIndex> global = CompressRows(
      (*table)->schema(),
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal), rows,
      options);
  ASSERT_TRUE(global.ok());
  EXPECT_GT(paged->stats().dictionary_entries,
            global->stats().dictionary_entries);
  EXPECT_GT(paged->stats().data_pages, 1u);
}

// ---------------------------------------------------------------------------
// Sizing without pages == a kept build, field for field
// ---------------------------------------------------------------------------

enum class RowShape { kStemmed, kSortedRuns, kRandom };

const char* RowShapeName(RowShape shape) {
  switch (shape) {
    case RowShape::kStemmed:
      return "stemmed";
    case RowShape::kSortedRuns:
      return "sorted_runs";
    case RowShape::kRandom:
      return "random";
  }
  return "?";
}

/// Writes `v` as a width-byte little-endian integer cell at `cell`.
void PutIntCell(char* cell, uint64_t v, uint32_t width) {
  for (uint32_t b = 0; b < width && b < 8; ++b) {
    cell[b] = static_cast<char>((v >> (8 * b)) & 0xFF);
  }
}

/// `n` row-major rows of `schema`, each column shaped independently:
/// - stemmed: strings share one random stem and end in a few repeating
///   digits; integers take small random-walk steps;
/// - sorted runs: ascending values (integers, or zero-filled decimals
///   behind "k"), each repeated 1 to 40 times;
/// - random: random-length lowercase strings (some blank), full-range
///   integers.
std::string ShapedRows(const Schema& schema, RowShape shape, size_t n,
                       Random* rng) {
  std::string rows(n * schema.row_width(), '\0');
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const uint32_t w = schema.width(c);
    const bool is_string = !schema.column(c).type.IsInteger();
    std::string stem;
    for (uint32_t b = 0; b < w / 2; ++b) {
      stem.push_back(static_cast<char>('a' + rng->NextBounded(26)));
    }
    uint64_t value = rng->NextBounded(1000);
    size_t run = 0;
    for (size_t i = 0; i < n; ++i) {
      char* cell = rows.data() + i * schema.row_width() + schema.offset(c);
      if (is_string) std::memset(cell, ' ', w);
      switch (shape) {
        case RowShape::kStemmed:
          if (is_string) {
            std::memcpy(cell, stem.data(), stem.size());
            const uint64_t len =
                stem.size() + rng->NextBounded(w - stem.size() + 1);
            for (uint64_t b = stem.size(); b < len; ++b) {
              cell[b] = static_cast<char>('0' + rng->NextBounded(3));
            }
          } else {
            value += rng->NextBounded(200) - 100;
            PutIntCell(cell, value, w);
          }
          break;
        case RowShape::kSortedRuns:
          if (run == 0) {
            run = 1 + rng->NextBounded(40);
            value += 1 + rng->NextBounded(rng->NextBounded(2) == 0 ? 3 : 5000);
          }
          --run;
          if (is_string) {
            const std::string digits = std::to_string(value);
            cell[0] = 'k';
            std::memset(cell + 1, '0', w - 1 - digits.size());
            std::memcpy(cell + w - digits.size(), digits.data(),
                        digits.size());
          } else {
            PutIntCell(cell, value, w);
          }
          break;
        case RowShape::kRandom:
          if (is_string) {
            const uint64_t len = rng->NextBounded(4) == 0
                                     ? 0
                                     : 1 + rng->NextBounded(w);
            for (uint64_t b = 0; b < len; ++b) {
              cell[b] = static_cast<char>('a' + rng->NextBounded(26));
            }
          } else {
            PutIntCell(cell, rng->NextU64(), w);
          }
          break;
      }
    }
  }
  return rows;
}

bool IsDictionaryScheme(CompressionType type) {
  return type == CompressionType::kDictionaryPage ||
         type == CompressionType::kDictionaryGlobal ||
         type == CompressionType::kPrefixDictionary;
}

/// Makes every column of `n` row-major `rows` grouped (equal cells
/// adjacent) while keeping its runs: a run whose value already occurred
/// earlier in the column is rewritten to a value the column has not held
/// ("G" and a number, or a little-endian counter). Returns every column's
/// index, the set to declare grouped.
std::vector<size_t> GroupColumns(const Schema& schema, size_t n,
                                 std::string* rows) {
  std::vector<size_t> columns;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const uint32_t w = schema.width(c);
    const bool is_string = !schema.column(c).type.IsInteger();
    std::set<std::string> seen;
    std::string prev_in;
    std::string prev_out;
    uint64_t fresh = 0;
    for (size_t i = 0; i < n; ++i) {
      char* cell = rows->data() + i * schema.row_width() + schema.offset(c);
      const std::string in(cell, w);
      if (i == 0 || in != prev_in) {
        prev_in = in;
        prev_out = in;
        while (seen.count(prev_out) != 0) {
          prev_out.assign(w, is_string ? ' ' : '\0');
          if (is_string) {
            std::string text = "G";
            text += std::to_string(fresh++);
            prev_out.replace(0, std::min<size_t>(text.size(), w), text);
          } else {
            PutIntCell(prev_out.data(), fresh++, w);
          }
        }
        seen.insert(prev_out);
      }
      std::memcpy(cell, prev_out.data(), w);
    }
    columns.push_back(c);
  }
  return columns;
}

/// Every CompressedIndexStats field, and every per-column one, equal.
void ExpectSameStats(const CompressedIndexStats& a,
                     const CompressedIndexStats& b) {
  EXPECT_EQ(b.row_count, a.row_count);
  EXPECT_EQ(b.data_pages, a.data_pages);
  EXPECT_EQ(b.aux_pages, a.aux_pages);
  EXPECT_EQ(b.used_bytes, a.used_bytes);
  EXPECT_EQ(b.aux_bytes, a.aux_bytes);
  EXPECT_EQ(b.chunk_bytes, a.chunk_bytes);
  EXPECT_EQ(b.dictionary_entries, a.dictionary_entries);
  EXPECT_EQ(b.page_size, a.page_size);
  ASSERT_EQ(b.columns.size(), a.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(b.columns[c].type, a.columns[c].type) << "column " << c;
    EXPECT_EQ(b.columns[c].chunk_bytes, a.columns[c].chunk_bytes)
        << "column " << c;
    EXPECT_EQ(b.columns[c].aux_bytes, a.columns[c].aux_bytes)
        << "column " << c;
    EXPECT_EQ(b.columns[c].dictionary_entries,
              a.columns[c].dictionary_entries)
        << "column " << c;
  }
}

using SizingCase = std::tuple<CompressionType, size_t, RowShape>;

class SizingWithoutPagesTest : public ::testing::TestWithParam<SizingCase> {
};

TEST_P(SizingWithoutPagesTest, StatsEqualKeptBuild) {
  const auto [type, page_size, shape] = GetParam();
  // Delta and FOR are integer-only; every other scheme also gets a string
  // column.
  const bool int_only =
      type == CompressionType::kDelta ||
      type == CompressionType::kFrameOfReference;
  const Schema schema =
      int_only ? Schema({{"a", Int64Type()}, {"b", Int32Type()}})
               : Schema({{"s", CharType(14)}, {"i", Int32Type()}});
  Random rng(61 + static_cast<uint64_t>(type));
  const size_t n = 3000;
  std::string rows = ShapedRows(schema, shape, n, &rng);
  auto build = [&](bool keep_pages, const std::vector<size_t>& grouped) {
    IndexBuildOptions options;
    options.page_size = page_size;
    options.keep_pages = keep_pages;
    auto builder = CompressedIndexBuilder::Make(
                       schema, CompressionScheme::Uniform(type), options,
                       grouped)
                       .ValueOrDie();
    EXPECT_TRUE(builder->AddRows(rows.data(), n).ok());
    Result<CompressedIndex> index = builder->Finish();
    EXPECT_TRUE(index.ok()) << index.status();
    return std::move(index).ValueOrDie();
  };
  struct LevelGuard {
    ~LevelGuard() { ResetSimdLevel(); }
  } guard;
  // The dictionary schemes run a second pass over the rows made grouped,
  // with every column declared grouped: kept and sized builds must still
  // agree, and equal the hashed build of the same rows.
  for (const bool grouped : {false, true}) {
    if (grouped && !IsDictionaryScheme(type)) continue;
    const std::vector<size_t> columns =
        grouped ? GroupColumns(schema, n, &rows) : std::vector<size_t>{};
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
      if (level > MaxSimdLevel()) continue;
      SetSimdLevel(level);
      SCOPED_TRACE(std::string(SimdLevelName(level)) +
                   (grouped ? " grouped" : ""));
      const CompressedIndex kept = build(true, columns);
      const CompressedIndex sized = build(false, columns);
      const CompressedIndexStats& a = kept.stats();
      const CompressedIndexStats& b = sized.stats();
      EXPECT_EQ(a.row_count, n);
      ExpectSameStats(a, b);
      if (grouped) ExpectSameStats(build(false, {}).stats(), b);
      EXPECT_TRUE(sized.pages().empty());
      // The kept stats are the kept pages' own accounting, and the pages
      // decode back to the input.
      ASSERT_EQ(kept.pages().size(), a.data_pages);
      uint64_t used = 0;
      for (const Page& page : kept.pages()) used += page.used_bytes();
      EXPECT_EQ(used, a.used_bytes);
      std::vector<std::string> decoded;
      ASSERT_TRUE(kept.DecodeAllRows(&decoded).ok());
      ASSERT_EQ(decoded.size(), n);
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(decoded[i], rows.substr(i * schema.row_width(),
                                          schema.row_width()))
            << "row " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, SizingWithoutPagesTest,
    ::testing::Combine(::testing::ValuesIn(AllCompressionTypes()),
                       ::testing::Values(size_t{1024}, size_t{8192}),
                       ::testing::Values(RowShape::kStemmed,
                                         RowShape::kSortedRuns,
                                         RowShape::kRandom)),
    [](const auto& info) {
      return std::string(CompressionTypeName(std::get<0>(info.param))) +
             "_" + std::to_string(std::get<1>(info.param)) + "_" +
             RowShapeName(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Wire format: kept pages and stats pinned to recorded digests
// ---------------------------------------------------------------------------

/// FNV-1a 64 over `n` bytes, continuing from `h`.
uint64_t Fnv64(const char* data, size_t n,
               uint64_t h = 0xcbf29ce484222325ull) {
  for (size_t i = 0; i < n; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// FNV-1a 64 over every field of `stats`, each as 8 little-endian bytes.
uint64_t StatsDigest(const CompressedIndexStats& stats) {
  std::string bytes;
  auto put = [&bytes](uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      bytes.push_back(static_cast<char>(v >> (8 * b)));
    }
  };
  for (const uint64_t v :
       {stats.row_count, stats.data_pages, stats.aux_pages, stats.used_bytes,
        stats.aux_bytes, stats.chunk_bytes, stats.dictionary_entries,
        static_cast<uint64_t>(stats.page_size)}) {
    put(v);
  }
  for (const ColumnCompressionStats& column : stats.columns) {
    put(static_cast<uint64_t>(column.type));
    put(column.chunk_bytes);
    put(column.aux_bytes);
    put(column.dictionary_entries);
  }
  return Fnv64(bytes.data(), bytes.size());
}

struct WireDigest {
  const char* name;  // scheme_pagesize_shape[_grouped]
  uint64_t pages;    // FNV-1a 64 of the kept pages' bytes, in page order
  uint64_t stats;    // StatsDigest of the build
};

// Recorded from the byte-path compressors. A change here is a change of the
// on-page format (or of the page splits), not a refactor.
// clang-format off
constexpr WireDigest kWireDigests[] = {
    {"none_1024_stemmed", 0x72622121465e702full, 0x1bf104c4971dc33bull},
    {"none_1024_sorted_runs", 0xda21d4c0297d6be2ull, 0x1bf104c4971dc33bull},
    {"none_1024_random", 0x70a82545788f07ffull, 0x1bf104c4971dc33bull},
    {"none_8192_stemmed", 0xd848aee75f687672ull, 0xbd56b7f01cea3438ull},
    {"none_8192_sorted_runs", 0x0c766da155c93397ull, 0xbd56b7f01cea3438ull},
    {"none_8192_random", 0x3951115a7ee1a91eull, 0xbd56b7f01cea3438ull},
    {"null_suppression_1024_stemmed", 0xbaaed0b5493e604dull, 0x44a2c0d7f1ebe265ull},
    {"null_suppression_1024_sorted_runs", 0xce19bea1be128b56ull, 0x860531ecbfc0279eull},
    {"null_suppression_1024_random", 0x13996f1b9267e06aull, 0x423c0d1bfc63e447ull},
    {"null_suppression_8192_stemmed", 0x8b5d4f00acd05459ull, 0x448fce30c14d5d95ull},
    {"null_suppression_8192_sorted_runs", 0x724b4ed8c0abe167ull, 0x5484efc49670c1c5ull},
    {"null_suppression_8192_random", 0x5cac60088a7929fdull, 0xae787f240d81d675ull},
    {"dictionary_page_1024_stemmed", 0xe91f1890292c5f90ull, 0x345f45570d200d8aull},
    {"dictionary_page_1024_stemmed_grouped", 0x6012bfe981b798f7ull, 0x32d58c002d7da644ull},
    {"dictionary_page_1024_sorted_runs", 0xf43616066f8270d0ull, 0xf4561d1930a59bd8ull},
    {"dictionary_page_1024_sorted_runs_grouped", 0xf43616066f8270d0ull, 0xf4561d1930a59bd8ull},
    {"dictionary_page_1024_random", 0x71df928247973b51ull, 0xbf79921ec6de0f2eull},
    {"dictionary_page_1024_random_grouped", 0x1a817bc543ef2ad8ull, 0x8795df9263ea20c0ull},
    {"dictionary_page_8192_stemmed", 0xc1df532942e5c5d9ull, 0xbb26dfcbdf149444ull},
    {"dictionary_page_8192_stemmed_grouped", 0x73c1b2208216ba30ull, 0x7849b2e402671508ull},
    {"dictionary_page_8192_sorted_runs", 0x7a7500eace175109ull, 0x26ce61ba7578a77cull},
    {"dictionary_page_8192_sorted_runs_grouped", 0x7a7500eace175109ull, 0x26ce61ba7578a77cull},
    {"dictionary_page_8192_random", 0xe82cac19dc1aad69ull, 0xb4d82358f0965d9aull},
    {"dictionary_page_8192_random_grouped", 0x3fdc3d4aef48d7e3ull, 0x4cd3d3118e0fb8fdull},
    {"dictionary_global_1024_stemmed", 0xa41621bc301cf794ull, 0x11bbe28e7e3858e5ull},
    {"dictionary_global_1024_stemmed_grouped", 0x415087dcb39c5010ull, 0x108ac6dbe15a44a8ull},
    {"dictionary_global_1024_sorted_runs", 0xe194cbd2ba9b4d4full, 0x34d90c0cd12ba352ull},
    {"dictionary_global_1024_sorted_runs_grouped", 0xe194cbd2ba9b4d4full, 0x34d90c0cd12ba352ull},
    {"dictionary_global_1024_random", 0x488f91a294e21621ull, 0xccefc40b03cf853dull},
    {"dictionary_global_1024_random_grouped", 0x6e963e26b46ecfa3ull, 0x3ed2e93dcfe7db33ull},
    {"dictionary_global_8192_stemmed", 0xd5ddf4a8ea717f26ull, 0x9521fe8dd9b8fb1full},
    {"dictionary_global_8192_stemmed_grouped", 0x9ac33f8f86b19912ull, 0xfaa18965b86b28ddull},
    {"dictionary_global_8192_sorted_runs", 0xc74a387f75620661ull, 0x11bcff2fe5d5fe36ull},
    {"dictionary_global_8192_sorted_runs_grouped", 0xc74a387f75620661ull, 0x11bcff2fe5d5fe36ull},
    {"dictionary_global_8192_random", 0xba14c68ce99a55c7ull, 0x7a3d05b1fd04261dull},
    {"dictionary_global_8192_random_grouped", 0xfbbc80772dee80f1ull, 0x9e57f5ddfdbc8adfull},
    {"rle_1024_stemmed", 0x3dfc936f3eccbeb2ull, 0xc171c8a3646af594ull},
    {"rle_1024_sorted_runs", 0xd682f53cdbf7ec42ull, 0x3971b03bf8af52f0ull},
    {"rle_1024_random", 0x7a85e3b1e4587d04ull, 0x9e086fda2512717full},
    {"rle_8192_stemmed", 0xac8cd2ee6f4a45dfull, 0x69f3aba80aa3f0d2ull},
    {"rle_8192_sorted_runs", 0x7f15ef99c0a4aa91ull, 0x151531e7c39fd35aull},
    {"rle_8192_random", 0x4410484d7a9977c6ull, 0x75ae6e8faea58e22ull},
    {"prefix_1024_stemmed", 0xfcdf7a099132292full, 0xde1ed3902e1da7a8ull},
    {"prefix_1024_sorted_runs", 0x274bd3c8e784c819ull, 0x8c5c36b823c410c7ull},
    {"prefix_1024_random", 0x90516dcd013ca0caull, 0xb8ab196564c969aaull},
    {"prefix_8192_stemmed", 0x6c3c9abeb6c0ee53ull, 0xb3db219842715289ull},
    {"prefix_8192_sorted_runs", 0x703d357b1c3c3ba5ull, 0x592c68fc38bf3b4full},
    {"prefix_8192_random", 0xf494a58118967bf7ull, 0x4177289eb7231a15ull},
    {"delta_1024_stemmed", 0xb8f8cc6b951dc70dull, 0x2273a9963f2d684eull},
    {"delta_1024_sorted_runs", 0xe91e2cd38369e451ull, 0xf3c884bb9baf5821ull},
    {"delta_1024_random", 0x5e15e23821c0cd08ull, 0x022a99a9ef37e4deull},
    {"delta_8192_stemmed", 0x337a7f98f0251b88ull, 0x6690db18d3744931ull},
    {"delta_8192_sorted_runs", 0x2a7d760c60cd3c77ull, 0x8a620586db299a1cull},
    {"delta_8192_random", 0xcc05bf8d2eed8b4dull, 0x47e85f8ace1f82e4ull},
    {"prefix_dictionary_1024_stemmed", 0xfe085689f3cc8662ull, 0x524deff08c9f6ff7ull},
    {"prefix_dictionary_1024_stemmed_grouped", 0x91edc2aa93c5775eull, 0xafb5f9dad4e94dc9ull},
    {"prefix_dictionary_1024_sorted_runs", 0x23da051d4234b1ceull, 0x834c79c0d838b503ull},
    {"prefix_dictionary_1024_sorted_runs_grouped", 0x23da051d4234b1ceull, 0x834c79c0d838b503ull},
    {"prefix_dictionary_1024_random", 0x17f0a348f95abcebull, 0xed9e5abbdaf03646ull},
    {"prefix_dictionary_1024_random_grouped", 0x4bf82966ead3559full, 0x15ee589f8d1288daull},
    {"prefix_dictionary_8192_stemmed", 0x81581c15e828c096ull, 0x975299dedac0784eull},
    {"prefix_dictionary_8192_stemmed_grouped", 0x070ef0f88c4a08e9ull, 0xef1004a8e8eca23bull},
    {"prefix_dictionary_8192_sorted_runs", 0xaec4f65a3023c050ull, 0x90b4532d8d9055f6ull},
    {"prefix_dictionary_8192_sorted_runs_grouped", 0xaec4f65a3023c050ull, 0x90b4532d8d9055f6ull},
    {"prefix_dictionary_8192_random", 0x1a656bcde808d8f2ull, 0x368180aa6c1a3816ull},
    {"prefix_dictionary_8192_random_grouped", 0x6e24486ea30a1fc4ull, 0xc482f30b547edf4dull},
    {"frame_of_reference_1024_stemmed", 0xfa49d8323f456879ull, 0x0eb571922c4b10d3ull},
    {"frame_of_reference_1024_sorted_runs", 0xbf1cabc04c1b0c18ull, 0x83b4d59a2cb3855full},
    {"frame_of_reference_1024_random", 0xf87956d333c5ed7bull, 0x21b18a04aba49361ull},
    {"frame_of_reference_8192_stemmed", 0xb8eab8cd32e1b712ull, 0xebf8c6d6e5c73367ull},
    {"frame_of_reference_8192_sorted_runs", 0xb49467d188d46c24ull, 0x7a1470ddda66592full},
    {"frame_of_reference_8192_random", 0x8d6187782119d23full, 0xf2341b6ea8c6120cull},
};
// clang-format on

TEST(WireFormatTest, KeptPagesAndStatsMatchRecordedDigests) {
  struct LevelGuard {
    ~LevelGuard() { ResetSimdLevel(); }
  } guard;
  std::string recorded;  // the table's lines, printed on a mismatch
  for (const CompressionType type : AllCompressionTypes()) {
    const bool int_only = type == CompressionType::kDelta ||
                          type == CompressionType::kFrameOfReference;
    const Schema schema =
        int_only ? Schema({{"a", Int64Type()}, {"b", Int32Type()}})
                 : Schema({{"s", CharType(14)}, {"i", Int32Type()}});
    for (const size_t page_size : {size_t{1024}, size_t{8192}}) {
      for (const RowShape shape :
           {RowShape::kStemmed, RowShape::kSortedRuns, RowShape::kRandom}) {
        for (const bool grouped : {false, true}) {
          if (grouped && !IsDictionaryScheme(type)) continue;
          Random rng(29);
          const size_t n = 2500;
          std::string rows = ShapedRows(schema, shape, n, &rng);
          const std::vector<size_t> columns =
              grouped ? GroupColumns(schema, n, &rows) : std::vector<size_t>{};
          const std::string name =
              std::string(CompressionTypeName(type)) + "_" +
              std::to_string(page_size) + "_" + RowShapeName(shape) +
              (grouped ? "_grouped" : "");
          const WireDigest* expected = nullptr;
          for (const WireDigest& d : kWireDigests) {
            if (name == d.name) expected = &d;
          }
          for (const SimdLevel level :
               {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
            if (level > MaxSimdLevel()) continue;
            SetSimdLevel(level);
            SCOPED_TRACE(name + " " + SimdLevelName(level));
            IndexBuildOptions options;
            options.page_size = page_size;
            auto builder = CompressedIndexBuilder::Make(
                               schema, CompressionScheme::Uniform(type),
                               options, columns)
                               .ValueOrDie();
            ASSERT_TRUE(builder->AddRows(rows.data(), n).ok());
            const CompressedIndex index = builder->Finish().ValueOrDie();
            uint64_t pages = Fnv64(nullptr, 0);
            for (const Page& page : index.pages()) {
              pages = Fnv64(page.buffer().data(), page.buffer().size(), pages);
            }
            const uint64_t stats = StatsDigest(index.stats());
            if (level == SimdLevel::kScalar) {
              char line[160];
              std::snprintf(line, sizeof(line),
                            "    {\"%s\", 0x%016llxull, 0x%016llxull},\n",
                            name.c_str(),
                            static_cast<unsigned long long>(pages),
                            static_cast<unsigned long long>(stats));
              recorded += line;
            }
            if (expected == nullptr) {
              ADD_FAILURE() << "no recorded digest";
              continue;
            }
            EXPECT_EQ(pages, expected->pages) << "page bytes";
            EXPECT_EQ(stats, expected->stats) << "stats";
          }
        }
      }
    }
  }
  EXPECT_FALSE(HasFailure()) << "digests of this build:\n" << recorded;
}

}  // namespace

/// Reaches into a builder's per-column chunks.
class CompressedIndexBuilderPeer {
 public:
  static void SetChunk(CompressedIndexBuilder* builder, size_t column,
                       std::unique_ptr<ColumnChunkCompressor> chunk) {
    builder->chunks_[column] = std::move(chunk);
  }
  static const ColumnChunkCompressor* Chunk(
      const CompressedIndexBuilder& builder, size_t column) {
    return builder.chunks_[column].get();
  }
};

namespace {

/// Wraps a real chunk but serializes one byte more than it charges.
class MisreportingChunk final : public ColumnChunkCompressor {
 public:
  explicit MisreportingChunk(std::unique_ptr<ColumnChunkCompressor> inner)
      : inner_(std::move(inner)) {}
  size_t CostWith(const Slice& cell) override { return inner_->CostWith(cell); }
  void Add(const Slice& cell) override { inner_->Add(cell); }
  size_t StageBatch(const char* cells, size_t n) override {
    return inner_->StageBatch(cells, n);
  }
  void CommitStaged() override { inner_->CommitStaged(); }
  void DropStaged() override { inner_->DropStaged(); }
  size_t Cost() const override { return inner_->Cost(); }
  uint32_t count() const override { return inner_->count(); }
  std::string Finish(const char* cells, size_t n) const override {
    return inner_->Finish(cells, n) + "!";
  }
  void Reset() override { inner_->Reset(); }

 private:
  std::unique_ptr<ColumnChunkCompressor> inner_;
};

TEST(CompressedIndexBuilderTest2, KeptPageRejectsChunkBytesThatMissTheCost) {
  // Where page bytes exist, the cost contract is checked: a chunk whose
  // serialized length differs from its Cost() fails the build. Sizing
  // without pages never serializes, so it charges the cost as reported.
  const Schema schema({{"a", CharType(8)}});
  const std::string row = PadCell("x", 8);
  for (const bool keep_pages : {true, false}) {
    IndexBuildOptions options;
    options.keep_pages = keep_pages;
    auto builder = CompressedIndexBuilder::Make(
                       schema,
                       CompressionScheme::Uniform(CompressionType::kPrefix),
                       options)
                       .ValueOrDie();
    auto compressor = MustMake(CompressionType::kPrefix, CharType(8));
    CompressedIndexBuilderPeer::SetChunk(
        builder.get(), 0,
        std::make_unique<MisreportingChunk>(compressor->NewChunk()));
    ASSERT_TRUE(builder->Add(Slice(row)).ok());
    Result<CompressedIndex> index = builder->Finish();
    if (keep_pages) {
      EXPECT_TRUE(index.status().IsInternal()) << index.status();
    } else {
      ASSERT_TRUE(index.ok()) << index.status();
      EXPECT_EQ(index->stats().chunk_bytes,
                MustMake(CompressionType::kPrefix, CharType(8))
                        ->NewChunk()
                        ->CostWith(Slice(row)));
    }
  }
}

// ---------------------------------------------------------------------------
// Chunk reuse: a Reset() chunk packs exactly like a fresh NewChunk()
// ---------------------------------------------------------------------------

/// Rows in segments shaped so that chunk state crosses page boundaries:
/// - sorted runs of 1 to 300 equal values: RLE runs and the prefix, delta
///   and FOR values of a page straddle its flush;
/// - a high-cardinality block, which grows a page's dictionary table, then
///   a low-cardinality one (three values) packed into the grown table;
/// - high cardinality again: AddRows predicts the first batches of a page
///   from cheap low-cardinality rows, so they overflow and are dropped;
/// - 70,000 copies of one value: dictionary pointers, RLE runs and FOR
///   offsets cost nothing per row, so the page is closed by the 0xFFFF-row
///   cap, and AddRows' first batch on the next page — sized to that page's
///   65,535 rows — reaches into the tail and is dropped right after the
///   reset;
/// - a high-cardinality tail.
std::string ReuseRows(const Schema& schema, size_t* n, Random* rng) {
  enum class Segment { kRuns, kHigh, kLow, kConstant };
  const std::vector<std::pair<Segment, size_t>> segments = {
      {Segment::kRuns, 4000}, {Segment::kHigh, 2500},
      {Segment::kLow, 12000}, {Segment::kHigh, 2500},
      {Segment::kConstant, 70000}, {Segment::kHigh, 500}};
  *n = 0;
  for (const auto& segment : segments) *n += segment.second;
  std::string rows(*n * schema.row_width(), '\0');
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    const uint32_t w = schema.width(c);
    const bool is_string = !schema.column(c).type.IsInteger();
    uint64_t value = 0;
    size_t run = 0;
    size_t i = 0;
    for (const auto& [segment, count] : segments) {
      for (size_t j = 0; j < count; ++j, ++i) {
        char* cell = rows.data() + i * schema.row_width() + schema.offset(c);
        if (segment == Segment::kHigh && is_string) {
          // Random lowercase strings of random length.
          std::memset(cell, ' ', w);
          const uint64_t len = 1 + rng->NextBounded(w);
          for (uint64_t b = 0; b < len; ++b) {
            cell[b] = static_cast<char>('a' + rng->NextBounded(26));
          }
          continue;
        }
        uint64_t v = 7;  // kConstant
        if (segment == Segment::kRuns) {
          if (run == 0) {
            run = 1 + rng->NextBounded(300);
            value += 1 + rng->NextBounded(50);
          }
          --run;
          v = value;
        } else if (segment == Segment::kHigh) {
          v = rng->NextU64();
        } else if (segment == Segment::kLow) {
          v = rng->NextBounded(3);
        }
        if (is_string) {
          // "k" and zero-padded digits: sorted values share a prefix.
          const std::string digits = std::to_string(v % 1000000);
          cell[0] = 'k';
          std::memset(cell + 1, '0', w - 1 - digits.size());
          std::memcpy(cell + w - digits.size(), digits.data(), digits.size());
        } else {
          PutIntCell(cell, v, w);
        }
      }
    }
  }
  return rows;
}

/// A reference packer: the per-row path of CompressedIndexBuilder::Add,
/// but with a fresh NewChunk() per column on every page. Returns the stats
/// and every page image.
struct FreshChunkBuild {
  CompressedIndexStats stats;
  std::vector<std::string> pages;
};

FreshChunkBuild PackWithFreshChunks(const Schema& schema,
                                    const CompressionScheme& scheme,
                                    const std::string& rows, size_t n,
                                    size_t page_size) {
  ColumnCompressorSet set =
      ColumnCompressorSet::Make(schema, scheme).ValueOrDie();
  const size_t ncols = schema.num_columns();
  FreshChunkBuild out;
  CompressedIndexStats& stats = out.stats;
  stats.page_size = page_size;
  stats.columns.resize(ncols);
  std::vector<std::unique_ptr<ColumnChunkCompressor>> chunks;
  std::string page_rows;  // the open page's rows, for Finish()
  auto open_page = [&] {
    chunks.clear();
    for (size_t c = 0; c < ncols; ++c) {
      stats.columns[c].type = set.column(c)->type();
      chunks.push_back(set.column(c)->NewChunk());
    }
  };
  auto flush_page = [&] {
    std::string record;
    size_t used = kPageHeaderSize + kSlotSize;
    const size_t page_n = chunks[0]->count();
    for (size_t c = 0; c < ncols; ++c) {
      std::string column;
      for (size_t r = 0; r < page_n; ++r) {
        column.append(page_rows, r * schema.row_width() + schema.offset(c),
                      schema.width(c));
      }
      const std::string bytes = chunks[c]->Finish(column.data(), page_n);
      EXPECT_EQ(bytes.size(), chunks[c]->Cost());
      used += 4 + bytes.size();
      stats.chunk_bytes += bytes.size();
      stats.columns[c].chunk_bytes += bytes.size();
      encoding::PutU32(&record, static_cast<uint32_t>(bytes.size()));
      record += bytes;
    }
    stats.used_bytes += used;
    ++stats.data_pages;
    PageBuilder page(out.pages.size(), PageType::kCompressedLeaf, page_size);
    EXPECT_TRUE(page.Add(Slice(record)).ok());
    out.pages.push_back(page.Finish().buffer());
    page_rows.clear();
    open_page();
  };
  const size_t width = schema.row_width();
  auto prospective = [&](const char* row) {
    size_t cost = kPageHeaderSize + kSlotSize + 4 * ncols;
    for (size_t c = 0; c < ncols; ++c) {
      cost += chunks[c]->CostWith(
          Slice(row + schema.offset(c), schema.width(c)));
    }
    return cost;
  };
  open_page();
  for (size_t i = 0; i < n; ++i) {
    const char* row = rows.data() + i * width;
    if (chunks[0]->count() >= 0xFFFF ||
        (chunks[0]->count() > 0 && prospective(row) > page_size)) {
      flush_page();
    }
    EXPECT_LE(prospective(row), page_size);
    for (size_t c = 0; c < ncols; ++c) {
      chunks[c]->Add(Slice(row + schema.offset(c), schema.width(c)));
    }
    page_rows.append(row, width);
  }
  if (chunks[0]->count() > 0 || n == 0) flush_page();
  stats.row_count = n;
  stats.aux_bytes = set.AuxiliaryBytes();
  stats.dictionary_entries = set.TotalDictionaryEntries();
  for (size_t c = 0; c < ncols; ++c) {
    stats.columns[c].aux_bytes = set.column(c)->AuxiliaryBytes();
    stats.columns[c].dictionary_entries =
        set.column(c)->TotalDictionaryEntries();
  }
  const size_t aux_capacity = page_size - kPageHeaderSize;
  stats.aux_pages = (stats.aux_bytes + aux_capacity - 1) / aux_capacity;
  return out;
}

using ReuseCase = std::tuple<CompressionType, size_t>;

class ChunkReuseTest : public ::testing::TestWithParam<ReuseCase> {};

TEST_P(ChunkReuseTest, ResetChunksPackLikeFreshOnes) {
  const auto [type, page_size] = GetParam();
  const bool int_only = type == CompressionType::kDelta ||
                        type == CompressionType::kFrameOfReference;
  const Schema schema =
      int_only ? Schema({{"a", Int64Type()}, {"b", Int32Type()}})
               : Schema({{"s", CharType(14)}, {"i", Int32Type()}});
  const CompressionScheme scheme = CompressionScheme::Uniform(type);
  Random rng(83 + static_cast<uint64_t>(type));
  size_t n = 0;
  std::string rows = ReuseRows(schema, &n, &rng);
  struct LevelGuard {
    ~LevelGuard() { ResetSimdLevel(); }
  } guard;
  // The dictionary schemes run a second pass over the rows made grouped,
  // with every column declared grouped, against the same hashed fresh-chunk
  // reference: runs straddle page flushes and dropped batches, including
  // the 70,000-row run that closes pages at the row cap.
  for (const bool grouped : {false, true}) {
    if (grouped && !IsDictionaryScheme(type)) continue;
    const std::vector<size_t> columns =
        grouped ? GroupColumns(schema, n, &rows) : std::vector<size_t>{};
    for (const SimdLevel level :
         {SimdLevel::kScalar, SimdLevel::kSse42, SimdLevel::kAvx2}) {
      if (level > MaxSimdLevel()) continue;
      SetSimdLevel(level);
      SCOPED_TRACE(std::string(SimdLevelName(level)) +
                   (grouped ? " grouped" : ""));
      const FreshChunkBuild reference =
          PackWithFreshChunks(schema, scheme, rows, n, page_size);
      ASSERT_GT(reference.stats.data_pages, 2u);
      for (const bool batched : {false, true}) {
        for (const bool keep_pages : {true, false}) {
          SCOPED_TRACE(std::string(batched ? "AddRows" : "Add") +
                       (keep_pages ? ", kept" : ", sized"));
          IndexBuildOptions options;
          options.page_size = page_size;
          options.keep_pages = keep_pages;
          auto builder =
              CompressedIndexBuilder::Make(schema, scheme, options, columns)
                  .ValueOrDie();
          std::vector<const ColumnChunkCompressor*> opened;
          for (size_t c = 0; c < schema.num_columns(); ++c) {
            opened.push_back(CompressedIndexBuilderPeer::Chunk(*builder, c));
          }
          // Every page goes through the chunks opened with the build:
          // checked after each Add, or after each AddRows slice of up to
          // 1500 rows.
          const size_t step = batched ? 1500 : 1;
          for (size_t i = 0; i < n; i += step) {
            const size_t m = std::min(step, n - i);
            const char* slice = rows.data() + i * schema.row_width();
            const Status status =
                batched ? builder->AddRows(slice, m)
                        : builder->Add(Slice(slice, schema.row_width()));
            ASSERT_TRUE(status.ok()) << status;
            for (size_t c = 0; c < schema.num_columns(); ++c) {
              ASSERT_EQ(CompressedIndexBuilderPeer::Chunk(*builder, c),
                        opened[c])
                  << "column " << c << " after row " << i;
            }
          }
          Result<CompressedIndex> index = builder->Finish();
          ASSERT_TRUE(index.ok()) << index.status();
          ExpectSameStats(reference.stats, index->stats());
          if (!keep_pages) {
            EXPECT_TRUE(index->pages().empty());
            continue;
          }
          ASSERT_EQ(index->pages().size(), reference.pages.size());
          for (size_t p = 0; p < reference.pages.size(); ++p) {
            ASSERT_EQ(index->pages()[p].buffer(), reference.pages[p])
                << "page " << p;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemes, ChunkReuseTest,
    ::testing::Combine(::testing::ValuesIn(AllCompressionTypes()),
                       ::testing::Values(size_t{1024}, size_t{8192})),
    [](const auto& info) {
      return std::string(CompressionTypeName(std::get<0>(info.param))) +
             "_" + std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cfest
