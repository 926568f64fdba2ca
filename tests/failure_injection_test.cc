// Failure injection: systematically corrupt compressed page images and
// verify every decoder fails with a clean Corruption/OutOfRange status —
// never crashes, never silently accepts garbage that changes row counts.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress_rows.h"
#include "compression/compressed_index.h"
#include "datagen/table_gen.h"
#include "estimator/analytic_model.h"
#include "estimator/sample_cf.h"
#include "index/index.h"

namespace cfest {
namespace {

struct Victim {
  std::unique_ptr<Table> table;
  std::unique_ptr<CompressedIndex> compressed;
};

/// Builds a compressed index with pages retained, for mutation.
Result<Victim> BuildVictim(CompressionType type, uint64_t seed) {
  auto table = GenerateTable(
      {ColumnSpec::String("s", 12, 30, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(1, 10)),
       ColumnSpec::Integer("i", 50)},
      300, seed);
  if (!table.ok()) return table.status();
  CompressionScheme scheme;
  scheme.per_column.assign(2, CompressionType::kNone);
  if (MakeColumnCompressor(type, CharType(12)).ok()) {
    scheme.per_column[0] = type;
  }
  if (MakeColumnCompressor(type, Int64Type()).ok()) {
    scheme.per_column[1] = type;
  }
  std::vector<Slice> rows;
  for (RowId id = 0; id < (*table)->num_rows(); ++id) {
    rows.push_back((*table)->row(id));
  }
  IndexBuildOptions options;
  options.page_size = 1024;
  CFEST_ASSIGN_OR_RETURN(CompressedIndex compressed,
                         CompressRows((*table)->schema(), scheme, rows,
                                      options));
  Victim victim;
  victim.table = std::move(*table);
  victim.compressed = std::make_unique<CompressedIndex>(std::move(compressed));
  return victim;
}

/// Stateful decoders (the global dictionary) need their cross-page state
/// rebuilt before they can decode anything: replay every cell through a
/// throwaway chunk so the fresh compressor's dictionary matches the one the
/// victim was built with (identical first-occurrence order).
void TrainCompressor(ColumnCompressor* compressor, const Table& table,
                     size_t col) {
  auto chunk = compressor->NewChunk();
  for (RowId id = 0; id < table.num_rows(); ++id) {
    chunk->Add(table.cell(id, col));
  }
}

/// Re-decodes a chunk after flipping one byte; success is either a clean
/// error or a decode whose *content* differs but is structurally valid.
class FailureInjectionTest
    : public ::testing::TestWithParam<CompressionType> {};

TEST_P(FailureInjectionTest, ByteFlipsNeverCrashChunkDecoders) {
  Result<Victim> victim_result = BuildVictim(GetParam(), 17);
  ASSERT_TRUE(victim_result.ok()) << victim_result.status();
  const CompressedIndex* victim = victim_result->compressed.get();
  ASSERT_FALSE(victim->pages().empty());

  // Extract each column chunk of the first page and mutate it byte by byte.
  Result<Slice> record = victim->pages()[0].record(0);
  ASSERT_TRUE(record.ok());
  ColumnCompressorSet set = std::move(ColumnCompressorSet::Make(
                                          victim->schema(), victim->scheme()))
                                .ValueOrDie();
  for (size_t c = 0; c < victim->schema().num_columns(); ++c) {
    TrainCompressor(set.column(c), *victim_result->table, c);
  }
  size_t pos = 0;
  for (size_t c = 0; c < victim->schema().num_columns(); ++c) {
    uint32_t chunk_len = 0;
    ASSERT_TRUE(pos + 4 <= record->size());
    for (int i = 0; i < 4; ++i) {
      chunk_len |= static_cast<uint32_t>(
                       static_cast<unsigned char>((*record)[pos + i]))
                   << (8 * i);
    }
    pos += 4;
    const std::string original(record->data() + pos, chunk_len);
    pos += chunk_len;

    // Train the (possibly stateful) compressor by decoding the original.
    std::vector<std::string> baseline;
    ASSERT_TRUE(set.column(c)->DecodeChunk(Slice(original), &baseline).ok());

    Random rng(99);
    for (size_t byte = 0; byte < original.size();
         byte += 1 + original.size() / 64) {
      for (unsigned char flip : {0x01, 0x80, 0xFF}) {
        std::string mutated = original;
        mutated[byte] = static_cast<char>(mutated[byte] ^ flip);
        std::vector<std::string> decoded;
        Status st = set.column(c)->DecodeChunk(Slice(mutated), &decoded);
        if (st.ok()) {
          // Structurally valid decodes must produce fixed-width cells.
          for (const std::string& cell : decoded) {
            ASSERT_EQ(cell.size(), victim->schema().width(c));
          }
        } else {
          ASSERT_TRUE(st.IsCorruption() || st.IsOutOfRange()) << st;
        }
      }
    }
  }
}

TEST_P(FailureInjectionTest, TruncatedPagesFailCleanly) {
  Result<Victim> victim_result = BuildVictim(GetParam(), 23);
  ASSERT_TRUE(victim_result.ok());
  const CompressedIndex* victim = victim_result->compressed.get();
  Result<Slice> record = victim->pages()[0].record(0);
  ASSERT_TRUE(record.ok());
  ColumnCompressorSet set = std::move(ColumnCompressorSet::Make(
                                          victim->schema(), victim->scheme()))
                                .ValueOrDie();
  TrainCompressor(set.column(0), *victim_result->table, 0);
  // Feed truncated prefixes of the first chunk.
  uint32_t chunk_len = 0;
  for (int i = 0; i < 4; ++i) {
    chunk_len |= static_cast<uint32_t>(
                     static_cast<unsigned char>((*record)[i]))
                 << (8 * i);
  }
  const Slice chunk(record->data() + 4, chunk_len);
  std::vector<std::string> warmup;
  ASSERT_TRUE(set.column(0)->DecodeChunk(chunk, &warmup).ok());
  for (size_t cut = 0; cut < chunk.size(); cut += 1 + chunk.size() / 32) {
    std::vector<std::string> decoded;
    Status st =
        set.column(0)->DecodeChunk(Slice(chunk.data(), cut), &decoded);
    if (st.ok()) {
      // A prefix that happens to parse must not exceed the true row count.
      EXPECT_LE(decoded.size(), warmup.size());
    } else {
      EXPECT_TRUE(st.IsCorruption()) << st;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTypes, FailureInjectionTest,
                         ::testing::ValuesIn(AllCompressionTypes()),
                         [](const auto& info) {
                           return CompressionTypeName(info.param);
                         });

// ---------------------------------------------------------------------------
// SampleCFFromIndex (paper §II-C) and the empirical CI
// ---------------------------------------------------------------------------

TEST(SampleFromIndexTest, MatchesTableSamplingAccuracy) {
  auto table = GenerateTable(
      {ColumnSpec::String("a", 20, 500, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(1, 16))},
      20000, 7);
  ASSERT_TRUE(table.ok());
  IndexBuildOptions build;
  build.keep_pages = false;
  auto index = Index::Build(**table, {"cx", {"a"}, true}, build);
  ASSERT_TRUE(index.ok());
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kNullSuppression);
  auto truth = ComputeTrueCF(**table, {"cx", {"a"}, true}, scheme);
  ASSERT_TRUE(truth.ok());

  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(42);
  auto result = SampleCFFromIndex(*index, scheme, options, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->sample_rows, 1000u);
  // Theorem-1 accuracy holds for the index-sampled variant too.
  EXPECT_NEAR(result->cf.value, truth->value,
              4.0 * Theorem1StdDevBound(1000));
}

TEST(SampleFromIndexTest, Validation) {
  Schema schema =
      std::move(Schema::Make({{"v", Int64Type()}})).ValueOrDie();
  TableBuilder builder(schema);
  auto empty = builder.Finish();
  auto index = Index::Build(*empty, {"ix", {"v"}, false});
  ASSERT_TRUE(index.ok());
  SampleCFOptions options;
  Random rng(1);
  EXPECT_FALSE(SampleCFFromIndex(
                   *index, CompressionScheme::Uniform(CompressionType::kNone),
                   options, &rng)
                   .ok());
}

TEST(EmpiricalCiTest, TighterThanWorstCaseOnLowVarianceData) {
  auto table = GenerateTable(
      {ColumnSpec::String("a", 20, 100, FrequencySpec::Uniform(),
                          LengthSpec::Constant(5))},
      5000, 9);
  ASSERT_TRUE(table.ok());
  auto sampler = MakeUniformWithReplacementSampler();
  Random rng(3);
  auto sample = sampler->Sample(**table, 0.05, &rng);
  ASSERT_TRUE(sample.ok());
  const double estimate = 0.3;  // (5+1)/20
  auto empirical =
      EmpiricalNsConfidenceInterval(**sample, 0, estimate, 2.0);
  ASSERT_TRUE(empirical.ok());
  const ConfidenceInterval worst_case =
      Theorem1ConfidenceInterval(estimate, (*sample)->num_rows(), 2.0);
  // Constant lengths: the empirical interval collapses to a point while the
  // worst-case band stays wide.
  EXPECT_LT(empirical->upper - empirical->lower,
            (worst_case.upper - worst_case.lower) / 10.0);
  EXPECT_GE(empirical->lower, worst_case.lower);
  EXPECT_LE(empirical->upper, worst_case.upper);
}

TEST(EmpiricalCiTest, Validation) {
  auto table = GenerateTable({ColumnSpec::String("a", 8, 5)}, 1, 1);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(EmpiricalNsConfidenceInterval(**table, 0, 0.5).ok());
  EXPECT_TRUE(
      EmpiricalNsConfidenceInterval(**table, 9, 0.5).status().IsOutOfRange());
}

}  // namespace
}  // namespace cfest
