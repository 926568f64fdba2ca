// Tests for the extension modules: the per-column scheme recommender, the
// hybrid dictionary CF estimator and column profiling.

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "common/stats.h"
#include "datagen/table_gen.h"
#include "estimator/column_profile.h"
#include "estimator/compression_fraction.h"
#include "estimator/hybrid.h"
#include "estimator/scheme_advisor.h"

namespace cfest {
namespace {

/// Three columns with clearly different best schemes:
///   key     — sequential int64 (delta should win on the sorted index)
///   status  — 4 distinct short strings (dictionary family should win)
///   blob    — near-unique strings with heavy padding slack (NS-ish wins).
std::unique_ptr<Table> MixedWorkload(uint64_t n) {
  auto table = GenerateTable(
      {ColumnSpec::Integer("key", 0),
       ColumnSpec::String("status", 16, 4, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(6, 10)),
       ColumnSpec::String("blob", 64, n / 2, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 24))},
      n, 99);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

// ---------------------------------------------------------------------------
// RecommendScheme
// ---------------------------------------------------------------------------

TEST(RecommendSchemeTest, PicksSensiblePerColumnWinners) {
  auto table = MixedWorkload(20000);
  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(7);
  auto rec = RecommendScheme(*table, {"cx", {"key"}, /*clustered=*/true}, {},
                             options, &rng);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(rec->columns.size(), 3u);
  // Sorted sequential keys: delta wins by an order of magnitude.
  EXPECT_EQ(rec->columns[0].best, CompressionType::kDelta);
  EXPECT_LT(rec->columns[0].estimated_cf, 0.3);
  // Low-cardinality status: one of the dictionary/RLE family.
  const CompressionType status_best = rec->columns[1].best;
  EXPECT_TRUE(status_best == CompressionType::kDictionaryPage ||
              status_best == CompressionType::kPrefixDictionary ||
              status_best == CompressionType::kDictionaryGlobal ||
              status_best == CompressionType::kRle)
      << CompressionTypeName(status_best);
  // Every winner must not inflate.
  for (const auto& col : rec->columns) {
    EXPECT_LE(col.estimated_cf, 1.01) << col.column_name;
  }
  // The assembled scheme is usable and the whole-index CF is consistent.
  EXPECT_EQ(rec->scheme.per_column.size(), 3u);
  EXPECT_GT(rec->estimated_cf, 0.0);
  EXPECT_LT(rec->estimated_cf, 1.0);
}

TEST(RecommendSchemeTest, RecommendationBeatsUniformSchemes) {
  auto table = MixedWorkload(20000);
  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(11);
  IndexDescriptor desc{"cx", {"key"}, true};
  auto rec = RecommendScheme(*table, desc, {}, options, &rng);
  ASSERT_TRUE(rec.ok());
  // The recommended mixed scheme's *true* CF must beat the best uniform
  // string-safe scheme's true CF (that is the point of per-column choice).
  auto mixed_cf = ComputeTrueCF(*table, desc, rec->scheme);
  ASSERT_TRUE(mixed_cf.ok()) << mixed_cf.status();
  for (CompressionType uniform :
       {CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
        CompressionType::kPrefixDictionary}) {
    auto uniform_cf =
        ComputeTrueCF(*table, desc, CompressionScheme::Uniform(uniform));
    ASSERT_TRUE(uniform_cf.ok());
    EXPECT_LE(mixed_cf->value, uniform_cf->value * 1.02)
        << "vs " << CompressionTypeName(uniform);
  }
}

TEST(RecommendSchemeTest, EstimateTracksTrueMixedCF) {
  auto table = MixedWorkload(20000);
  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(13);
  IndexDescriptor desc{"cx", {"key"}, true};
  auto rec = RecommendScheme(*table, desc, {}, options, &rng);
  ASSERT_TRUE(rec.ok());
  auto truth = ComputeTrueCF(*table, desc, rec->scheme);
  ASSERT_TRUE(truth.ok());
  // The blob column has d = n/2 (the hard dictionary regime), so allow a
  // loose band; the recommendation itself is still correct.
  EXPECT_LT(std::max(rec->estimated_cf / truth->value,
                     truth->value / rec->estimated_cf),
            1.6);
}

TEST(RecommendSchemeTest, RestrictedCandidatePool) {
  auto table = MixedWorkload(5000);
  SampleCFOptions options;
  options.fraction = 0.1;
  Random rng(17);
  auto rec = RecommendScheme(*table, {"cx", {"key"}, true},
                             {CompressionType::kNullSuppression}, options,
                             &rng);
  ASSERT_TRUE(rec.ok());
  for (const auto& col : rec->columns) {
    EXPECT_TRUE(col.best == CompressionType::kNullSuppression ||
                col.best == CompressionType::kNone)
        << CompressionTypeName(col.best);
  }
}

TEST(RecommendSchemeTest, PropagatesErrors) {
  auto table = MixedWorkload(100);
  SampleCFOptions options;
  options.fraction = 0.0;  // invalid
  Random rng(1);
  EXPECT_FALSE(
      RecommendScheme(*table, {"cx", {"key"}, true}, {}, options, &rng).ok());
  options.fraction = 0.1;
  EXPECT_FALSE(
      RecommendScheme(*table, {"cx", {"missing"}, true}, {}, options, &rng)
          .ok());
}

// ---------------------------------------------------------------------------
// HybridDictionaryCF
// ---------------------------------------------------------------------------

TEST(HybridTest, BeatsPlainSampleCFInTheHardRegime) {
  // d = 5000 over n = 100000 is E9's hard middle ground where SampleCF's
  // implicit scale-up overshoots by ~4x; the GEE correction must cut it.
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 20, 5000, FrequencySpec::Uniform(),
                          LengthSpec::Full())},
      100000, 21);
  ASSERT_TRUE(table_result.ok());
  auto truth = ComputeTrueCF(
      **table_result, {"cx", {"a"}, true},
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal));
  ASSERT_TRUE(truth.ok());

  HybridCFOptions options;
  options.base.fraction = 0.01;
  double hybrid_err = 0.0, plain_err = 0.0;
  const int kTrials = 10;
  Random rng(3);
  for (int t = 0; t < kTrials; ++t) {
    Random trial = rng.Fork();
    auto result = HybridDictionaryCF(
        **table_result, {"cx", {"a"}, true},
        CompressionScheme::Uniform(CompressionType::kDictionaryGlobal),
        options, &trial);
    ASSERT_TRUE(result.ok()) << result.status();
    hybrid_err += RatioError(truth->value, result->estimate);
    plain_err += RatioError(truth->value, result->plain.cf.value);
    ASSERT_EQ(result->column_dv_estimates.size(), 1u);
  }
  hybrid_err /= kTrials;
  plain_err /= kTrials;
  EXPECT_GT(plain_err, 2.0);    // SampleCF struggles here (E9)
  EXPECT_LT(hybrid_err, 1.5);   // the DV correction fixes most of it
  EXPECT_LT(hybrid_err, plain_err);
}

TEST(HybridTest, AgreesWithPlainWhenDIsSmall) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 20, 10, FrequencySpec::Uniform(),
                          LengthSpec::Full())},
      20000, 23);
  ASSERT_TRUE(table_result.ok());
  HybridCFOptions options;
  options.base.fraction = 0.05;
  Random rng(5);
  auto result = HybridDictionaryCF(
      **table_result, {"cx", {"a"}, true},
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal), options,
      &rng);
  ASSERT_TRUE(result.ok());
  // Small d: both see all values; the estimates nearly coincide.
  EXPECT_NEAR(result->estimate, result->plain.cf.value, 0.03);
}

TEST(HybridTest, RejectsNonGlobalSchemes) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 8, 5)}, 100, 1);
  ASSERT_TRUE(table_result.ok());
  HybridCFOptions options;
  Random rng(1);
  EXPECT_TRUE(HybridDictionaryCF(
                  **table_result, {"cx", {"a"}, true},
                  CompressionScheme::Uniform(CompressionType::kDictionaryPage),
                  options, &rng)
                  .status()
                  .IsNotSupported());
}

// ---------------------------------------------------------------------------
// ProfileColumn / ProfileTable
// ---------------------------------------------------------------------------

TEST(ColumnProfileTest, ExactStatisticsOnConstructedColumn) {
  Schema schema =
      std::move(Schema::Make({{"s", CharType(10)}})).ValueOrDie();
  TableBuilder builder(schema);
  for (const char* v : {"aa", "aa", "aa", "bbbb", "cccccc"}) {
    ASSERT_TRUE(builder.Append({Value::Str(v)}).ok());
  }
  auto table = builder.Finish();
  auto profile = ProfileColumn(*table, 0, /*top_k=*/2);
  ASSERT_TRUE(profile.ok()) << profile.status();
  EXPECT_EQ(profile->stats.n, 5u);
  EXPECT_EQ(profile->stats.d, 3u);
  EXPECT_EQ(profile->stats.sum_lengths, 2u * 3 + 4 + 6);
  EXPECT_EQ(profile->lengths.min_length, 2u);
  EXPECT_EQ(profile->lengths.max_length, 6u);
  EXPECT_DOUBLE_EQ(profile->lengths.mean_length, 16.0 / 5.0);
  ASSERT_EQ(profile->top_values.size(), 2u);
  EXPECT_EQ(profile->top_values[0].value, "aa");
  EXPECT_EQ(profile->top_values[0].count, 3u);
  // Predictions match the closed forms.
  EXPECT_DOUBLE_EQ(profile->predicted_ns_cf, (16.0 + 5.0) / 50.0);
  EXPECT_DOUBLE_EQ(profile->predicted_dict_cf, 4.0 / 10.0 + 3.0 / 5.0);
  // Histogram covers every row.
  uint64_t total = 0;
  for (uint64_t b : profile->lengths.buckets) total += b;
  EXPECT_EQ(total, 5u);
}

TEST(ColumnProfileTest, IntegerDisplayDecoded) {
  Schema schema =
      std::move(Schema::Make({{"v", Int64Type()}})).ValueOrDie();
  TableBuilder builder(schema);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(builder.Append({Value::Int(1234)}).ok());
  }
  auto table = builder.Finish();
  auto profile = ProfileColumn(*table, 0);
  ASSERT_TRUE(profile.ok());
  ASSERT_FALSE(profile->top_values.empty());
  EXPECT_EQ(profile->top_values[0].value, "1234");
}

TEST(ColumnProfileTest, ProfileTableCoversAllColumns) {
  auto table = MixedWorkload(500);
  auto profiles = ProfileTable(*table);
  ASSERT_TRUE(profiles.ok());
  ASSERT_EQ(profiles->size(), 3u);
  EXPECT_EQ((*profiles)[0].name, "key");
  EXPECT_EQ((*profiles)[0].stats.d, 500u);  // unique keys
  EXPECT_EQ((*profiles)[1].stats.d, 4u);    // status domain
}

TEST(ColumnProfileTest, Validation) {
  auto table = MixedWorkload(10);
  EXPECT_TRUE(ProfileColumn(*table, 99).status().IsOutOfRange());
  EXPECT_FALSE(ProfileColumn(*table, 0, 5, 0).ok());
}

// ---------------------------------------------------------------------------
// Per-column stats (the plumbing RecommendScheme relies on)
// ---------------------------------------------------------------------------

TEST(PerColumnStatsTest, ColumnBytesSumToChunkBytes) {
  auto table = MixedWorkload(3000);
  IndexBuildOptions build;
  build.keep_pages = false;
  auto index = Index::Build(*table, {"cx", {"key"}, true}, build);
  ASSERT_TRUE(index.ok());
  CompressionScheme scheme;
  scheme.per_column = {CompressionType::kDelta,
                       CompressionType::kDictionaryPage,
                       CompressionType::kNullSuppression};
  auto compressed = index->Compress(scheme, build);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  const CompressedIndexStats& stats = compressed->stats();
  ASSERT_EQ(stats.columns.size(), 3u);
  uint64_t sum = 0;
  for (const auto& col : stats.columns) sum += col.chunk_bytes;
  EXPECT_EQ(sum, stats.chunk_bytes);
  EXPECT_EQ(stats.columns[0].type, CompressionType::kDelta);
  EXPECT_EQ(stats.columns[1].type, CompressionType::kDictionaryPage);
  EXPECT_GT(stats.columns[1].dictionary_entries, 0u);
  EXPECT_EQ(stats.columns[0].aux_bytes, 0u);
}

}  // namespace
}  // namespace cfest
