// Tests for the estimator core: the Table I analytic models, the SampleCF
// pipeline (Fig. 2), Theorem 1's unbiasedness + variance bound, the
// dictionary-compression regimes of Theorems 2 and 3, distinct-value
// baselines, and the Monte-Carlo harness.

#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/table_gen.h"
#include "estimator/analytic_model.h"
#include "estimator/compression_fraction.h"
#include "estimator/distinct_value.h"
#include "estimator/sample_cf.h"
#include "repro/evaluation.h"

namespace cfest {
namespace {

/// Single char(k) column table from explicit values.
std::unique_ptr<Table> CharTable(const std::vector<std::string>& values,
                                 uint32_t k) {
  Schema schema =
      std::move(Schema::Make({{"a", CharType(k)}})).ValueOrDie();
  TableBuilder builder(schema);
  for (const std::string& v : values) {
    EXPECT_TRUE(builder.Append({Value::Str(v)}).ok());
  }
  return builder.Finish();
}

IndexDescriptor NonClusteredOnA() { return {"ix_a", {"a"}, false}; }
/// Single-column "index on A" exactly as the paper's analysis assumes: the
/// index row is just the column.
IndexDescriptor ClusteredOnA() { return {"cx_a", {"a"}, true}; }

// ---------------------------------------------------------------------------
// AnalyzeColumn / analytic models
// ---------------------------------------------------------------------------

TEST(AnalyzeColumnTest, ExactCounts) {
  auto table = CharTable({"abc", "abc", "x", "", "abcdefghij"}, 10);
  Result<ColumnPopulationStats> stats = AnalyzeColumn(*table, 0);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->n, 5u);
  EXPECT_EQ(stats->d, 4u);
  EXPECT_EQ(stats->sum_lengths, 3u + 3u + 1u + 0u + 10u);
  EXPECT_EQ(stats->k, 10u);
  EXPECT_EQ(stats->length_header, 1u);
  EXPECT_TRUE(AnalyzeColumn(*table, 5).status().IsOutOfRange());
}

TEST(AnalyticModelTest, NsClosedForm) {
  // CF_NS = sum(l_i + 1) / (n k): (4+4+2+1+11) / 50 = 0.44.
  ColumnPopulationStats stats{5, 4, 17, 10, 1};
  EXPECT_DOUBLE_EQ(AnalyticNsCF(stats), 22.0 / 50.0);
  // Degenerate inputs fall back to 1.
  EXPECT_DOUBLE_EQ(AnalyticNsCF({0, 0, 0, 10, 1}), 1.0);
}

TEST(AnalyticModelTest, GlobalDictClosedForm) {
  // CF_DC = p/k + d/n.
  ColumnPopulationStats stats{1000, 50, 0, 20, 1};
  EXPECT_DOUBLE_EQ(AnalyticGlobalDictCF(stats, 4), 4.0 / 20.0 + 50.0 / 1000.0);
}

TEST(AnalyticModelTest, PagedDictClosedForm) {
  ColumnPopulationStats stats{1000, 50, 0, 20, 1};
  // 3-bit pointers, 120 page-dictionary incidences.
  const double cf = AnalyticPagedDictCF(stats, 3.0, 120);
  EXPECT_DOUBLE_EQ(cf, (1000.0 * 3.0 / 8.0 + 20.0 * 120.0) / 20000.0);
}

TEST(AnalyticModelTest, Theorem1Bound) {
  EXPECT_DOUBLE_EQ(Theorem1StdDevBound(1000000), 1.0 / 2000.0);  // Example 1
  EXPECT_DOUBLE_EQ(Theorem1StdDevBound(100), 0.05);
  EXPECT_DOUBLE_EQ(Theorem1StdDevBound(0), 1.0);
}

TEST(AnalyticModelTest, Theorem1ConfidenceInterval) {
  // r = 100 -> sigma bound 0.05; 2 sigmas -> +-0.10.
  ConfidenceInterval ci = Theorem1ConfidenceInterval(0.45, 100, 2.0);
  EXPECT_DOUBLE_EQ(ci.lower, 0.35);
  EXPECT_DOUBLE_EQ(ci.upper, 0.55);
  // Clamped at zero for small estimates.
  ConfidenceInterval clamped = Theorem1ConfidenceInterval(0.03, 100, 2.0);
  EXPECT_DOUBLE_EQ(clamped.lower, 0.0);
  EXPECT_DOUBLE_EQ(clamped.upper, 0.13);
}

TEST(AnalyticModelTest, SampleSizeForHalfWidth) {
  // Inverse of the bound: half width 0.10 at 2 sigmas -> r = 100.
  EXPECT_EQ(SampleSizeForHalfWidth(0.10, 2.0), 100u);
  // Example 1 backwards: +-0.001 at 2 sigmas needs r = 1e6.
  EXPECT_EQ(SampleSizeForHalfWidth(0.001, 2.0), 1000000u);
  EXPECT_EQ(SampleSizeForHalfWidth(0.0), 0u);
  // Round trip: the returned r actually achieves the width.
  const uint64_t r = SampleSizeForHalfWidth(0.013, 2.0);
  EXPECT_LE(2.0 * Theorem1StdDevBound(r), 0.013);
  EXPECT_GT(2.0 * Theorem1StdDevBound(r - 1), 0.013);
}

// The constructive NS compressor must reproduce the analytic closed form on
// the data-bytes metric (modulo per-page chunk framing).
TEST(AnalyticVsConstructiveTest, NsMatchesClosedForm) {
  Random rng(1);
  std::vector<std::string> values;
  for (int i = 0; i < 5000; ++i) {
    values.push_back(std::string(1 + rng.NextBounded(15), 'a' + i % 26));
  }
  auto table = CharTable(values, 16);
  Result<ColumnPopulationStats> stats = AnalyzeColumn(*table, 0);
  ASSERT_TRUE(stats.ok());
  Result<CompressionFraction> cf = ComputeTrueCF(
      *table, ClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kNullSuppression));
  ASSERT_TRUE(cf.ok());
  // Framing: 2 bytes per page-chunk on ~90 pages of 80 KB data -> < 0.3%.
  EXPECT_NEAR(cf->value, AnalyticNsCF(*stats), 0.003);
}

TEST(AnalyticVsConstructiveTest, GlobalDictMatchesClosedForm) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 16, 200, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(2, 14))},
      20000, 3);
  ASSERT_TRUE(table_result.ok());
  const Table& table = **table_result;
  Result<ColumnPopulationStats> stats = AnalyzeColumn(table, 0);
  ASSERT_TRUE(stats.ok());
  CompressionOptions options;
  options.global_pointer_bytes = 4;
  Result<CompressionFraction> cf = ComputeTrueCF(
      table, ClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal,
                                 options));
  ASSERT_TRUE(cf.ok());
  EXPECT_NEAR(cf->value, AnalyticGlobalDictCF(*stats, 4), 0.003);
}

// ---------------------------------------------------------------------------
// MeasureCF metrics
// ---------------------------------------------------------------------------

TEST(MeasureCFTest, MetricsAreConsistent) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 20, 100, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(1, 10))},
      5000, 9);
  ASSERT_TRUE(table_result.ok());
  for (SizeMetric metric :
       {SizeMetric::kDataBytes, SizeMetric::kUsedBytes,
        SizeMetric::kPageBytes}) {
    Result<CompressionFraction> cf = ComputeTrueCF(
        **table_result, ClusteredOnA(),
        CompressionScheme::Uniform(CompressionType::kNullSuppression), metric);
    ASSERT_TRUE(cf.ok());
    EXPECT_GT(cf->value, 0.0) << SizeMetricName(metric);
    EXPECT_LT(cf->value, 1.0) << SizeMetricName(metric);
    EXPECT_EQ(cf->metric, metric);
    EXPECT_GT(cf->compressed_bytes, 0u);
    EXPECT_GT(cf->uncompressed_bytes, cf->compressed_bytes);
  }
}

TEST(MeasureCFTest, NoneCompressionHasCFNearOne) {
  auto table = CharTable(std::vector<std::string>(500, "full-width-12"), 13);
  Result<CompressionFraction> cf =
      ComputeTrueCF(*table, ClusteredOnA(),
                    CompressionScheme::Uniform(CompressionType::kNone));
  ASSERT_TRUE(cf.ok());
  EXPECT_NEAR(cf->value, 1.0, 0.01);  // only chunk framing above 1.0 * data
}

// ---------------------------------------------------------------------------
// SampleCF pipeline
// ---------------------------------------------------------------------------

TEST(SampleCFTest, RunsAndReportsSampleSize) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 20, 50, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(1, 18))},
      10000, 21);
  ASSERT_TRUE(table_result.ok());
  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(77);
  Result<SampleCFResult> result =
      SampleCF(**table_result, ClusteredOnA(),
               CompressionScheme::Uniform(CompressionType::kNullSuppression),
               options, &rng);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_EQ(result->sample_rows, 500u);
  EXPECT_GT(result->cf.value, 0.0);
  EXPECT_LT(result->cf.value, 1.0);
  EXPECT_EQ(result->sample_uncompressed.row_count, 500u);
  EXPECT_EQ(result->sample_compressed.row_count, 500u);
}

TEST(SampleCFTest, DeterministicGivenRngState) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 12, 30)}, 2000, 5);
  ASSERT_TRUE(table_result.ok());
  SampleCFOptions options;
  options.fraction = 0.1;
  Random rng1(123), rng2(123);
  auto a = SampleCF(**table_result, NonClusteredOnA(),
                    CompressionScheme::Uniform(CompressionType::kDictionaryPage),
                    options, &rng1);
  auto b = SampleCF(**table_result, NonClusteredOnA(),
                    CompressionScheme::Uniform(CompressionType::kDictionaryPage),
                    options, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->cf.value, b->cf.value);
}

TEST(SampleCFTest, HonorsCustomSampler) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 12, 30)}, 2000, 5);
  ASSERT_TRUE(table_result.ok());
  auto block_sampler = MakeBlockSampler(100);
  SampleCFOptions options;
  options.fraction = 0.1;
  options.sampler = block_sampler.get();
  Random rng(9);
  auto result = SampleCF(
      **table_result, NonClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kNullSuppression), options,
      &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sample_rows % 100, 0u);  // whole blocks
}

TEST(SampleCFTest, PropagatesInvalidFraction) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 12, 30)}, 100, 5);
  ASSERT_TRUE(table_result.ok());
  SampleCFOptions options;
  options.fraction = 0.0;
  Random rng(1);
  EXPECT_FALSE(SampleCF(**table_result, NonClusteredOnA(),
                        CompressionScheme::Uniform(CompressionType::kNone),
                        options, &rng)
                   .ok());
}

// ---------------------------------------------------------------------------
// Theorem 1: CF'_NS is unbiased with stddev <= 1/(2 sqrt(r))
// ---------------------------------------------------------------------------

class Theorem1Test : public ::testing::TestWithParam<LengthSpec> {};

TEST_P(Theorem1Test, UnbiasedAndWithinVarianceBound) {
  const uint32_t k = 20;
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", k, 2000, FrequencySpec::Uniform(), GetParam())},
      20000, 31);
  ASSERT_TRUE(table_result.ok());
  EvaluationOptions options;
  options.fraction = 0.02;  // r = 400
  options.trials = 300;
  options.seed = 17;
  Result<EvaluationResult> eval = EvaluateSampleCF(
      **table_result, ClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kNullSuppression), options);
  ASSERT_TRUE(eval.ok()) << eval.status();

  const double bound = Theorem1StdDevBound(400);
  // Measured spread honours the bound (chunk framing adds < 1% slack).
  EXPECT_LE(eval->estimate_summary.stddev, bound * 1.05);
  // Unbiased: the mean of 300 trials lies within 4 standard errors.
  const double stderr_bound = bound / std::sqrt(300.0);
  EXPECT_NEAR(eval->bias, 0.0, 4.0 * stderr_bound + 0.003);
  EXPECT_DOUBLE_EQ(eval->theorem1_bound, bound);
}

INSTANTIATE_TEST_SUITE_P(
    LengthDistributions, Theorem1Test,
    ::testing::Values(LengthSpec::Uniform(1, 20), LengthSpec::Constant(5),
                      LengthSpec::Bimodal(1, 20), LengthSpec::Full()),
    [](const auto& info) {
      switch (info.param.kind) {
        case LengthSpec::Kind::kConstant:
          return std::string("constant");
        case LengthSpec::Kind::kUniform:
          return std::string("uniform");
        case LengthSpec::Kind::kBimodal:
          return std::string("bimodal");
        case LengthSpec::Kind::kFull:
          return std::string("full");
      }
      return std::string("other");
    });

// ---------------------------------------------------------------------------
// Theorems 2 and 3: dictionary compression regimes
// ---------------------------------------------------------------------------

TEST(Theorem2Test, SmallDRatioErrorShrinksTowardOneAsNGrows) {
  // Theorem 2: with d fixed (d = o(n)) and a constant sampling fraction, the
  // p/k term dominates as n grows, so the expected ratio error tends to 1.
  // The sample still overstates d'/r relative to d/n, which is why the error
  // is visible at small n and vanishes as n grows.
  auto run = [&](uint64_t n) {
    auto table_result = GenerateTable(
        {ColumnSpec::String("a", 20, 20, FrequencySpec::Uniform(),
                            LengthSpec::Full())},
        n, 41);
    EXPECT_TRUE(table_result.ok());
    EvaluationOptions options;
    options.fraction = 0.05;
    options.trials = 20;
    Result<EvaluationResult> eval = EvaluateSampleCF(
        **table_result, ClusteredOnA(),
        CompressionScheme::Uniform(CompressionType::kDictionaryGlobal),
        options);
    EXPECT_TRUE(eval.ok());
    return eval->mean_ratio_error;
  };
  const double err_small_n = run(5000);
  const double err_large_n = run(50000);
  EXPECT_LT(err_large_n, err_small_n);
  EXPECT_LT(err_large_n, 1.06);
  EXPECT_GE(err_large_n, 1.0);
}

TEST(Theorem3Test, LargeDYieldsBoundedConstantRatioError) {
  // d = n/2: the sample's distinct fraction is also Theta(1), so the ratio
  // error is bounded by a constant (CF'(p/k + d'/r) vs CF(p/k + d/n)).
  const uint64_t n = 20000;
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 20, n / 2, FrequencySpec::Uniform(),
                          LengthSpec::Full())},
      n, 43);
  ASSERT_TRUE(table_result.ok());
  EvaluationOptions options;
  options.fraction = 0.05;
  options.trials = 30;
  Result<EvaluationResult> eval = EvaluateSampleCF(
      **table_result, ClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal), options);
  ASSERT_TRUE(eval.ok());
  // The estimator is biased here (Table II) but the error stays bounded:
  // worst case for d = n/2, f = 5% is well under 2x.
  EXPECT_GT(eval->mean_ratio_error, 1.0);
  EXPECT_LT(eval->mean_ratio_error, 2.0);
}

TEST(DictionaryBiasTest, SampleCFUnderestimatesDictionarySize) {
  // Table II: for dictionary compression SampleCF is biased — the sample
  // sees d'/r <= expected d/n ... actually d'/r overestimates d/n for small
  // d but underestimates for d close to n. Verify bias is nonzero and in the
  // documented direction for the d = n case (every value distinct).
  const uint64_t n = 10000;
  auto table_result = GenerateTable(
      {ColumnSpec::Integer("a", 0)}, n, 47);
  ASSERT_TRUE(table_result.ok());
  EvaluationOptions options;
  options.fraction = 0.02;
  options.trials = 20;
  Result<EvaluationResult> eval = EvaluateSampleCF(
      **table_result, NonClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kDictionaryGlobal), options);
  ASSERT_TRUE(eval.ok());
  // With all values distinct, a WR sample still sees d'/r near 1, so CF' is
  // close to CF; the residual bias comes from WR collisions. It must be
  // negative (underestimate) and small.
  EXPECT_LT(eval->bias, 0.0);
  EXPECT_GT(eval->bias, -0.05);
}

// ---------------------------------------------------------------------------
// Distinct-value estimators
// ---------------------------------------------------------------------------

SampleFrequencyProfile ProfileFromCounts(
    const std::vector<uint64_t>& value_counts) {
  SampleFrequencyProfile profile;
  for (uint64_t c : value_counts) {
    profile.sample_rows += c;
    profile.freq_counts[c]++;
    profile.distinct_in_sample++;
  }
  return profile;
}

TEST(DvEstimatorTest, ProfileFromSampleTable) {
  auto table = CharTable({"a", "a", "b", "c", "c", "c"}, 4);
  Result<SampleFrequencyProfile> profile = BuildFrequencyProfile(*table, 0);
  ASSERT_TRUE(profile.ok());
  EXPECT_EQ(profile->sample_rows, 6u);
  EXPECT_EQ(profile->distinct_in_sample, 3u);
  EXPECT_EQ(profile->f(1), 1u);  // "b"
  EXPECT_EQ(profile->f(2), 1u);  // "a"
  EXPECT_EQ(profile->f(3), 1u);  // "c"
  EXPECT_EQ(profile->f(4), 0u);
  EXPECT_TRUE(BuildFrequencyProfile(*table, 3).status().IsOutOfRange());
}

TEST(DvEstimatorTest, NaiveAndScaleUp) {
  SampleFrequencyProfile profile = ProfileFromCounts({1, 1, 2, 4});  // r=8 d'=4
  EXPECT_DOUBLE_EQ(EstimateDistinct(DvEstimator::kNaive, profile, 800), 4.0);
  EXPECT_DOUBLE_EQ(EstimateDistinct(DvEstimator::kScaleUp, profile, 800),
                   4.0 * 100.0);
}

TEST(DvEstimatorTest, Chao84Formula) {
  // f1 = 2, f2 = 1 -> d' + f1^2/(2 f2) = 4 + 2.
  SampleFrequencyProfile profile = ProfileFromCounts({1, 1, 2, 2, 3});
  // d'=5, f1=2, f2=2: 5 + 4/4 = 6.
  EXPECT_DOUBLE_EQ(EstimateDistinct(DvEstimator::kChao84, profile, 1000), 6.0);
}

TEST(DvEstimatorTest, GeeFormula) {
  // GEE = sqrt(n/r) f1 + sum_{j>=2} f_j.
  SampleFrequencyProfile profile = ProfileFromCounts({1, 1, 2, 5});  // r=9
  const double expected = std::sqrt(900.0 / 9.0) * 2.0 + 2.0;
  EXPECT_DOUBLE_EQ(EstimateDistinct(DvEstimator::kGee, profile, 900),
                   expected);
}

TEST(DvEstimatorTest, ClampedToValidRange) {
  SampleFrequencyProfile all_singletons = ProfileFromCounts({1, 1, 1, 1});
  // Chao84 with f2 = 0 falls back to d' + f1(f1-1)/2 = 10 > n = 6 -> clamp.
  EXPECT_DOUBLE_EQ(EstimateDistinct(DvEstimator::kChao84, all_singletons, 6),
                   6.0);
  // Estimates never fall below d'.
  for (DvEstimator est : AllDvEstimators()) {
    EXPECT_GE(EstimateDistinct(est, all_singletons, 1000), 4.0)
        << DvEstimatorName(est);
  }
}

TEST(DvEstimatorTest, ShlosserReasonableOnUniformData) {
  // Uniform data, d = 100, n = 10000, 5% sample: Shlosser should land within
  // a factor of 2 of the truth.
  auto table_result =
      GenerateTable({ColumnSpec::Integer("a", 100)}, 10000, 53);
  ASSERT_TRUE(table_result.ok());
  auto sampler = MakeUniformWithReplacementSampler();
  Random rng(3);
  auto sample = sampler->Sample(**table_result, 0.05, &rng);
  ASSERT_TRUE(sample.ok());
  Result<SampleFrequencyProfile> profile = BuildFrequencyProfile(**sample, 0);
  ASSERT_TRUE(profile.ok());
  const double est =
      EstimateDistinct(DvEstimator::kShlosser, *profile, 10000);
  EXPECT_GT(est, 50.0);
  EXPECT_LT(est, 200.0);
}

TEST(DvEstimatorTest, DictCfFromEstimate) {
  EXPECT_DOUBLE_EQ(DictCFFromDvEstimate(100.0, 1000, 4, 20),
                   0.2 + 0.1);
  EXPECT_DOUBLE_EQ(DictCFFromDvEstimate(100.0, 0, 4, 20), 1.0);
}

TEST(DvEstimatorTest, NamesAreUnique) {
  std::set<std::string> names;
  for (DvEstimator est : AllDvEstimators()) {
    EXPECT_TRUE(names.insert(DvEstimatorName(est)).second);
  }
  EXPECT_EQ(names.size(), 5u);
}

// ---------------------------------------------------------------------------
// Evaluation harness
// ---------------------------------------------------------------------------

TEST(EvaluationTest, FieldsPopulatedAndInternallyConsistent) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 16, 40, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(1, 12))},
      4000, 59);
  ASSERT_TRUE(table_result.ok());
  EvaluationOptions options;
  options.fraction = 0.05;
  options.trials = 25;
  Result<EvaluationResult> eval = EvaluateSampleCF(
      **table_result, ClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kNullSuppression), options);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval->estimates.size(), 25u);
  EXPECT_EQ(eval->estimate_summary.count, 25u);
  EXPECT_GE(eval->mean_ratio_error, 1.0);
  EXPECT_GE(eval->max_ratio_error, eval->mean_ratio_error);
  EXPECT_NEAR(eval->bias, eval->estimate_summary.mean - eval->truth.value,
              1e-12);
  EXPECT_NEAR(eval->mean_sample_rows, 200.0, 0.5);
  EXPECT_TRUE(eval->truth.value > 0.0 && eval->truth.value <= 1.1);
}

TEST(EvaluationTest, RejectsZeroTrials) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 16, 40)}, 100, 1);
  ASSERT_TRUE(table_result.ok());
  EvaluationOptions options;
  options.trials = 0;
  EXPECT_FALSE(EvaluateSampleCF(
                   **table_result, ClusteredOnA(),
                   CompressionScheme::Uniform(CompressionType::kNone), options)
                   .ok());
}

TEST(EvaluationTest, DeterministicInSeed) {
  auto table_result = GenerateTable(
      {ColumnSpec::String("a", 16, 40)}, 1000, 2);
  ASSERT_TRUE(table_result.ok());
  EvaluationOptions options;
  options.fraction = 0.1;
  options.trials = 5;
  options.seed = 1234;
  auto a = EvaluateSampleCF(
      **table_result, ClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kNullSuppression), options);
  auto b = EvaluateSampleCF(
      **table_result, ClusteredOnA(),
      CompressionScheme::Uniform(CompressionType::kNullSuppression), options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->estimates, b->estimates);
}

}  // namespace
}  // namespace cfest
