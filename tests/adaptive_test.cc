// Tests for the adaptive estimation stack: confidence-interval coverage of
// the analytic-model intervals (Theorem 1 and the empirical variant) across
// generated distributions, RNG-stream-resuming sample growth (prefix
// equality with a fresh draw, incremental index extension, reservoir
// replay), the AdaptiveEstimator loop (convergence, budget exhaustion,
// bit-equality with a fixed-fraction run at each candidate's final
// fraction), and the interval determinism gate (every pool and thread
// count reproduces the serial replicate reference bit for bit).

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "common/random.h"
#include "common/stats.h"
#include "common/thread_pool.h"
#include "datagen/table_gen.h"
#include "estimator/adaptive.h"
#include "estimator/analytic_model.h"
#include "estimator/compression_fraction.h"
#include "estimator/engine.h"
#include "estimator/service.h"
#include "index/index.h"
#include "sampling/sampler.h"
#include "storage/catalog.h"
#include "storage/row_codec.h"
#include "storage/table_view.h"

namespace cfest {
namespace {

std::unique_ptr<Table> WorkloadTable(uint64_t rows = 20000, uint64_t seed = 7) {
  auto table = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::String("city", 24, 50, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(4, 20)),
       ColumnSpec::Integer("amount", 400)},
      rows, seed);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

CandidateConfiguration Candidate(const char* col, CompressionType type,
                                 const char* table_name = "") {
  CandidateConfiguration c;
  c.table_name = table_name;
  c.index = {std::string("ix_") + col + "_" + CompressionTypeName(type),
             {col},
             /*clustered=*/false};
  c.scheme = CompressionScheme::Uniform(type);
  c.benefit = 1.0;
  return c;
}

/// Pins the engine's current epoch, drawing the sample on first use.
std::shared_ptr<const SampleEpoch> Pin(EstimationEngine& engine) {
  auto epoch = engine.PinEpoch();
  EXPECT_TRUE(epoch.ok());
  return std::move(epoch).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Confidence helpers
// ---------------------------------------------------------------------------

TEST(AdaptiveMathTest, NumSigmasForConfidenceMatchesNormalQuantiles) {
  auto z95 = NumSigmasForConfidence(0.95);
  ASSERT_TRUE(z95.ok());
  EXPECT_NEAR(*z95, 1.95996, 1e-4);
  auto z68 = NumSigmasForConfidence(0.6826894921);
  ASSERT_TRUE(z68.ok());
  EXPECT_NEAR(*z68, 1.0, 1e-4);
  auto z99 = NumSigmasForConfidence(0.99);
  ASSERT_TRUE(z99.ok());
  EXPECT_NEAR(*z99, 2.57583, 1e-4);
  EXPECT_FALSE(NumSigmasForConfidence(0.0).ok());
  EXPECT_FALSE(NumSigmasForConfidence(1.0).ok());
}

TEST(AdaptiveMathTest, EstimateNeededSampleRowsFollowsInverseSquareLaw) {
  // Halving the width needs 4x the rows.
  EXPECT_EQ(EstimateNeededSampleRows(0.10, 100, 0.05), 400u);
  // Target already met: stay put.
  EXPECT_EQ(EstimateNeededSampleRows(0.04, 100, 0.05), 100u);
  EXPECT_EQ(EstimateNeededSampleRows(0.05, 100, 0.05), 100u);
  // Degenerate inputs.
  EXPECT_EQ(EstimateNeededSampleRows(0.1, 0, 0.05), 0u);
  EXPECT_EQ(EstimateNeededSampleRows(0.1, 100, 0.0), 100u);
}

// ---------------------------------------------------------------------------
// Statistical coverage of the analytic-model intervals
// ---------------------------------------------------------------------------

struct ColumnNsQuantities {
  double truth = 0.0;  // population mean of (l_i + h) / k
};

/// Mean normalized null-suppressed size of `col` over `table` — the
/// quantity both interval functions are centered on.
double MeanNormalizedNsSize(const Table& table, size_t col) {
  const DataType& type = table.schema().column(col).type;
  const double k = static_cast<double>(type.FixedWidth());
  const double h = static_cast<double>(LengthHeaderBytes(type));
  double sum = 0.0;
  for (RowId id = 0; id < table.num_rows(); ++id) {
    sum += (static_cast<double>(
                NullSuppressedLength(table.cell(id, col), type)) +
            h) /
           k;
  }
  return sum / static_cast<double>(table.num_rows());
}

void RunCoverage(const Table& table, const char* what) {
  constexpr int kTrials = 40;
  constexpr double kFraction = 0.05;
  const double truth = MeanNormalizedNsSize(table, 0);
  auto sampler = MakeUniformWithReplacementSampler();
  int theorem1_covered = 0;
  int empirical_covered = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    Random rng(1000 + trial);
    auto sample = sampler->Sample(table, kFraction, &rng);
    ASSERT_TRUE(sample.ok()) << what;
    const double estimate = MeanNormalizedNsSize(**sample, 0);
    const ConfidenceInterval t1 =
        Theorem1ConfidenceInterval(estimate, (*sample)->num_rows(), 2.0);
    if (t1.lower <= truth && truth <= t1.upper) ++theorem1_covered;
    auto empirical = EmpiricalNsConfidenceInterval(**sample, 0, estimate, 2.0);
    ASSERT_TRUE(empirical.ok()) << what;
    if (empirical->lower <= truth && truth <= empirical->upper) {
      ++empirical_covered;
    }
    // The data-dependent interval must never be wider than the worst-case
    // Theorem 1 bound (its variance is capped by 1/4 for values in [0,1]).
    EXPECT_LE(empirical->upper - empirical->lower,
              t1.upper - t1.lower + 1e-12)
        << what;
  }
  // Nominal two-sigma coverage is >= 75% by Chebyshev and ~95% under
  // normality. The thresholds sit above nominal but leave slack against
  // binomial noise (bimodal lengths make Theorem 1's worst-case variance
  // nearly tight, pushing its effective coverage toward the nominal rate).
  EXPECT_GE(theorem1_covered, 36) << what;
  EXPECT_GE(empirical_covered, 32) << what;
}

TEST(IntervalCoverageTest, UniformLengthStrings) {
  auto table = GenerateTable(
      {ColumnSpec::String("v", 16, 200, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(2, 14))},
      4000, 21);
  ASSERT_TRUE(table.ok());
  RunCoverage(**table, "uniform");
}

TEST(IntervalCoverageTest, ZipfStrings) {
  auto table = GenerateTable(
      {ColumnSpec::String("v", 16, 500, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(1, 15))},
      4000, 22);
  ASSERT_TRUE(table.ok());
  RunCoverage(**table, "zipf");
}

TEST(IntervalCoverageTest, BimodalStrings) {
  // Half-short / half-long lengths maximize the NS estimator's variance —
  // the case Theorem 1's worst-case 1/4 is tight for.
  auto table = GenerateTable(
      {ColumnSpec::String("v", 16, 300, FrequencySpec::Uniform(),
                          LengthSpec::Bimodal(1, 15))},
      4000, 23);
  ASSERT_TRUE(table.ok());
  RunCoverage(**table, "bimodal");
}

// ---------------------------------------------------------------------------
// Sample growth
// ---------------------------------------------------------------------------

TEST(GrowSampleTest, GrownSampleEqualsFreshDrawAtFinalFraction) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 17;

  EstimationEngine grown(*table, options);
  ASSERT_TRUE(grown.PinEpoch().ok());
  EXPECT_EQ(grown.sample_rows(), 200u);
  auto rows = grown.GrowSample(1500);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 1500u);

  EstimationEngineOptions fresh_options = options;
  fresh_options.base.fraction =
      1500.0 / static_cast<double>(table->num_rows());
  EstimationEngine fresh(*table, fresh_options);

  const std::shared_ptr<const SampleEpoch> grown_epoch = Pin(grown);
  const std::shared_ptr<const SampleEpoch> fresh_epoch = Pin(fresh);
  const Table& grown_sample = grown_epoch->sample();
  const Table& fresh_sample = fresh_epoch->sample();
  ASSERT_EQ(grown_sample.num_rows(), fresh_sample.num_rows());
  for (RowId i = 0; i < grown_sample.num_rows(); ++i) {
    Slice a = grown_sample.row(i);
    Slice b = fresh_sample.row(i);
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size())) << "row " << i;
  }

  // A target at or below the current size is a no-op; the cap is the table.
  EXPECT_EQ(*grown.GrowSample(100), 1500u);
  EXPECT_EQ(*grown.GrowSample(table->num_rows() * 10), table->num_rows());
}

TEST(GrowSampleTest, ExtendsCachedIndexesBitIdentically) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.02;
  options.seed = 5;

  EstimationEngine grown(*table, options);
  const IndexDescriptor desc{"ix", {"city"}, /*clustered=*/false};
  const IndexDescriptor skipped{"ix2", {"status", "amount"}, false};
  // Cache two builds pre-growth.
  ASSERT_TRUE(grown.SampleIndexAt(*Pin(grown), desc).ok());
  ASSERT_TRUE(grown.SampleIndexAt(*Pin(grown), skipped).ok());

  // Growth alone carries both keys but patches and builds nothing.
  ASSERT_TRUE(grown.GrowSample(1000).ok());
  EXPECT_EQ(grown.cache_stats().index_extensions, 0u);
  EXPECT_EQ(grown.cache_stats().index_builds, 2u);
  EXPECT_EQ(grown.cache_stats().invalidations, 0u);

  // The first read at the grown size patches the carried index.
  ASSERT_TRUE(grown.SampleIndexAt(*Pin(grown), desc).ok());
  EXPECT_EQ(grown.cache_stats().index_extensions, 1u);
  EXPECT_EQ(grown.cache_stats().index_builds, 2u);

  // A second growth carries only what was read at 1000 rows: `skipped` is
  // dropped (one invalidation) and its next read builds it.
  ASSERT_TRUE(grown.GrowSample(2000).ok());
  EXPECT_EQ(grown.cache_stats().invalidations, 1u);
  auto extended = grown.SampleIndexAt(*Pin(grown), desc);
  auto skipped_rebuilt = grown.SampleIndexAt(*Pin(grown), skipped);
  ASSERT_TRUE(extended.ok());
  ASSERT_TRUE(skipped_rebuilt.ok());
  EXPECT_EQ(grown.cache_stats().index_extensions, 2u);
  EXPECT_EQ(grown.cache_stats().index_builds, 3u);

  EstimationEngineOptions fresh_options = options;
  fresh_options.base.fraction =
      2000.0 / static_cast<double>(table->num_rows());
  EstimationEngine fresh(*table, fresh_options);
  const auto expect_same = [](const Index& served, const Index& built) {
    ASSERT_EQ(served.num_rows(), built.num_rows());
    EXPECT_EQ(served.stats().leaf_pages, built.stats().leaf_pages);
    EXPECT_EQ(served.stats().leaf_used_bytes, built.stats().leaf_used_bytes);
    for (uint64_t i = 0; i < served.num_rows(); ++i) {
      Slice a = served.row(i);
      Slice b = built.row(i);
      ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size())) << "row " << i;
    }
  };
  auto rebuilt = fresh.SampleIndexAt(*Pin(fresh), desc);
  auto skipped_fresh = fresh.SampleIndexAt(*Pin(fresh), skipped);
  ASSERT_TRUE(rebuilt.ok());
  ASSERT_TRUE(skipped_fresh.ok());
  expect_same(**extended, **rebuilt);
  expect_same(**skipped_rebuilt, **skipped_fresh);

  // Estimates off the extended index equal the fresh engine's bitwise.
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryPage);
  auto grown_cf = grown.EstimateCFAt(*Pin(grown), desc, scheme);
  auto fresh_cf = fresh.EstimateCFAt(*Pin(fresh), desc, scheme);
  ASSERT_TRUE(grown_cf.ok());
  ASSERT_TRUE(fresh_cf.ok());
  EXPECT_EQ(grown_cf->cf.value, fresh_cf->cf.value);
}

TEST(GrowSampleTest, ReservoirGrowthEqualsFreshDrawAtNewCapacity) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.01;
  options.seed = 11;
  options.maintain_reservoir = true;
  options.reservoir_capacity = 150;

  EstimationEngine grown(*table, options);
  const IndexDescriptor desc{"ix", {"status"}, false};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kRle);
  ASSERT_TRUE(grown.EstimateCFAt(*Pin(grown), desc, scheme).ok());
  auto rows = grown.GrowSample(600);
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(*rows, 600u);

  EstimationEngineOptions fresh_options = options;
  fresh_options.reservoir_capacity = 600;
  EstimationEngine fresh(*table, fresh_options);

  auto grown_cf = grown.EstimateCFAt(*Pin(grown), desc, scheme);
  auto fresh_cf = fresh.EstimateCFAt(*Pin(fresh), desc, scheme);
  ASSERT_TRUE(grown_cf.ok());
  ASSERT_TRUE(fresh_cf.ok());
  EXPECT_EQ(grown_cf->cf.value, fresh_cf->cf.value);
  EXPECT_EQ(grown_cf->sample_rows, 600u);
}

TEST(GrowSampleTest, RejectsExternalRngAndCustomSamplers) {
  auto table = WorkloadTable();
  {
    Random rng(3);
    EstimationEngineOptions options;
    options.base.fraction = 0.01;
    options.rng = &rng;
    EstimationEngine engine(*table, options);
    EXPECT_FALSE(engine.GrowSample(500).ok());
  }
  {
    auto sampler = MakeBlockSampler();
    EstimationEngineOptions options;
    options.base.fraction = 0.01;
    options.base.sampler = sampler.get();
    EstimationEngine engine(*table, options);
    EXPECT_FALSE(engine.GrowSample(500).ok());
  }
}

// ---------------------------------------------------------------------------
// AdaptiveEstimator
// ---------------------------------------------------------------------------

std::vector<CandidateConfiguration> AdaptiveWorkload() {
  return {Candidate("status", CompressionType::kRle, "t"),
          Candidate("city", CompressionType::kDictionaryPage, "t"),
          Candidate("status", CompressionType::kNullSuppression, "t"),
          Candidate("city", CompressionType::kNone, "t")};
}

/// A standalone table is a one-table catalog: registers the workload table
/// as "t" (the AdaptiveWorkload table name) and returns it.
const Table& AddWorkloadTable(Catalog* catalog) {
  EXPECT_TRUE(catalog->AddTable("t", WorkloadTable()).ok());
  return *catalog->GetTable("t").ValueOrDie();
}

/// Service options of the single-table adaptive tests: a small base
/// fraction, a fixed seed, and a serial fan-out.
CatalogEstimationServiceOptions SerialServiceOptions(double fraction) {
  CatalogEstimationServiceOptions options;
  options.base.fraction = fraction;
  options.seed = 42;
  options.num_threads = 1;
  return options;
}

TEST(AdaptiveEstimatorTest, ConvergesWithinTargetAndBudget) {
  Catalog catalog;
  AddWorkloadTable(&catalog);
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005));

  PrecisionTarget target;
  target.rel_error = 0.10;
  target.confidence = 0.90;
  auto result = EstimateAllAdaptive(service, AdaptiveWorkload(), target);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 4u);
  EXPECT_FALSE(result->budget_exhausted);
  ASSERT_EQ(result->tables.size(), 1u);
  EXPECT_EQ(result->tables[0].final_sample_rows,
            (*service.Engine("t"))->sample_rows());

  for (const AdaptiveCandidateResult& r : result->candidates) {
    EXPECT_TRUE(r.converged) << r.sized.config.index.name;
    EXPECT_LE(r.interval.upper - r.cf, r.target_half_width + 1e-12)
        << r.sized.config.index.name;
  }
  // The uncompressed candidate is exact and untouched by sampling.
  const AdaptiveCandidateResult& none = result->candidates[3];
  EXPECT_EQ(none.interval_method, "exact");
  EXPECT_EQ(none.cf, 1.0);
  EXPECT_EQ(none.rows_sampled, 0u);
  // NS takes the narrower of Theorem 1's distribution-free bound and the
  // data-dependent replicate width — never wider than the worst case.
  const AdaptiveCandidateResult& ns = result->candidates[2];
  EXPECT_TRUE(ns.interval_method == "theorem1" ||
              ns.interval_method == "group_replicates")
      << ns.interval_method;
  EXPECT_LE((ns.interval.upper - ns.interval.lower) / 2.0,
            ns.interval.num_sigmas * Theorem1StdDevBound(ns.rows_sampled) +
                1e-12);
  // General schemes use the data-dependent replicate interval.
  EXPECT_EQ(result->candidates[0].interval_method, "group_replicates");

  // The growth schedule is monotone and matches the engine's final state.
  const auto& schedule = result->tables[0].rows_per_round;
  ASSERT_FALSE(schedule.empty());
  for (size_t i = 1; i < schedule.size(); ++i) {
    EXPECT_GT(schedule[i], schedule[i - 1]);
  }
  EXPECT_EQ(schedule.back(), result->tables[0].final_sample_rows);
}

TEST(AdaptiveEstimatorTest, ConvergedResultEqualsFixedFractionRun) {
  Catalog catalog;
  const Table& table = AddWorkloadTable(&catalog);
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005));

  PrecisionTarget target;
  target.rel_error = 0.08;
  target.confidence = 0.90;
  const std::vector<CandidateConfiguration> candidates = AdaptiveWorkload();
  auto result = EstimateAllAdaptive(service, candidates, target);
  ASSERT_TRUE(result.ok());

  for (size_t i = 0; i < candidates.size(); ++i) {
    const AdaptiveCandidateResult& r = result->candidates[i];
    if (r.rows_sampled == 0) continue;  // uncompressed: no sampling
    EstimationEngineOptions fixed_options;
    fixed_options.base.fraction = static_cast<double>(r.rows_sampled) /
                                  static_cast<double>(table.num_rows());
    fixed_options.seed = service.SeedForTable("t");
    EstimationEngine fixed(table, fixed_options);
    auto sized = fixed.EstimateAt(*Pin(fixed), candidates[i]);
    ASSERT_TRUE(sized.ok());
    EXPECT_EQ(sized->estimated_cf, r.sized.estimated_cf)
        << candidates[i].index.name;
    EXPECT_EQ(sized->estimated_bytes, r.sized.estimated_bytes)
        << candidates[i].index.name;
    EXPECT_EQ(sized->sample_rows, r.rows_sampled)
        << candidates[i].index.name;
    auto cf = fixed.EstimateCFAt(*Pin(fixed), candidates[i].index,
                                 candidates[i].scheme);
    ASSERT_TRUE(cf.ok());
    EXPECT_EQ(cf->cf.value, r.cf) << candidates[i].index.name;
  }
}

TEST(AdaptiveEstimatorTest, SamplesFewerRowsThanSmallestSufficientFraction) {
  // Seven single-column tables behind one service. Six are NS candidates:
  // four easy columns (tight length spreads), one mid and one bimodal
  // (Theorem 1's worst case). A fixed fraction must be sized for the
  // hardest of them and overpays on every other one; the adaptive loop
  // gives each candidate the rows its interval demands. Candidates are
  // clustered single-column indexes, so the sampled index is the column
  // itself and NS is exactly Theorem 1's unbiased mean. The seventh table
  // is a paged-dictionary candidate: its small-sample bias leaves it no
  // truth-accuracy target, so it joins only the equality check.
  constexpr uint64_t kRows = 60000;
  constexpr double kTarget = 0.025;
  constexpr size_t kNs = 6;
  const std::vector<std::pair<const char*, ColumnSpec>> specs = {
      {"ns_easy0", ColumnSpec::String("v", 16, 3000, FrequencySpec::Uniform(),
                                      LengthSpec::Uniform(7, 9))},
      {"ns_easy1", ColumnSpec::String("v", 16, 3000, FrequencySpec::Uniform(),
                                      LengthSpec::Uniform(6, 10))},
      {"ns_easy2", ColumnSpec::String("v", 16, 3000, FrequencySpec::Uniform(),
                                      LengthSpec::Constant(9))},
      {"ns_easy3", ColumnSpec::String("v", 16, 3000, FrequencySpec::Uniform(),
                                      LengthSpec::Uniform(10, 13))},
      {"ns_mid", ColumnSpec::String("v", 16, 3000, FrequencySpec::Uniform(),
                                    LengthSpec::Uniform(1, 15))},
      {"ns_hard", ColumnSpec::String("v", 16, 3000, FrequencySpec::Uniform(),
                                     LengthSpec::Bimodal(1, 15))},
      {"city", ColumnSpec::String("v", 24, 2000, FrequencySpec::Zipf(1.0),
                                  LengthSpec::Uniform(4, 20))},
  };
  Catalog catalog;
  std::vector<CandidateConfiguration> candidates;
  std::vector<double> truth;
  uint64_t table_seed = 7;
  for (const auto& [name, column] : specs) {
    auto table = GenerateTable({column}, kRows, table_seed++);
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE(catalog.AddTable(name, std::move(table).ValueOrDie()).ok());
    CandidateConfiguration c;
    c.table_name = name;
    c.index = {std::string("ix_") + name, {"v"}, /*clustered=*/true};
    c.scheme = CompressionScheme::Uniform(
        candidates.size() < kNs ? CompressionType::kNullSuppression
                                : CompressionType::kDictionaryPage);
    auto cf = ComputeTrueCF(**catalog.GetTable(name), c.index, c.scheme,
                            SizeMetric::kDataBytes);
    ASSERT_TRUE(cf.ok());
    truth.push_back(cf->value);
    candidates.push_back(std::move(c));
  }
  const auto rel_error = [](double estimate, double exact) {
    return std::abs(estimate - exact) /
           std::max(exact, PrecisionTarget{}.cf_floor);
  };

  const CatalogEstimationServiceOptions options = SerialServiceOptions(0.002);
  PrecisionTarget target;
  target.rel_error = kTarget;
  target.confidence = 0.95;
  // The NS batch must converge within budget; the dictionary candidate,
  // sized in its own batch, may hit its fraction cap.
  CatalogEstimationService service(catalog, options);
  const std::span<const CandidateConfiguration> all(candidates);
  auto ns = EstimateAllAdaptive(service, all.first(kNs), target);
  ASSERT_TRUE(ns.ok());
  EXPECT_FALSE(ns->budget_exhausted);
  auto dict = EstimateAllAdaptive(service, all.subspan(kNs), target);
  ASSERT_TRUE(dict.ok());
  std::vector<AdaptiveCandidateResult> results = ns->candidates;
  results.insert(results.end(), dict->candidates.begin(),
                 dict->candidates.end());

  uint64_t adaptive_ns_rows = 0;
  for (size_t i = 0; i < kNs; ++i) {
    adaptive_ns_rows += results[i].rows_sampled;
    EXPECT_LE(rel_error(results[i].cf, truth[i]), kTarget)
        << candidates[i].index.name;
  }

  // The smallest ladder fraction whose worst NS error over 20 seeds meets
  // the same target, so one lucky draw cannot win. Rows are counted at the
  // adaptive run's seed.
  const uint64_t seed0 = options.seed;
  uint64_t fixed_ns_rows = 0;
  for (double f : {0.002, 0.004, 0.008, 0.016, 0.032, 0.064, 0.128, 0.256}) {
    double worst = 0.0;
    uint64_t rows = 0;
    for (uint64_t seed = seed0; seed < seed0 + 20; ++seed) {
      CatalogEstimationServiceOptions fixed_options = options;
      fixed_options.base.fraction = f;
      fixed_options.seed = seed;
      CatalogEstimationService fixed(catalog, fixed_options);
      for (size_t i = 0; i < kNs; ++i) {
        EstimationEngine* engine = *fixed.Engine(candidates[i].table_name);
        auto r = engine->EstimateCFAt(*Pin(*engine), candidates[i].index,
                                      candidates[i].scheme);
        ASSERT_TRUE(r.ok());
        worst = std::max(worst, rel_error(r->cf.value, truth[i]));
        if (seed == seed0) rows += r->sample_rows;
      }
    }
    if (worst <= kTarget) {
      fixed_ns_rows = rows;
      break;
    }
  }
  ASSERT_GT(fixed_ns_rows, 0u) << "no ladder fraction meets the target";
  EXPECT_LT(adaptive_ns_rows, fixed_ns_rows);

  // Growth resumes the draw stream, so each estimate equals a fresh draw
  // at that candidate's final fraction under the same seed.
  for (size_t i = 0; i < candidates.size(); ++i) {
    const AdaptiveCandidateResult& r = results[i];
    const Table& table = **catalog.GetTable(candidates[i].table_name);
    EstimationEngineOptions fixed_options;
    fixed_options.base = options.base;
    fixed_options.base.fraction = static_cast<double>(r.rows_sampled) /
                                  static_cast<double>(table.num_rows());
    fixed_options.seed = options.seed;
    EstimationEngine fixed(table, fixed_options);
    const std::shared_ptr<const SampleEpoch> epoch = Pin(fixed);
    auto cf = fixed.EstimateCFAt(*epoch, candidates[i].index,
                                 candidates[i].scheme);
    auto sized = fixed.EstimateAt(*epoch, candidates[i]);
    ASSERT_TRUE(cf.ok());
    ASSERT_TRUE(sized.ok());
    EXPECT_EQ(cf->cf.value, r.cf) << candidates[i].index.name;
    EXPECT_EQ(cf->sample_rows, r.rows_sampled) << candidates[i].index.name;
    EXPECT_EQ(sized->estimated_cf, r.sized.estimated_cf)
        << candidates[i].index.name;
    EXPECT_EQ(sized->estimated_bytes, r.sized.estimated_bytes)
        << candidates[i].index.name;
  }
}

TEST(AdaptiveEstimatorTest, ReportsBudgetExhaustion) {
  Catalog catalog;
  AddWorkloadTable(&catalog);
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005));

  PrecisionTarget target;
  target.rel_error = 0.0005;  // unreachable within the budget
  target.row_budget = 500;
  auto result = EstimateAllAdaptive(service, AdaptiveWorkload(), target);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->budget_exhausted);
  EXPECT_LE(result->tables[0].final_sample_rows, 500u);
  bool any_unconverged = false;
  for (const AdaptiveCandidateResult& r : result->candidates) {
    if (!r.converged) {
      any_unconverged = true;
      // Unconverged candidates still report their best estimate and the
      // interval they got stuck at (convergence is on the upper half-width,
      // which the zero-clamped lower bound cannot understate).
      EXPECT_GT(r.rows_sampled, 0u);
      EXPECT_GT(r.interval.upper - r.cf, r.target_half_width);
    }
  }
  EXPECT_TRUE(any_unconverged);
  EXPECT_LE(result->rounds, target.max_rounds);
}

TEST(AdaptiveEstimatorTest, ServiceLevelGrowsEachTableIndependently) {
  auto orders = WorkloadTable(15000, 3);
  auto lineitem = WorkloadTable(25000, 9);
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("orders", std::move(orders)).ok());
  ASSERT_TRUE(catalog.AddTable("lineitem", std::move(lineitem)).ok());

  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.005;
  options.seed = 42;
  options.num_threads = 2;
  CatalogEstimationService service(catalog, options);

  std::vector<CandidateConfiguration> candidates = {
      Candidate("city", CompressionType::kDictionaryPage, "orders"),
      Candidate("status", CompressionType::kRle, "lineitem"),
      Candidate("status", CompressionType::kNullSuppression, "orders"),
  };
  PrecisionTarget target;
  target.rel_error = 0.10;
  target.confidence = 0.90;
  auto result = EstimateAllAdaptive(service, candidates, target);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->candidates.size(), 3u);
  ASSERT_EQ(result->tables.size(), 2u);
  EXPECT_EQ(result->tables[0].table_name, "orders");
  EXPECT_EQ(result->tables[1].table_name, "lineitem");
  EXPECT_EQ(result->total_sample_rows,
            result->tables[0].final_sample_rows +
                result->tables[1].final_sample_rows);
  for (const AdaptiveCandidateResult& r : result->candidates) {
    EXPECT_TRUE(r.converged) << r.sized.config.index.name;
  }
  // Positional alignment: result i matches candidate i.
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_EQ(result->candidates[i].sized.config.index.name,
              candidates[i].index.name);
  }

  auto missing = EstimateAllAdaptive(
      service, std::vector<CandidateConfiguration>{Candidate(
                   "city", CompressionType::kRle, "nope")},
      target);
  EXPECT_FALSE(missing.ok());
}

TEST(AdaptiveEstimatorTest, PrecisionTargetedAdvisorSelectsUnderBound) {
  Catalog catalog;
  AddWorkloadTable(&catalog);
  CatalogEstimationService service(catalog, SerialServiceOptions(0.005));

  PrecisionTarget target;
  target.rel_error = 0.10;
  target.confidence = 0.90;
  AdaptiveBatchResult adaptive;
  auto rec = AdviseConfigurations(service, AdaptiveWorkload(),
                                  /*storage_bound=*/1 << 20, target,
                                  AdvisorStrategy::kGreedy, &adaptive);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_bytes, static_cast<uint64_t>(1) << 20);
  EXPECT_EQ(adaptive.candidates.size(), 4u);
  EXPECT_FALSE(adaptive.budget_exhausted);
}

// ---------------------------------------------------------------------------
// CandidateRefiner — the lazy advisor's per-candidate entry point
// ---------------------------------------------------------------------------

TEST(CandidateRefinerTest, RefinesToConvergenceAndMatchesFixedFraction) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.002;
  options.seed = 42;
  EstimationEngine engine(*table, options);

  PrecisionTarget target;
  target.rel_error = 0.05;
  auto refiner = CandidateRefiner::Make(engine, target);
  ASSERT_TRUE(refiner.ok());

  const CandidateConfiguration c =
      Candidate("status", CompressionType::kNullSuppression);
  auto refined = refiner->RefineUntil(c, nullptr);
  ASSERT_TRUE(refined.ok());
  EXPECT_TRUE(refined->converged);
  EXPECT_LE(refined->interval.upper - refined->cf,
            refined->target_half_width);
  EXPECT_EQ(refined->rows_sampled, engine.sample_rows());

  // Prefix property: the refined estimate equals a fixed-fraction engine
  // run at the final fraction under the same seed.
  EstimationEngineOptions fixed_options = options;
  fixed_options.base.fraction = static_cast<double>(refined->rows_sampled) /
                                static_cast<double>(table->num_rows());
  EstimationEngine fixed(*table, fixed_options);
  auto fixed_estimate = fixed.EstimateCFAt(*Pin(fixed), c.index, c.scheme);
  ASSERT_TRUE(fixed_estimate.ok());
  EXPECT_EQ(fixed_estimate->cf.value, refined->cf);
  EXPECT_EQ(fixed_estimate->sample_rows, refined->rows_sampled);
}

TEST(CandidateRefinerTest, DonePredicateStopsBeforeConvergence) {
  auto table = WorkloadTable();
  EstimationEngineOptions options;
  options.base.fraction = 0.002;
  options.seed = 42;
  EstimationEngine engine(*table, options);

  PrecisionTarget target;
  target.rel_error = 0.001;  // far beyond what the base sample gives
  auto refiner = CandidateRefiner::Make(engine, target);
  ASSERT_TRUE(refiner.ok());

  const CandidateConfiguration c =
      Candidate("city", CompressionType::kDictionaryPage);
  const uint64_t rows_before = [&] {
    auto current = refiner->EstimateAtCurrentSample(c);
    EXPECT_TRUE(current.ok());
    return current->rows_sampled;
  }();
  // A done-predicate that accepts immediately must not grow the sample.
  auto accepted = refiner->RefineUntil(
      c, [](const AdaptiveCandidateResult&) { return true; });
  ASSERT_TRUE(accepted.ok());
  EXPECT_FALSE(accepted->converged);
  EXPECT_EQ(accepted->rows_sampled, rows_before);
  EXPECT_EQ(refiner->rounds(), 0u);

  // Without it the refiner grows (until the tiny target exhausts the
  // budget), strictly past the coarse sample.
  auto refined = refiner->RefineUntil(c, nullptr);
  ASSERT_TRUE(refined.ok());
  EXPECT_GT(refined->rows_sampled, rows_before);
  EXPECT_GT(refiner->rounds(), 0u);
}

TEST(CandidateRefinerTest, UncompressedCandidatesAreExact) {
  auto table = WorkloadTable();
  EstimationEngine engine(*table);
  auto refiner = CandidateRefiner::Make(engine, PrecisionTarget{});
  ASSERT_TRUE(refiner.ok());
  const CandidateConfiguration c =
      Candidate("status", CompressionType::kNone);
  auto result = refiner->RefineUntil(c, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_EQ(result->rows_sampled, 0u);
  EXPECT_DOUBLE_EQ(result->cf, 1.0);
  EXPECT_EQ(result->sized.estimated_bytes, result->sized.uncompressed_bytes);
  EXPECT_EQ(engine.sample_rows(), 0u);  // no draw needed
}

// ---------------------------------------------------------------------------
// Interval determinism: every pool computes the serial reference's interval
// ---------------------------------------------------------------------------

/// Candidates of the determinism gate on `table_name`: unclustered schemes
/// on two key sets, a clustered key set (every column compressed), NS, and
/// an exact uncompressed candidate.
std::vector<CandidateConfiguration> DeterminismWorkload(
    const char* table_name) {
  std::vector<CandidateConfiguration> out = {
      Candidate("status", CompressionType::kRle, table_name),
      Candidate("city", CompressionType::kDictionaryPage, table_name),
      Candidate("city", CompressionType::kPrefix, table_name),
      Candidate("status", CompressionType::kNullSuppression, table_name),
      Candidate("amount", CompressionType::kNone, table_name)};
  for (CompressionType type :
       {CompressionType::kDictionaryPage, CompressionType::kNullSuppression}) {
    CandidateConfiguration clustered = Candidate("city", type, table_name);
    clustered.index.name += "_clustered";
    clustered.index.clustered = true;
    out.push_back(std::move(clustered));
  }
  return out;
}

/// Test-side reference for one candidate's interval on `epoch`: the g
/// replicate groups built and compressed one after another and reduced in
/// group order — the serial computation every pooled run must reproduce
/// bit for bit.
CandidateIntervalResult ReferenceInterval(EstimationEngine& engine,
                                          const SampleEpoch& epoch,
                                          const CandidateConfiguration& c,
                                          double z, uint32_t groups) {
  CandidateIntervalResult ref;
  if (IsUncompressedScheme(c.scheme)) {
    ref.interval = ConfidenceInterval{1.0, 1.0, z};
    ref.method = "exact";
    return ref;
  }
  auto est = engine.EstimateCFAt(epoch, c.index, c.scheme);
  EXPECT_TRUE(est.ok());
  ref.cf = est->cf.value;
  const uint64_t rows = epoch.sample_rows();
  if (rows < 2ull * groups) groups = static_cast<uint32_t>(rows / 2);
  if (groups < 2) {
    ref.interval = Theorem1ConfidenceInterval(ref.cf, rows, z);
    ref.method = "theorem1";
    return ref;
  }
  const SampleCFOptions& base = engine.options().base;
  RunningStats spread;
  for (uint32_t j = 0; j < groups; ++j) {
    std::vector<RowId> positions;
    for (uint64_t p = rows * j / groups; p < rows * (j + 1) / groups; ++p) {
      positions.push_back(p);
    }
    auto view = TableView::Make(epoch.sample(), std::move(positions));
    EXPECT_TRUE(view.ok());
    auto index = Index::Build(**view, c.index, base.build);
    EXPECT_TRUE(index.ok());
    auto compressed = index->Compress(c.scheme, base.build);
    EXPECT_TRUE(compressed.ok());
    spread.Add(
        MeasureCF(index->stats(), compressed->stats(), base.metric).value);
  }
  const double t_sigmas =
      z + (z * z * z + z) / (4.0 * static_cast<double>(groups - 1));
  double half = t_sigmas * spread.stddev() /
                std::sqrt(static_cast<double>(groups));
  // The unseen-mass floor: -ln(two-sided tail mass) / rows.
  half = std::max(half, -std::log(std::max(std::erfc(z / std::sqrt(2.0)),
                                           1e-300)) /
                            static_cast<double>(rows));
  ref.method = "group_replicates";
  if (IsUniformNullSuppressionScheme(c.scheme) &&
      z * Theorem1StdDevBound(rows) < half) {
    half = z * Theorem1StdDevBound(rows);
    ref.method = "theorem1";
  }
  ref.interval.num_sigmas = z;
  ref.interval.lower = ref.cf - half < 0.0 ? 0.0 : ref.cf - half;
  ref.interval.upper = ref.cf + half;
  return ref;
}

void ExpectSameInterval(const CandidateIntervalResult& want, double cf,
                        const ConfidenceInterval& interval,
                        const std::string& method, const std::string& where) {
  EXPECT_EQ(want.cf, cf) << where;
  EXPECT_EQ(want.interval.lower, interval.lower) << where;
  EXPECT_EQ(want.interval.upper, interval.upper) << where;
  EXPECT_EQ(want.method, method) << where;
}

TEST(IntervalDeterminismTest, EveryPoolMatchesSerialReference) {
  // Samples of the 20k-row table "t" and the 15k-row table "u": 200/150
  // rows; 102/77 rows (not divisible by g = 8); 14/11 rows (fewer than 2g,
  // so the group count shrinks); 3/2 rows (the Theorem 1 path).
  const double kFractions[] = {0.01, 0.0051, 0.0007, 0.00015};
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable(20000, 7)).ok());
  ASSERT_TRUE(catalog.AddTable("u", WorkloadTable(15000, 3)).ok());
  const Table& t = *catalog.GetTable("t").ValueOrDie();
  std::vector<CandidateConfiguration> candidates = DeterminismWorkload("t");
  for (CandidateConfiguration& c : DeterminismWorkload("u")) {
    candidates.push_back(std::move(c));
  }
  const std::vector<CandidateConfiguration> t_candidates =
      DeterminismWorkload("t");
  PrecisionTarget target;
  const uint32_t g = target.interval_groups;
  const double z = NumSigmasForConfidence(target.confidence).ValueOrDie();
  std::vector<std::unique_ptr<ThreadPool>> pools;
  pools.push_back(nullptr);
  for (uint32_t workers : {1u, 2u, 4u}) {
    pools.push_back(std::make_unique<ThreadPool>(workers));
  }

  bool saw_uneven = false, saw_shrunk = false, saw_theorem1 = false;
  for (double fraction : kFractions) {
    EstimationEngineOptions options;
    options.base.fraction = fraction;
    options.seed = 42;
    EstimationEngine engine(t, options);
    const std::shared_ptr<const SampleEpoch> epoch = Pin(engine);
    const uint64_t rows = epoch->sample_rows();
    saw_uneven = saw_uneven || (rows >= 2ull * g && rows % g != 0);
    saw_shrunk = saw_shrunk || (rows < 2ull * g && rows >= 4);
    std::vector<CandidateIntervalResult> want;
    for (const CandidateConfiguration& c : t_candidates) {
      want.push_back(ReferenceInterval(engine, *epoch, c, z, g));
      saw_theorem1 = saw_theorem1 || (rows < 4 && want.back().method ==
                                                      "theorem1");
    }

    for (size_t p = 0; p < pools.size(); ++p) {
      ThreadPool* pool = pools[p].get();
      const std::string where = "rows " + std::to_string(rows) +
                                ", workers " +
                                std::to_string(pool ? pool->num_threads() : 0);
      auto intervals = EstimateCandidateIntervals(engine, t_candidates, z, g,
                                                  pool);
      ASSERT_TRUE(intervals.ok()) << where;
      // The coarse pass's shape: a fan-out over candidates on the same
      // pool that runs each estimate's chains.
      auto refiner = CandidateRefiner::Make(engine, target, pool);
      ASSERT_TRUE(refiner.ok());
      std::vector<AdaptiveCandidateResult> refined(t_candidates.size());
      ASSERT_TRUE(StatusParallelFor(pool, t_candidates.size(),
                                    [&](uint64_t i) -> Status {
                                      CFEST_ASSIGN_OR_RETURN(
                                          refined[i],
                                          refiner->EstimateAtCurrentSample(
                                              t_candidates[i]));
                                      return Status::OK();
                                    })
                      .ok());
      for (size_t i = 0; i < t_candidates.size(); ++i) {
        const std::string at = where + ", " + t_candidates[i].index.name;
        ExpectSameInterval(want[i], (*intervals)[i].cf,
                           (*intervals)[i].interval, (*intervals)[i].method,
                           at + " (intervals)");
        ExpectSameInterval(want[i], refined[i].cf, refined[i].interval,
                           refined[i].interval_method, at + " (refiner)");
      }
    }

    // The adaptive loop held to its first round: every candidate reports
    // the interval at the base sample, on one thread and across two
    // tables, their candidates and their chains nested on one pool.
    PrecisionTarget one_round = target;
    one_round.max_rounds = 1;
    one_round.min_rows = 1;
    for (uint32_t threads : {1u, 2u, 4u}) {
      CatalogEstimationServiceOptions service_options;
      service_options.base.fraction = fraction;
      service_options.seed = 42;
      service_options.num_threads = threads;
      CatalogEstimationService service(catalog, service_options);
      auto adaptive = EstimateAllAdaptive(service, candidates, one_round);
      ASSERT_TRUE(adaptive.ok());
      for (size_t i = 0; i < candidates.size(); ++i) {
        const CandidateConfiguration& c = candidates[i];
        EstimationEngine& table_engine = **service.Engine(c.table_name);
        const CandidateIntervalResult ref =
            ReferenceInterval(table_engine, *Pin(table_engine), c, z, g);
        const AdaptiveCandidateResult& r = adaptive->candidates[i];
        ExpectSameInterval(ref, r.cf, r.interval, r.interval_method,
                           "threads " + std::to_string(threads) + ", " +
                               c.table_name + "." + c.index.name +
                               " (adaptive)");
      }
    }
  }
  EXPECT_TRUE(saw_uneven);
  EXPECT_TRUE(saw_shrunk);
  EXPECT_TRUE(saw_theorem1);
}

TEST(IntervalDeterminismTest, AdaptiveLoopIsIdenticalOnEveryThreadCount) {
  // Full growth runs from a Theorem-1-sized first round: every round,
  // growth decision and final interval must match the serial run.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable(20000, 7)).ok());
  ASSERT_TRUE(catalog.AddTable("u", WorkloadTable(15000, 3)).ok());
  std::vector<CandidateConfiguration> candidates = DeterminismWorkload("t");
  for (CandidateConfiguration& c : DeterminismWorkload("u")) {
    candidates.push_back(std::move(c));
  }
  PrecisionTarget target;
  target.rel_error = 0.10;
  target.confidence = 0.90;
  target.min_rows = 3;
  std::vector<AdaptiveBatchResult> runs;
  for (uint32_t threads : {1u, 2u, 4u}) {
    CatalogEstimationServiceOptions options;
    options.base.fraction = 0.00015;
    options.seed = 42;
    options.num_threads = threads;
    CatalogEstimationService service(catalog, options);
    auto result = EstimateAllAdaptive(service, candidates, target);
    ASSERT_TRUE(result.ok());
    runs.push_back(std::move(result).ValueOrDie());
  }
  const AdaptiveBatchResult& serial = runs[0];
  ASSERT_EQ(serial.tables.size(), 2u);
  EXPECT_GT(serial.rounds, 1u);
  for (size_t k = 1; k < runs.size(); ++k) {
    const AdaptiveBatchResult& run = runs[k];
    ASSERT_EQ(run.tables.size(), serial.tables.size());
    for (size_t t = 0; t < serial.tables.size(); ++t) {
      EXPECT_EQ(run.tables[t].rows_per_round, serial.tables[t].rows_per_round)
          << "run " << k << ", table " << t;
    }
    for (size_t i = 0; i < candidates.size(); ++i) {
      const AdaptiveCandidateResult& want = serial.candidates[i];
      const AdaptiveCandidateResult& got = run.candidates[i];
      const std::string at = "run " + std::to_string(k) + ", " +
                             candidates[i].table_name + "." +
                             candidates[i].index.name;
      EXPECT_EQ(want.cf, got.cf) << at;
      EXPECT_EQ(want.interval.lower, got.interval.lower) << at;
      EXPECT_EQ(want.interval.upper, got.interval.upper) << at;
      EXPECT_EQ(want.interval_method, got.interval_method) << at;
      EXPECT_EQ(want.rows_sampled, got.rows_sampled) << at;
      EXPECT_EQ(want.rounds, got.rounds) << at;
      EXPECT_EQ(want.converged, got.converged) << at;
      EXPECT_EQ(want.sized.estimated_bytes, got.sized.estimated_bytes) << at;
    }
  }
}

TEST(EstimateAllTest, PopulatesSampleRows) {
  Catalog catalog;
  AddWorkloadTable(&catalog);
  CatalogEstimationService service(catalog, SerialServiceOptions(0.01));
  auto sized = service.EstimateAll(AdaptiveWorkload());
  ASSERT_TRUE(sized.ok());
  EXPECT_EQ((*sized)[0].sample_rows, 200u);
  EXPECT_EQ((*sized)[3].sample_rows, 0u);  // uncompressed
}

}  // namespace
}  // namespace cfest
