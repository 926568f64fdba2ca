// End-to-end integration tests: the full SampleCF pipeline over synthetic
// TPC-H data, lossless compression of real index builds, and the advisor
// driving what-if estimation across a catalog.

#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "advisor/what_if.h"
#include "common/stats.h"
#include "datagen/tpch/tables.h"
#include "estimator/analytic_model.h"
#include "estimator/compression_fraction.h"
#include "estimator/sample_cf.h"
#include "repro/evaluation.h"

namespace cfest {
namespace {

class TpchIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    tpch::TpchOptions options;
    options.scale_factor = 0.003;  // lineitem: 18000 rows
    auto result = tpch::GenerateCatalog(options);
    ASSERT_TRUE(result.ok()) << result.status();
    catalog_ = result->release();
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  static Catalog* catalog_;
};

Catalog* TpchIntegrationTest::catalog_ = nullptr;

TEST_F(TpchIntegrationTest, SampleCFTracksTruthOnLineitemShipmode) {
  const Table& lineitem = **catalog_->GetTable("lineitem");
  IndexDescriptor desc{"ix_shipmode", {"l_shipmode"}, false};
  for (CompressionType type :
       {CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
        CompressionType::kDictionaryGlobal}) {
    EvaluationOptions options;
    options.fraction = 0.05;
    options.trials = 10;
    Result<EvaluationResult> eval = EvaluateSampleCF(
        lineitem, desc, CompressionScheme::Uniform(type), options);
    ASSERT_TRUE(eval.ok()) << eval.status();
    EXPECT_LT(eval->mean_ratio_error, 1.5) << CompressionTypeName(type);
    EXPECT_LT(eval->truth.value, 1.2) << CompressionTypeName(type);
  }
}

TEST_F(TpchIntegrationTest, NsEstimateAccurateOnWideTextColumns) {
  // Comments are exactly the padded-varchar shape NS targets; Theorem 1
  // promises tight estimates.
  const Table& orders = **catalog_->GetTable("orders");
  IndexDescriptor desc{"ix_comment", {"o_comment"}, false};
  EvaluationOptions options;
  options.fraction = 0.05;
  options.trials = 20;
  Result<EvaluationResult> eval = EvaluateSampleCF(
      orders, desc,
      CompressionScheme::Uniform(CompressionType::kNullSuppression), options);
  ASSERT_TRUE(eval.ok());
  // Comments fill ~2/3 of the declared width on average.
  EXPECT_LT(eval->truth.value, 0.95);
  EXPECT_GT(eval->truth.value, 0.3);
  EXPECT_LT(eval->mean_ratio_error, 1.05);
  EXPECT_LE(eval->estimate_summary.stddev,
            Theorem1StdDevBound(static_cast<uint64_t>(
                eval->mean_sample_rows)) *
                1.10);
}

TEST_F(TpchIntegrationTest, MultiColumnClusteredIndexCompressesLosslessly) {
  const Table& part = **catalog_->GetTable("part");
  IndexDescriptor desc{"cx_part", {"p_brand", "p_container"}, true};
  IndexBuildOptions options;
  options.keep_pages = true;
  Result<Index> index = Index::Build(part, desc, options);
  ASSERT_TRUE(index.ok());
  // Mixed per-column scheme across all 9 columns.
  CompressionScheme scheme;
  scheme.per_column = {
      CompressionType::kRle,              // p_brand (sorted -> runs)
      CompressionType::kDictionaryPage,   // p_container
      CompressionType::kNone,             // p_partkey
      CompressionType::kNullSuppression,  // p_name
      CompressionType::kDictionaryGlobal, // p_mfgr
      CompressionType::kPrefix,           // p_type
      CompressionType::kNullSuppression,  // p_size
      CompressionType::kNullSuppression,  // p_retailprice
      CompressionType::kNullSuppression,  // p_comment
  };
  Result<CompressedIndex> compressed = index->Compress(scheme, options);
  ASSERT_TRUE(compressed.ok()) << compressed.status();
  std::vector<std::string> decoded;
  ASSERT_TRUE(compressed->DecodeAllRows(&decoded).ok());
  ASSERT_EQ(decoded.size(), index->num_rows());
  for (uint64_t i = 0; i < index->num_rows(); ++i) {
    ASSERT_EQ(Slice(decoded[i]), index->row(i)) << "row " << i;
  }
  // And it actually compressed.
  EXPECT_LT(compressed->stats().chunk_bytes + compressed->stats().aux_bytes,
            index->stats().row_data_bytes);
}

TEST_F(TpchIntegrationTest, BlockSamplingComparableOnShuffledData) {
  // TPC-H rows are generated independently, so block sampling sees the same
  // value mix as row sampling and both estimators land close to truth.
  const Table& lineitem = **catalog_->GetTable("lineitem");
  IndexDescriptor desc{"ix", {"l_shipinstruct"}, false};
  auto block = MakeBlockSampler(0);
  EvaluationOptions row_options;
  row_options.fraction = 0.05;
  row_options.trials = 10;
  EvaluationOptions block_options = row_options;
  block_options.sampler = block.get();
  Result<EvaluationResult> row_eval = EvaluateSampleCF(
      lineitem, desc,
      CompressionScheme::Uniform(CompressionType::kNullSuppression),
      row_options);
  Result<EvaluationResult> block_eval = EvaluateSampleCF(
      lineitem, desc,
      CompressionScheme::Uniform(CompressionType::kNullSuppression),
      block_options);
  ASSERT_TRUE(row_eval.ok());
  ASSERT_TRUE(block_eval.ok());
  EXPECT_LT(row_eval->mean_ratio_error, 1.05);
  EXPECT_LT(block_eval->mean_ratio_error, 1.05);
}

TEST_F(TpchIntegrationTest, AdvisorEndToEnd) {
  const Table& lineitem = **catalog_->GetTable("lineitem");
  const Table& orders = **catalog_->GetTable("orders");

  std::vector<CandidateConfiguration> configs;
  auto add = [&](const std::string& table_name, IndexDescriptor desc,
                 CompressionScheme scheme, double benefit) {
    CandidateConfiguration c;
    c.table_name = table_name;
    c.index = std::move(desc);
    c.scheme = std::move(scheme);
    c.benefit = benefit;
    configs.push_back(std::move(c));
  };
  add("lineitem", {"ix_mode", {"l_shipmode"}, false},
      CompressionScheme::Uniform(CompressionType::kNone), 8.0);
  add("lineitem", {"ix_mode", {"l_shipmode"}, false},
      CompressionScheme::Uniform(CompressionType::kDictionaryPage), 7.5);
  add("orders", {"ix_pri", {"o_orderpriority"}, false},
      CompressionScheme::Uniform(CompressionType::kDictionaryPage), 5.0);
  add("orders", {"ix_comment", {"o_comment"}, false},
      CompressionScheme::Uniform(CompressionType::kNullSuppression), 3.0);

  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(2024);
  std::vector<SizedCandidate> sized;
  for (const auto& config : configs) {
    const Table& table =
        config.table_name == "lineitem" ? lineitem : orders;
    Result<SizedCandidate> s =
        EstimateCandidateSize(table, config, options, &rng);
    ASSERT_TRUE(s.ok()) << s.status();
    sized.push_back(std::move(*s));
  }
  // Compressed variant of the same index must estimate smaller.
  EXPECT_LT(sized[1].estimated_bytes, sized[0].estimated_bytes);

  const uint64_t budget = sized[1].estimated_bytes +
                          sized[2].estimated_bytes +
                          sized[3].estimated_bytes;
  Result<AdvisorRecommendation> rec =
      SelectConfigurations(sized, budget, AdvisorStrategy::kOptimal);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_bytes, budget);
  // With the uncompressed ix_mode too large to pair well, the compressed
  // variant plus both orders indexes is optimal.
  EXPECT_EQ(rec->selected.size(), 3u);
  std::set<std::string> chosen;
  for (const auto& c : rec->selected) {
    chosen.insert(c.config.index.name + "/" + c.config.scheme.ToString());
  }
  EXPECT_TRUE(chosen.count("ix_mode/dictionary_page"));
}

TEST_F(TpchIntegrationTest, EfficiencySampleCFTouchesFractionOfRows) {
  // Not a wall-clock test (that is `repro efficiency`'s job): verify the
  // estimator's work is proportional to the sample, not the table.
  const Table& lineitem = **catalog_->GetTable("lineitem");
  SampleCFOptions options;
  options.fraction = 0.01;
  Random rng(5);
  Result<SampleCFResult> result = SampleCF(
      lineitem, {"ix", {"l_shipmode"}, false},
      CompressionScheme::Uniform(CompressionType::kDictionaryPage), options,
      &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->sample_rows, lineitem.num_rows() / 100);
  EXPECT_LT(result->sample_compressed.data_pages, 10u);
}

}  // namespace
}  // namespace cfest
