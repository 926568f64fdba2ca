// Tests for the physical-design advisor: what-if sizing via SampleCF,
// storage-bounded configuration selection (greedy / optimal / lazy), and
// the lazy interval-driven branch-and-bound pass over the engine and the
// catalog service.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "advisor/search.h"
#include "advisor/what_if.h"
#include "common/random.h"
#include "datagen/table_gen.h"
#include "storage/catalog.h"

namespace cfest {
namespace {

std::unique_ptr<Table> WorkloadTable(uint64_t rows = 20000,
                                     uint64_t seed = 7) {
  auto table = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::String("city", 24, 50, FrequencySpec::Zipf(1.0),
                          LengthSpec::Uniform(4, 20)),
       ColumnSpec::Integer("amount", 0)},
      rows, seed);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

// ---------------------------------------------------------------------------
// Uncompressed size arithmetic
// ---------------------------------------------------------------------------

TEST(WhatIfTest, UncompressedEstimateMatchesRealBuild) {
  auto table = WorkloadTable();
  IndexDescriptor desc{"ix_city", {"city"}, false};
  Result<uint64_t> estimate = EstimateUncompressedIndexBytes(*table, desc);
  ASSERT_TRUE(estimate.ok());
  IndexBuildOptions options;
  options.keep_pages = false;
  Result<Index> index = Index::Build(*table, desc, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*estimate, index->stats().page_bytes());
}

TEST(WhatIfTest, ClusteredEstimateMatchesRealBuild) {
  auto table = WorkloadTable();
  IndexDescriptor desc{"cx", {"status"}, true};
  Result<uint64_t> estimate = EstimateUncompressedIndexBytes(*table, desc);
  ASSERT_TRUE(estimate.ok());
  IndexBuildOptions options;
  options.keep_pages = false;
  Result<Index> index = Index::Build(*table, desc, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(*estimate, index->stats().page_bytes());
}

TEST(WhatIfTest, RejectsBadIndexes) {
  auto table = WorkloadTable();
  EXPECT_FALSE(
      EstimateUncompressedIndexBytes(*table, {"x", {"missing"}, false}).ok());
  EXPECT_FALSE(EstimateUncompressedIndexBytes(
                   *table, {"x", {"city", "city"}, false})
                   .ok());
}

// ---------------------------------------------------------------------------
// Candidate sizing
// ---------------------------------------------------------------------------

TEST(WhatIfTest, UncompressedCandidateSkipsSampling) {
  auto table = WorkloadTable();
  CandidateConfiguration candidate;
  candidate.table_name = "t";
  candidate.index = {"ix", {"city"}, false};
  candidate.scheme = CompressionScheme::Uniform(CompressionType::kNone);
  candidate.benefit = 10.0;
  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(1);
  Result<SizedCandidate> sized =
      EstimateCandidateSize(*table, candidate, options, &rng);
  ASSERT_TRUE(sized.ok());
  EXPECT_DOUBLE_EQ(sized->estimated_cf, 1.0);
  EXPECT_EQ(sized->estimated_bytes, sized->uncompressed_bytes);
}

TEST(WhatIfTest, CompressedCandidateShrinks) {
  auto table = WorkloadTable();
  CandidateConfiguration candidate;
  candidate.table_name = "t";
  candidate.index = {"ix", {"status"}, false};
  candidate.scheme =
      CompressionScheme::Uniform(CompressionType::kNullSuppression);
  candidate.benefit = 10.0;
  SampleCFOptions options;
  options.fraction = 0.05;
  Random rng(2);
  Result<SizedCandidate> sized =
      EstimateCandidateSize(*table, candidate, options, &rng);
  ASSERT_TRUE(sized.ok());
  EXPECT_LT(sized->estimated_cf, 1.0);
  EXPECT_LT(sized->estimated_bytes, sized->uncompressed_bytes);
  EXPECT_GT(sized->estimated_bytes, 0u);
}

TEST(WhatIfTest, EstimateTracksTrueCompressedSize) {
  auto table = WorkloadTable();
  CandidateConfiguration candidate;
  candidate.table_name = "t";
  candidate.index = {"ix", {"city"}, false};
  candidate.scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryPage);
  SampleCFOptions options;
  options.fraction = 0.1;
  Random rng(3);
  Result<SizedCandidate> sized =
      EstimateCandidateSize(*table, candidate, options, &rng);
  ASSERT_TRUE(sized.ok());
  // Ground truth.
  IndexBuildOptions build;
  build.keep_pages = false;
  Result<Index> index = Index::Build(*table, candidate.index, build);
  ASSERT_TRUE(index.ok());
  Result<CompressedIndex> compressed =
      index->Compress(candidate.scheme, build);
  ASSERT_TRUE(compressed.ok());
  const double truth =
      static_cast<double>(compressed->stats().page_bytes());
  const double est = static_cast<double>(sized->estimated_bytes);
  EXPECT_LT(std::max(truth / est, est / truth), 1.5)
      << "estimate " << est << " vs truth " << truth;
}

// ---------------------------------------------------------------------------
// Selection
// ---------------------------------------------------------------------------

SizedCandidate MakeCandidate(const std::string& name, double benefit,
                             uint64_t bytes) {
  SizedCandidate c;
  c.config.table_name = "t";
  c.config.index.name = name;
  c.config.benefit = benefit;
  c.estimated_bytes = bytes;
  c.uncompressed_bytes = bytes;
  return c;
}

SizedCandidate MakeTableCandidate(const std::string& table,
                                  const std::string& name, double benefit,
                                  uint64_t bytes) {
  SizedCandidate c = MakeCandidate(name, benefit, bytes);
  c.config.table_name = table;
  return c;
}

std::vector<std::string> SelectedNames(const AdvisorRecommendation& rec) {
  std::vector<std::string> names;
  for (const SizedCandidate& c : rec.selected) {
    names.push_back(c.config.table_name + "/" + c.config.index.name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

TEST(AdvisorTest, GreedyRespectsBudgetAndUniqueness) {
  std::vector<SizedCandidate> candidates = {
      MakeCandidate("a", 10.0, 100),
      MakeCandidate("a", 9.0, 40),  // same index, compressed variant
      MakeCandidate("b", 5.0, 50),
      MakeCandidate("c", 1.0, 500),
  };
  Result<AdvisorRecommendation> rec = SelectConfigurations(candidates, 100);
  ASSERT_TRUE(rec.ok());
  EXPECT_LE(rec->total_bytes, 100u);
  // Greedy by density picks a@40 (0.225/b) then b@50.
  EXPECT_EQ(rec->selected.size(), 2u);
  EXPECT_DOUBLE_EQ(rec->total_benefit, 14.0);
  std::set<std::string> names;
  for (const auto& c : rec->selected) names.insert(c.config.index.name);
  EXPECT_EQ(names.size(), rec->selected.size());
}

TEST(AdvisorTest, OptimalBeatsGreedyOnAdversarialInstance) {
  // Classic knapsack trap: greedy density takes the small dense item and
  // misses the pairing that fills the budget.
  std::vector<SizedCandidate> candidates = {
      MakeCandidate("a", 6.0, 50),   // density 0.12
      MakeCandidate("b", 5.0, 60),   // density 0.083
      MakeCandidate("c", 5.0, 60),   // density 0.083
  };
  Result<AdvisorRecommendation> greedy =
      SelectConfigurations(candidates, 120, AdvisorStrategy::kGreedy);
  Result<AdvisorRecommendation> optimal =
      SelectConfigurations(candidates, 120, AdvisorStrategy::kOptimal);
  ASSERT_TRUE(greedy.ok());
  ASSERT_TRUE(optimal.ok());
  EXPECT_DOUBLE_EQ(greedy->total_benefit, 11.0);   // a + one of b/c
  EXPECT_DOUBLE_EQ(optimal->total_benefit, 11.0);  // same here...
  // ...but shrink the budget so only the pair b+c fits:
  Result<AdvisorRecommendation> greedy2 =
      SelectConfigurations(candidates, 60, AdvisorStrategy::kGreedy);
  Result<AdvisorRecommendation> optimal2 =
      SelectConfigurations(candidates, 60, AdvisorStrategy::kOptimal);
  ASSERT_TRUE(greedy2.ok());
  ASSERT_TRUE(optimal2.ok());
  EXPECT_GE(optimal2->total_benefit, greedy2->total_benefit);
}

TEST(AdvisorTest, OptimalIsActuallyOptimalOnSmallInstance) {
  std::vector<SizedCandidate> candidates = {
      MakeCandidate("a", 10.0, 60), MakeCandidate("b", 9.0, 50),
      MakeCandidate("c", 8.0, 50),  MakeCandidate("d", 2.0, 10),
  };
  // Budget 100: best is b + c = 17 (a+d = 12, a alone = 10).
  Result<AdvisorRecommendation> rec =
      SelectConfigurations(candidates, 100, AdvisorStrategy::kOptimal);
  ASSERT_TRUE(rec.ok());
  EXPECT_DOUBLE_EQ(rec->total_benefit, 17.0);
  EXPECT_EQ(rec->total_bytes, 100u);
}

TEST(AdvisorTest, ZeroBenefitCandidatesIgnored) {
  std::vector<SizedCandidate> candidates = {
      MakeCandidate("a", 0.0, 10),
      MakeCandidate("b", -5.0, 10),
  };
  Result<AdvisorRecommendation> rec = SelectConfigurations(candidates, 1000);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->selected.empty());
  EXPECT_EQ(rec->total_bytes, 0u);
}

TEST(AdvisorTest, EmptyBudgetSelectsNothing) {
  std::vector<SizedCandidate> candidates = {MakeCandidate("a", 10.0, 10)};
  Result<AdvisorRecommendation> rec = SelectConfigurations(candidates, 5);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->selected.empty());
}

// Regression: equal-density candidates must select in a deterministic,
// input-permutation-invariant order (pre-fix, std::sort with a strict `>`
// on density left the order unspecified for ties).
TEST(AdvisorTest, TieBreakIsDeterministicAcrossInputPermutations) {
  // 40 candidates of identical density, scrambled input order; the bound
  // admits exactly 20. The tie-break (candidate key) must pick the 20
  // lexicographically smallest keys regardless of input order.
  std::vector<SizedCandidate> scrambled;
  for (int i = 0; i < 40; ++i) {
    const int scrambled_i = (i * 17) % 40;  // 17 is coprime to 40
    char name[8];
    std::snprintf(name, sizeof(name), "ix%02d", scrambled_i);
    scrambled.push_back(MakeCandidate(name, 2.0, 10));
  }
  Result<AdvisorRecommendation> rec = SelectConfigurations(scrambled, 200);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec->selected.size(), 20u);
  for (int i = 0; i < 20; ++i) {
    char expected[8];
    std::snprintf(expected, sizeof(expected), "ix%02d", i);
    EXPECT_EQ(rec->selected[i].config.index.name, expected)
        << "slot " << i;
  }
  // A different permutation of the same candidates selects the same set.
  std::vector<SizedCandidate> reversed(scrambled.rbegin(), scrambled.rend());
  Result<AdvisorRecommendation> rec2 = SelectConfigurations(reversed, 200);
  ASSERT_TRUE(rec2.ok());
  EXPECT_EQ(SelectedNames(*rec), SelectedNames(*rec2));
}

// Regression: table "a.b" + index "c" and table "a" + index "b.c" are
// distinct configurations; the "."-joined key conflated them and the
// at-most-one-per-index rule wrongly dropped one.
TEST(AdvisorTest, DottedNamesDoNotCollideAcrossTables) {
  std::vector<SizedCandidate> candidates = {
      MakeTableCandidate("a.b", "c", 5.0, 10),
      MakeTableCandidate("a", "b.c", 4.0, 10),
  };
  Result<AdvisorRecommendation> rec = SelectConfigurations(candidates, 1000);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->selected.size(), 2u);
  EXPECT_DOUBLE_EQ(rec->total_benefit, 9.0);
  // Same through the exact search.
  Result<AdvisorRecommendation> optimal =
      SelectConfigurations(candidates, 1000, AdvisorStrategy::kOptimal);
  ASSERT_TRUE(optimal.ok());
  EXPECT_EQ(optimal->selected.size(), 2u);
  EXPECT_DOUBLE_EQ(optimal->total_benefit, 9.0);
}

TEST(AdvisorTest, OptimalRejectsHugeInstances) {
  std::vector<SizedCandidate> candidates;
  for (int i = 0; i < 30; ++i) {
    candidates.push_back(MakeCandidate("ix" + std::to_string(i), 1.0, 10));
  }
  EXPECT_FALSE(
      SelectConfigurations(candidates, 100, AdvisorStrategy::kOptimal).ok());
  EXPECT_TRUE(
      SelectConfigurations(candidates, 100, AdvisorStrategy::kGreedy).ok());
}

TEST(AdvisorTest, LazyHasNoCandidateCap) {
  // 30 distinct candidates reject kOptimal (above); kLazy must solve them
  // exactly: all 30 fit under a large bound.
  std::vector<SizedCandidate> candidates;
  for (int i = 0; i < 30; ++i) {
    candidates.push_back(MakeCandidate("ix" + std::to_string(i), 1.0, 10));
  }
  Result<AdvisorRecommendation> rec =
      SelectConfigurations(candidates, 1000, AdvisorStrategy::kLazy);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->selected.size(), 30u);
  EXPECT_DOUBLE_EQ(rec->total_benefit, 30.0);
}

TEST(AdvisorTest, ZeroBoundSelectsNothingOnEveryStrategy) {
  std::vector<SizedCandidate> candidates = {
      MakeCandidate("a", 10.0, 10), MakeCandidate("b", 5.0, 1)};
  for (AdvisorStrategy strategy :
       {AdvisorStrategy::kGreedy, AdvisorStrategy::kOptimal,
        AdvisorStrategy::kLazy}) {
    Result<AdvisorRecommendation> rec =
        SelectConfigurations(candidates, 0, strategy);
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(rec->selected.empty());
    EXPECT_EQ(rec->total_bytes, 0u);
    EXPECT_DOUBLE_EQ(rec->total_benefit, 0.0);
  }
  // A tiny bound admits only the one-byte candidate.
  for (AdvisorStrategy strategy :
       {AdvisorStrategy::kGreedy, AdvisorStrategy::kOptimal,
        AdvisorStrategy::kLazy}) {
    Result<AdvisorRecommendation> rec =
        SelectConfigurations(candidates, 1, strategy);
    ASSERT_TRUE(rec.ok());
    ASSERT_EQ(rec->selected.size(), 1u);
    EXPECT_EQ(rec->selected[0].config.index.name, "b");
  }
}

TEST(AdvisorTest, AllNegativeBenefitsSelectNothingOnEveryStrategy) {
  std::vector<SizedCandidate> candidates = {
      MakeCandidate("a", -1.0, 10), MakeCandidate("b", -0.5, 10),
      MakeCandidate("c", -100.0, 1)};
  for (AdvisorStrategy strategy :
       {AdvisorStrategy::kGreedy, AdvisorStrategy::kOptimal,
        AdvisorStrategy::kLazy}) {
    Result<AdvisorRecommendation> rec =
        SelectConfigurations(candidates, 1000, strategy);
    ASSERT_TRUE(rec.ok());
    EXPECT_TRUE(rec->selected.empty());
    EXPECT_DOUBLE_EQ(rec->total_benefit, 0.0);
  }
}

TEST(AdvisorTest, OrderingDropsExactDuplicatesOnly) {
  std::vector<SizedCandidate> candidates = {
      MakeCandidate("a", 10.0, 50),
      MakeCandidate("a", 10.0, 50),  // exact duplicate: dropped
      MakeCandidate("a", 9.0, 50),   // same key, different benefit: kept
      MakeCandidate("b", 5.0, 50),
  };
  const std::vector<size_t> order = OrderCandidatesForSelection(candidates);
  ASSERT_EQ(order.size(), 3u);
  // Density order: a@10 (0.2), a@9 (0.18), b@5 (0.1); the duplicate's
  // first instance survives.
  EXPECT_EQ(order[0], 0u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(order[2], 3u);
  // Selection still honors at-most-one-per-key.
  Result<AdvisorRecommendation> rec = SelectConfigurations(candidates, 1000);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->selected.size(), 2u);
  EXPECT_DOUBLE_EQ(rec->total_benefit, 15.0);
}

TEST(AdvisorTest, RandomizedLazyMatchesOptimalSelections) {
  // Small-N random instances with real-valued benefits (no benefit-sum
  // ties, so the optimum is unique almost surely): the lazy search must
  // select exactly what the eager-optimal reference selects.
  Random rng(20260730);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 5 + static_cast<int>(rng.NextBounded(8));  // 5..12
    std::vector<SizedCandidate> candidates;
    for (int i = 0; i < n; ++i) {
      // A few shared keys so the at-most-one-per-index rule matters.
      const std::string name = "ix" + std::to_string(rng.NextBounded(6));
      const double benefit = 0.1 + 9.9 * rng.NextDouble();
      const uint64_t bytes = 10 + rng.NextBounded(190);
      candidates.push_back(MakeCandidate(name, benefit, bytes));
    }
    const uint64_t bound = 50 + rng.NextBounded(600);
    Result<AdvisorRecommendation> optimal =
        SelectConfigurations(candidates, bound, AdvisorStrategy::kOptimal);
    Result<AdvisorRecommendation> lazy =
        SelectConfigurations(candidates, bound, AdvisorStrategy::kLazy);
    ASSERT_TRUE(optimal.ok()) << "trial " << trial;
    ASSERT_TRUE(lazy.ok()) << "trial " << trial;
    EXPECT_DOUBLE_EQ(lazy->total_benefit, optimal->total_benefit)
        << "trial " << trial;
    // Same set, not just same value: compare (key, scheme) multisets.
    std::vector<std::string> opt_names, lazy_names;
    for (const auto& c : optimal->selected) {
      opt_names.push_back(c.config.index.name);
    }
    for (const auto& c : lazy->selected) {
      lazy_names.push_back(c.config.index.name);
    }
    std::sort(opt_names.begin(), opt_names.end());
    std::sort(lazy_names.begin(), lazy_names.end());
    EXPECT_EQ(opt_names, lazy_names) << "trial " << trial;
  }
}

// ---------------------------------------------------------------------------
// Lazy interval-driven advisor (advisor/search.h)
// ---------------------------------------------------------------------------

std::vector<CandidateConfiguration> EngineWorkloadCandidates() {
  struct Spec {
    const char* col;
    CompressionType type;
    double benefit;
  };
  const std::vector<Spec> specs = {
      {"status", CompressionType::kNullSuppression, 7.3},
      {"status", CompressionType::kDictionaryPage, 6.1},
      {"status", CompressionType::kRle, 2.7},
      {"city", CompressionType::kNullSuppression, 5.9},
      {"city", CompressionType::kDictionaryPage, 8.2},
      {"city", CompressionType::kPrefix, 3.4},
      {"amount", CompressionType::kNullSuppression, 4.8},
      {"amount", CompressionType::kNone, 1.9},
  };
  std::vector<CandidateConfiguration> candidates;
  for (const Spec& spec : specs) {
    CandidateConfiguration c;
    c.table_name = "t";
    c.index = {std::string("ix_") + spec.col + "_" +
                   CompressionTypeName(spec.type),
               {spec.col},
               /*clustered=*/false};
    c.scheme = CompressionScheme::Uniform(spec.type);
    c.benefit = spec.benefit;
    candidates.push_back(std::move(c));
  }
  return candidates;
}

TEST(LazyAdvisorTest, MatchesEagerOptimalSelectionsOnOneTableService) {
  // A standalone table is a one-table catalog.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t", WorkloadTable(60000)).ok());
  const std::vector<CandidateConfiguration> candidates =
      EngineWorkloadCandidates();
  // A tight target keeps both paths' page-metric footprints in the
  // amortized regime; the bounds are chosen with decision margins wider
  // than the residual estimate noise (selections of a what-if advisor can
  // only be compared up to its estimation precision — see search.h).
  PrecisionTarget target;
  target.rel_error = 0.02;
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.005;
  options.num_threads = 1;
  // Several bounds so take/skip decisions land on different candidates.
  for (uint64_t bound : {uint64_t{300000}, uint64_t{750000},
                         uint64_t{1200000}, uint64_t{2250000}}) {
    // Fresh services per pass: the eager pass grows its table's sample.
    CatalogEstimationService eager_service(catalog, options);
    AdaptiveBatchResult adaptive;
    Result<AdvisorRecommendation> eager =
        AdviseConfigurations(eager_service, candidates, bound, target,
                             AdvisorStrategy::kOptimal, &adaptive);
    ASSERT_TRUE(eager.ok()) << "bound " << bound;

    CatalogEstimationService lazy_service(catalog, options);
    LazyAdvisorStats stats;
    Result<AdvisorRecommendation> lazy = AdviseConfigurationsLazy(
        lazy_service, candidates, bound, target, &stats);
    ASSERT_TRUE(lazy.ok()) << "bound " << bound;

    EXPECT_EQ(SelectedNames(*eager), SelectedNames(*lazy))
        << "bound " << bound;
    EXPECT_DOUBLE_EQ(lazy->total_benefit, eager->total_benefit)
        << "bound " << bound;
    EXPECT_EQ(stats.candidates, candidates.size());
    // In a dense 8-candidate workload most candidates are deliberated, but
    // the exact uncompressed one never needs refinement.
    EXPECT_LT(stats.refined, stats.candidates) << "bound " << bound;
    EXPECT_GT(stats.nodes_visited, 0u);
  }
}

TEST(LazyAdvisorTest, MatchesEagerOptimalSelectionsOnTwoTableService) {
  // Two tables of different sizes tier the candidate footprints, so
  // feasibility decisions sit well away from the estimate noise.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t1", WorkloadTable(60000, 7)).ok());
  ASSERT_TRUE(catalog.AddTable("t2", WorkloadTable(15000, 11)).ok());
  std::vector<CandidateConfiguration> candidates;
  for (const char* tbl : {"t1", "t2"}) {
    for (CandidateConfiguration c : EngineWorkloadCandidates()) {
      c.table_name = tbl;
      c.index.name = std::string(tbl) + "." + c.index.name;
      c.benefit += tbl[1] == '2' ? 0.13 : 0.0;  // avoid cross-table ties
      candidates.push_back(std::move(c));
    }
  }
  PrecisionTarget target;
  target.rel_error = 0.02;
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.005;
  options.num_threads = 2;
  for (uint64_t bound :
       {uint64_t{400000}, uint64_t{600000}, uint64_t{800000},
        uint64_t{1200000}, uint64_t{1800000}, uint64_t{2400000},
        uint64_t{2800000}, uint64_t{3600000}}) {
    CatalogEstimationService eager_service(catalog, options);
    Result<AdvisorRecommendation> eager =
        AdviseConfigurations(eager_service, candidates, bound, target,
                             AdvisorStrategy::kOptimal);
    ASSERT_TRUE(eager.ok()) << "bound " << bound;

    CatalogEstimationService lazy_service(catalog, options);
    LazyAdvisorStats stats;
    Result<AdvisorRecommendation> lazy = AdviseConfigurationsLazy(
        lazy_service, candidates, bound, target, &stats);
    ASSERT_TRUE(lazy.ok()) << "bound " << bound;

    EXPECT_EQ(SelectedNames(*eager), SelectedNames(*lazy))
        << "bound " << bound;
    EXPECT_DOUBLE_EQ(lazy->total_benefit, eager->total_benefit)
        << "bound " << bound;
    EXPECT_EQ(stats.candidates, candidates.size());
  }
}

TEST(LazyAdvisorTest, SizesFewerRowsThanEagerUnderScarceBound) {
  // 6 tables x 6 key sets x 4 schemes = 144 candidates. Benefits take the
  // shape of a workload-derived candidate set: a few clear winners and a
  // long mediocre tail. Under a scarce bound only a handful of winners
  // fit, so most candidates are settled by their coarse intervals and
  // never converge, while the eager path converges every candidate.
  Catalog catalog;
  std::vector<std::string> tables;
  for (uint64_t t = 0; t < 6; ++t) {
    tables.push_back("tab" + std::to_string(t));
    ASSERT_TRUE(
        catalog.AddTable(tables.back(), WorkloadTable(60000, 31 + t)).ok());
  }
  const std::vector<std::vector<std::string>> key_sets = {
      {"status"},         {"city"},           {"amount"},
      {"status", "city"}, {"city", "amount"}, {"status", "amount"}};
  const std::vector<CompressionType> types = {
      CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
      CompressionType::kRle, CompressionType::kNone};
  Random benefit_rng(2026);
  std::vector<CandidateConfiguration> candidates;
  uint64_t total_uncompressed = 0;
  for (const std::string& table : tables) {
    for (size_t k = 0; k < key_sets.size(); ++k) {
      total_uncompressed += *EstimateUncompressedIndexBytes(
          **catalog.GetTable(table), {"ix", key_sets[k], false});
      for (CompressionType type : types) {
        CandidateConfiguration c;
        c.table_name = table;
        c.index = {table + ".ix" + std::to_string(k) + "_" +
                       CompressionTypeName(type),
                   key_sets[k],
                   /*clustered=*/false};
        c.scheme = CompressionScheme::Uniform(type);
        const bool winner = benefit_rng.NextDouble() < 0.2;
        c.benefit = winner ? 5.0 * std::pow(6.0, benefit_rng.NextDouble())
                           : 0.05 * std::pow(10.0, benefit_rng.NextDouble());
        candidates.push_back(std::move(c));
      }
    }
  }
  const uint64_t bound = total_uncompressed / 40;
  PrecisionTarget target;
  target.rel_error = 0.02;
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.005;
  options.num_threads = 2;

  CatalogEstimationService eager_service(catalog, options);
  AdaptiveBatchResult adaptive;
  ASSERT_TRUE(AdviseConfigurations(eager_service, candidates, bound, target,
                                   AdvisorStrategy::kGreedy, &adaptive)
                  .ok());
  uint64_t eager_rows = 0;
  for (const AdaptiveCandidateResult& r : adaptive.candidates) {
    eager_rows += r.rows_sampled;
  }

  CatalogEstimationService lazy_service(catalog, options);
  LazyAdvisorStats stats;
  ASSERT_TRUE(AdviseConfigurationsLazy(lazy_service, candidates, bound,
                                       target, &stats)
                  .ok());
  EXPECT_EQ(stats.candidates, candidates.size());
  EXPECT_LT(stats.refined, stats.candidates);
  EXPECT_LT(stats.total_rows_sized, eager_rows);
}

TEST(LazyAdvisorTest, SameResultOnEveryThreadCount) {
  // Three tables, one holding most of the candidates (as lineitem does in
  // TPC-H), so the coarse fan-out mixes tables unevenly.
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("big", WorkloadTable(40000, 7)).ok());
  ASSERT_TRUE(catalog.AddTable("mid", WorkloadTable(12000, 11)).ok());
  ASSERT_TRUE(catalog.AddTable("small", WorkloadTable(6000, 13)).ok());
  const std::vector<std::vector<std::string>> big_keys = {
      {"status"}, {"city"}, {"amount"}, {"status", "city"},
      {"city", "amount"}};
  const std::vector<CompressionType> types = {
      CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
      CompressionType::kRle};
  std::vector<CandidateConfiguration> candidates;
  const auto add = [&](const char* table, std::vector<std::string> keys,
                       CompressionType type) {
    CandidateConfiguration c;
    c.table_name = table;
    std::string name = std::string("ix_") + CompressionTypeName(type);
    for (const std::string& key : keys) name += "_" + key;
    c.index = {std::move(name), std::move(keys), /*clustered=*/false};
    c.scheme = CompressionScheme::Uniform(type);
    c.benefit = 1.0 + 0.37 * static_cast<double>(candidates.size() % 11);
    candidates.push_back(std::move(c));
  };
  for (const std::vector<std::string>& keys : big_keys) {
    for (CompressionType type : types) add("big", keys, type);
  }
  add("big", {"amount"}, CompressionType::kNone);
  for (const char* table : {"mid", "small"}) {
    add(table, {"city"}, CompressionType::kDictionaryPage);
    add(table, {"status"}, CompressionType::kRle);
    add(table, {"amount"}, CompressionType::kNullSuppression);
  }
  PrecisionTarget target;
  target.rel_error = 0.02;

  uint64_t refined = 0;
  for (uint64_t bound : {uint64_t{500000}, uint64_t{1500000}}) {
    SCOPED_TRACE(::testing::Message() << "bound " << bound);
    std::vector<AdvisorRecommendation> recs;
    std::vector<LazyAdvisorStats> stats;
    for (uint32_t threads : {1u, 2u, 4u}) {
      CatalogEstimationServiceOptions options;
      options.base.fraction = 0.005;
      options.num_threads = threads;
      CatalogEstimationService service(catalog, options);
      LazyAdvisorStats run_stats;
      Result<AdvisorRecommendation> rec = AdviseConfigurationsLazy(
          service, candidates, bound, target, &run_stats);
      ASSERT_TRUE(rec.ok()) << threads << " threads";
      recs.push_back(*std::move(rec));
      stats.push_back(run_stats);
    }
    refined += stats[0].refined;
    for (size_t r = 1; r < recs.size(); ++r) {
      SCOPED_TRACE(::testing::Message() << "run " << r);
      EXPECT_EQ(SelectedNames(recs[0]), SelectedNames(recs[r]));
      EXPECT_EQ(recs[0].total_benefit, recs[r].total_benefit);
      EXPECT_EQ(recs[0].total_bytes, recs[r].total_bytes);
      ASSERT_EQ(recs[0].selected.size(), recs[r].selected.size());
      for (size_t i = 0; i < recs[0].selected.size(); ++i) {
        const SizedCandidate& a = recs[0].selected[i];
        const SizedCandidate& b = recs[r].selected[i];
        EXPECT_EQ(a.config.table_name, b.config.table_name);
        EXPECT_EQ(a.config.index.name, b.config.index.name);
        EXPECT_EQ(a.estimated_cf, b.estimated_cf);
        EXPECT_EQ(a.estimated_bytes, b.estimated_bytes);
        EXPECT_EQ(a.uncompressed_bytes, b.uncompressed_bytes);
        EXPECT_EQ(a.sample_rows, b.sample_rows);
      }
      EXPECT_EQ(stats[0].candidates, stats[r].candidates);
      EXPECT_EQ(stats[0].refined, stats[r].refined);
      EXPECT_EQ(stats[0].refine_rounds, stats[r].refine_rounds);
      EXPECT_EQ(stats[0].nodes_visited, stats[r].nodes_visited);
      EXPECT_EQ(stats[0].nodes_pruned, stats[r].nodes_pruned);
      EXPECT_EQ(stats[0].total_rows_sized, stats[r].total_rows_sized);
      EXPECT_EQ(stats[0].coarse_rows, stats[r].coarse_rows);
    }
  }
  // The bounds make the search refine, so growth runs between the fan-outs.
  EXPECT_GT(refined, 0u);
}

TEST(LazyAdvisorTest, EmptyCandidatesAndMissingTable) {
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable("t1", WorkloadTable(2000, 7)).ok());
  CatalogEstimationService service(catalog);
  LazyAdvisorStats stats;
  Result<AdvisorRecommendation> empty =
      AdviseConfigurationsLazy(service, {}, 1000, PrecisionTarget{}, &stats);
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->selected.empty());
  EXPECT_EQ(stats.candidates, 0u);

  CandidateConfiguration c;
  c.table_name = "missing";
  c.index = {"ix", {"status"}, false};
  c.scheme = CompressionScheme::Uniform(CompressionType::kNullSuppression);
  c.benefit = 1.0;
  std::vector<CandidateConfiguration> candidates = {c};
  EXPECT_FALSE(
      AdviseConfigurationsLazy(service, candidates, 1000).ok());
}

}  // namespace
}  // namespace cfest
