// Tests for the sampling substrate: correctness of each sampler's sample
// size and support, plus statistical properties (uniform inclusion,
// reservoir uniformity, Bernoulli concentration, block contiguity), and the
// shared Algorithm-R slot core (sampling/reservoir.h) the engine's
// reservoir mode rides on.

#include <map>
#include <memory>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "datagen/table_gen.h"
#include "sampling/reservoir.h"
#include "sampling/sampler.h"
#include "storage/table.h"

namespace cfest {
namespace {

std::unique_ptr<Table> SequentialTable(uint64_t n) {
  Schema schema =
      std::move(Schema::Make({{"v", Int64Type()}})).ValueOrDie();
  TableBuilder builder(schema);
  builder.Reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_TRUE(builder.Append({Value::Int(static_cast<int64_t>(i))}).ok());
  }
  return builder.Finish();
}

// ---------------------------------------------------------------------------
// Shared behaviour across all samplers
// ---------------------------------------------------------------------------

struct SamplerCase {
  std::unique_ptr<RowSampler> (*make)();
  const char* label;
  bool fixed_size;  // sample size deterministic given f*n
};

std::unique_ptr<RowSampler> MakeBlockDefault() { return MakeBlockSampler(16); }

class SamplerContractTest : public ::testing::TestWithParam<SamplerCase> {};

TEST_P(SamplerContractTest, RejectsBadFractions) {
  auto sampler = GetParam().make();
  auto table = SequentialTable(100);
  Random rng(1);
  EXPECT_FALSE(sampler->SampleIds(*table, 0.0, &rng).ok());
  EXPECT_FALSE(sampler->SampleIds(*table, -0.5, &rng).ok());
  EXPECT_FALSE(sampler->SampleIds(*table, 1.5, &rng).ok());
}

TEST_P(SamplerContractTest, RejectsEmptyTable) {
  auto sampler = GetParam().make();
  auto table = SequentialTable(0);
  Random rng(1);
  EXPECT_FALSE(sampler->SampleIds(*table, 0.1, &rng).ok());
}

TEST_P(SamplerContractTest, IdsAreValidRows) {
  auto sampler = GetParam().make();
  auto table = SequentialTable(1000);
  Random rng(7);
  auto ids = sampler->SampleIds(*table, 0.05, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_FALSE(ids->empty());
  for (RowId id : *ids) EXPECT_LT(id, 1000u);
}

TEST_P(SamplerContractTest, DeterministicGivenSeed) {
  auto sampler = GetParam().make();
  auto table = SequentialTable(500);
  Random rng1(99), rng2(99);
  auto a = sampler->SampleIds(*table, 0.1, &rng1);
  auto b = sampler->SampleIds(*table, 0.1, &rng2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST_P(SamplerContractTest, MaterializedSampleMatchesIds) {
  auto sampler = GetParam().make();
  auto table = SequentialTable(200);
  Random rng_ids(5), rng_rows(5);
  auto ids = sampler->SampleIds(*table, 0.2, &rng_ids);
  auto sample = sampler->Sample(*table, 0.2, &rng_rows);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(sample.ok());
  ASSERT_EQ((*sample)->num_rows(), ids->size());
  for (size_t i = 0; i < ids->size(); ++i) {
    EXPECT_EQ((*sample)->row(i), table->row((*ids)[i]));
  }
}

TEST_P(SamplerContractTest, FullFractionCoversTable) {
  if (!GetParam().fixed_size) GTEST_SKIP() << "size is probabilistic";
  auto sampler = GetParam().make();
  auto table = SequentialTable(64);
  Random rng(3);
  auto ids = sampler->SampleIds(*table, 1.0, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 64u);
}

std::unique_ptr<RowSampler> MakeStratifiedDefault() {
  return MakeStratifiedSampler(8);
}

INSTANTIATE_TEST_SUITE_P(
    AllSamplers, SamplerContractTest,
    ::testing::Values(
        SamplerCase{&MakeUniformWithReplacementSampler, "uniform_wr", true},
        SamplerCase{&MakeUniformWithoutReplacementSampler, "uniform_wor",
                    true},
        SamplerCase{&MakeBernoulliSampler, "bernoulli", false},
        SamplerCase{&MakeReservoirSampler, "reservoir", true},
        SamplerCase{&MakeBlockDefault, "block", false},
        SamplerCase{&MakeStratifiedDefault, "stratified", false}),
    [](const auto& info) { return std::string(info.param.label); });

TEST(StratifiedTest, EveryStratumRepresented) {
  auto sampler = MakeStratifiedSampler(10);
  auto table = SequentialTable(1000);  // strata of 100 rows each
  Random rng(43);
  auto ids = sampler->SampleIds(*table, 0.05, &rng);
  ASSERT_TRUE(ids.ok());
  std::vector<int> per_stratum(10, 0);
  for (RowId id : *ids) per_stratum[id / 100]++;
  for (int count : per_stratum) {
    EXPECT_EQ(count, 5);  // round(0.05 * 100) from each stratum, WOR
  }
  std::set<RowId> unique(ids->begin(), ids->end());
  EXPECT_EQ(unique.size(), ids->size());  // WOR within strata
}

TEST(StratifiedTest, MoreStrataThanRowsDegradesGracefully) {
  auto sampler = MakeStratifiedSampler(64);
  auto table = SequentialTable(10);
  Random rng(47);
  auto ids = sampler->SampleIds(*table, 0.5, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_FALSE(ids->empty());
  for (RowId id : *ids) EXPECT_LT(id, 10u);
}

// ---------------------------------------------------------------------------
// Sampler-specific properties
// ---------------------------------------------------------------------------

TEST(UniformWrTest, DrawsExactCountAllowingRepeats) {
  auto sampler = MakeUniformWithReplacementSampler();
  auto table = SequentialTable(50);
  Random rng(11);
  auto ids = sampler->SampleIds(*table, 1.0, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 50u);
  std::set<RowId> unique(ids->begin(), ids->end());
  // With replacement, 50 draws from 50 rows almost surely repeat.
  EXPECT_LT(unique.size(), 50u);
}

TEST(UniformWrTest, InclusionApproximatelyUniform) {
  auto sampler = MakeUniformWithReplacementSampler();
  auto table = SequentialTable(20);
  Random rng(13);
  std::vector<uint64_t> hits(20, 0);
  const int kTrials = 400;
  for (int t = 0; t < kTrials; ++t) {
    auto ids = sampler->SampleIds(*table, 0.5, &rng);
    ASSERT_TRUE(ids.ok());
    for (RowId id : *ids) hits[id]++;
  }
  // Each row expects kTrials * 10 / 20 = 200 hits; allow generous slack.
  for (uint64_t h : hits) {
    EXPECT_GT(h, 120u);
    EXPECT_LT(h, 290u);
  }
}

TEST(UniformWorTest, NoDuplicates) {
  auto sampler = MakeUniformWithoutReplacementSampler();
  auto table = SequentialTable(300);
  Random rng(17);
  auto ids = sampler->SampleIds(*table, 0.33, &rng);
  ASSERT_TRUE(ids.ok());
  std::set<RowId> unique(ids->begin(), ids->end());
  EXPECT_EQ(unique.size(), ids->size());
  EXPECT_EQ(ids->size(), 99u);  // round(0.33 * 300)
}

TEST(UniformWorTest, EveryRowEquallyLikely) {
  auto sampler = MakeUniformWithoutReplacementSampler();
  auto table = SequentialTable(10);
  Random rng(19);
  std::vector<uint64_t> hits(10, 0);
  const int kTrials = 1000;
  for (int t = 0; t < kTrials; ++t) {
    auto ids = sampler->SampleIds(*table, 0.3, &rng);
    ASSERT_TRUE(ids.ok());
    for (RowId id : *ids) hits[id]++;
  }
  // Inclusion probability 0.3 -> 300 expected hits per row.
  for (uint64_t h : hits) {
    EXPECT_GT(h, 220u);
    EXPECT_LT(h, 380u);
  }
}

TEST(BernoulliTest, SizeConcentratesAroundFN) {
  auto sampler = MakeBernoulliSampler();
  auto table = SequentialTable(10000);
  Random rng(23);
  auto ids = sampler->SampleIds(*table, 0.1, &rng);
  ASSERT_TRUE(ids.ok());
  // Binomial(10000, 0.1): mean 1000, sd ~30. 6 sigma band.
  EXPECT_GT(ids->size(), 820u);
  EXPECT_LT(ids->size(), 1180u);
  // Ids must be strictly increasing (scan order).
  for (size_t i = 1; i < ids->size(); ++i) {
    EXPECT_LT((*ids)[i - 1], (*ids)[i]);
  }
}

TEST(ReservoirTest, UniformInclusionOverStream) {
  auto sampler = MakeReservoirSampler();
  auto table = SequentialTable(40);
  Random rng(29);
  std::vector<uint64_t> hits(40, 0);
  const int kTrials = 2000;
  for (int t = 0; t < kTrials; ++t) {
    auto ids = sampler->SampleIds(*table, 0.25, &rng);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(ids->size(), 10u);
    std::set<RowId> unique(ids->begin(), ids->end());
    EXPECT_EQ(unique.size(), 10u);
    for (RowId id : *ids) hits[id]++;
  }
  // Expected hits per row: 2000 * 0.25 = 500. Late stream positions must not
  // be disadvantaged (the classic reservoir bug).
  for (uint64_t h : hits) {
    EXPECT_GT(h, 380u);
    EXPECT_LT(h, 620u);
  }
}

TEST(BlockSamplerTest, ReturnsWholeContiguousBlocks) {
  auto sampler = MakeBlockSampler(25);
  auto table = SequentialTable(1000);
  Random rng(31);
  auto ids = sampler->SampleIds(*table, 0.1, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_GE(ids->size(), 100u);
  EXPECT_EQ(ids->size() % 25, 0u);
  // Each run of 25 ids is one contiguous block starting at a multiple of 25.
  for (size_t i = 0; i < ids->size(); i += 25) {
    EXPECT_EQ((*ids)[i] % 25, 0u);
    for (size_t j = 1; j < 25; ++j) {
      EXPECT_EQ((*ids)[i + j], (*ids)[i] + j);
    }
  }
}

TEST(BlockSamplerTest, TailBlockMayBeShort) {
  auto sampler = MakeBlockSampler(30);
  auto table = SequentialTable(100);  // blocks: 30,30,30,10
  Random rng(37);
  auto ids = sampler->SampleIds(*table, 1.0, &rng);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 100u);
  std::set<RowId> unique(ids->begin(), ids->end());
  EXPECT_EQ(unique.size(), 100u);
}

TEST(BlockSamplerTest, DefaultBlockSizeFromPageCapacity) {
  auto sampler = MakeBlockSampler(0);
  auto table = SequentialTable(100000);
  Random rng(41);
  auto ids = sampler->SampleIds(*table, 0.01, &rng);
  ASSERT_TRUE(ids.ok());
  // 8-byte rows + 4-byte slots on 8 KiB pages -> 680 rows per block.
  EXPECT_GE(ids->size(), 1000u);
  EXPECT_LE(ids->size(), 1000u + 680u);
}

TEST(MaterializeTest, RejectsOutOfRangeIds) {
  auto table = SequentialTable(10);
  Result<std::unique_ptr<Table>> bad = MaterializeSample(*table, {3, 99});
  EXPECT_TRUE(bad.status().IsOutOfRange());
}

TEST(MaterializeTest, PreservesDrawOrderAndDuplicates) {
  auto table = SequentialTable(10);
  Result<std::unique_ptr<Table>> sample = MaterializeSample(*table, {5, 5, 1});
  ASSERT_TRUE(sample.ok());
  ASSERT_EQ((*sample)->num_rows(), 3u);
  EXPECT_EQ((*sample)->DecodeRow(0)->at(0).AsInt(), 5);
  EXPECT_EQ((*sample)->DecodeRow(1)->at(0).AsInt(), 5);
  EXPECT_EQ((*sample)->DecodeRow(2)->at(0).AsInt(), 1);
}

TEST(FractionTest, Validation) {
  EXPECT_TRUE(CheckFraction(0.5).ok());
  EXPECT_TRUE(CheckFraction(1.0).ok());
  EXPECT_FALSE(CheckFraction(0.0).ok());
  EXPECT_FALSE(CheckFraction(1.0001).ok());
}

// ---------------------------------------------------------------------------
// ReservoirSampler core
// ---------------------------------------------------------------------------

std::unique_ptr<Table> StreamSource(uint64_t rows) {
  auto table = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::Integer("amount", 400)},
      rows, 7);
  EXPECT_TRUE(table.ok());
  return std::move(table).ValueOrDie();
}

TEST(ReservoirCoreTest, FillsSequentiallyThenReplacesWithinCapacity) {
  Random rng(1);
  ReservoirSampler core(4);
  EXPECT_EQ(4u, core.capacity());
  // While filling, slots are assigned in order and no randomness is drawn.
  for (uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(i, core.Offer(&rng));
  }
  EXPECT_EQ(4u, core.size());
  // Beyond capacity, every assignment stays within [0, capacity) or skips.
  for (uint64_t i = 0; i < 1000; ++i) {
    const uint64_t slot = core.Offer(&rng);
    if (slot != ReservoirSampler::kSkip) {
      EXPECT_LT(slot, 4u);
    }
  }
  EXPECT_EQ(1004u, core.items_seen());
  EXPECT_EQ(4u, core.size());
}

TEST(ReservoirCoreTest, ResumedStreamEqualsOnePassStream) {
  // The property the engine's NotifyAppend is built on: offering items
  // 0..n-1 then n..n'-1 equals offering 0..n'-1 in one pass.
  Random rng_split(9), rng_once(9);
  ReservoirSampler split(16), once(16);
  std::vector<uint64_t> slots_split, slots_once;
  for (uint64_t i = 0; i < 500; ++i) slots_split.push_back(split.Offer(&rng_split));
  for (uint64_t i = 500; i < 1000; ++i) slots_split.push_back(split.Offer(&rng_split));
  for (uint64_t i = 0; i < 1000; ++i) slots_once.push_back(once.Offer(&rng_once));
  EXPECT_EQ(slots_once, slots_split);
}

TEST(ReservoirCoreTest, MatchesTheReservoirRowSamplerBitForBit) {
  // The RowSampler strategy and the core must consume the same RNG stream
  // and produce the same ids — they are one algorithm in two containers.
  auto table = StreamSource(5000);
  auto sampler = MakeReservoirSampler();
  Random rng_sampler(21), rng_core(21);
  auto ids = sampler->SampleIds(*table, 0.01, &rng_sampler);
  ASSERT_TRUE(ids.ok());

  const uint64_t capacity = ids->size();
  ReservoirSampler core(capacity);
  std::vector<RowId> manual(capacity, 0);
  for (RowId id = 0; id < table->num_rows(); ++id) {
    const uint64_t slot = core.Offer(&rng_core);
    if (slot != ReservoirSampler::kSkip) manual[slot] = id;
  }
  EXPECT_EQ(*ids, manual);
}

TEST(ReservoirCoreTest, SeedDeterminesTheReservoir) {
  // Same seed, same reservoir; a different seed keeps a different one.
  auto reservoir_ids = [](uint64_t seed) {
    Random rng(seed);
    ReservoirSampler core(500);
    std::vector<RowId> ids(500, 0);
    for (RowId id = 0; id < 20000; ++id) {
      const uint64_t slot = core.Offer(&rng);
      if (slot != ReservoirSampler::kSkip) ids[slot] = id;
    }
    return ids;
  };
  EXPECT_EQ(reservoir_ids(42), reservoir_ids(42));
  EXPECT_NE(reservoir_ids(42), reservoir_ids(43));
}

}  // namespace
}  // namespace cfest
