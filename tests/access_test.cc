// Tests for the workload cost model (bench/repro/cost_model.h) that prices
// a query against heap and index options.

#include <vector>

#include <gtest/gtest.h>

#include "repro/cost_model.h"

namespace cfest {
namespace {

// ---------------------------------------------------------------------------
// Cost model
// ---------------------------------------------------------------------------

PhysicalOption Heap(uint64_t rows, uint64_t bytes) {
  return {"t", "", bytes, rows, false};
}

TEST(CostModelTest, IndexBeatsHeapForSelectiveQueries) {
  CostModelParams params;
  const PhysicalOption heap = Heap(100000, 100 * 8192);
  PhysicalOption index{"t", "k", 100 * 8192, 100000, false};
  Query selective{"t", "k", 0.01, 1.0};
  EXPECT_LT(QueryCost(selective, index, params),
            QueryCost(selective, heap, params));
  // A full scan gains nothing from the matching order.
  Query full{"t", "k", 1.0, 1.0};
  EXPECT_DOUBLE_EQ(QueryCost(full, index, params),
                   QueryCost(full, heap, params));
}

TEST(CostModelTest, CompressionTradesIoForCpu) {
  CostModelParams params;
  params.page_read_cost = 1.0;
  params.row_cpu_cost = 0.001;
  params.decompress_factor = 3.0;
  PhysicalOption uncompressed{"t", "k", 1000 * 8192, 1000000, false};
  PhysicalOption compressed = uncompressed;
  compressed.total_bytes = 400 * 8192;  // CF = 0.4
  compressed.compressed = true;
  // I/O-bound full scan: compression wins (600 fewer page reads vs
  // 2ms/row * 2 extra CPU = 2000 -> actually compute both ways).
  Query full{"t", "k", 1.0, 1.0};
  const double cost_u = QueryCost(full, uncompressed, params);
  const double cost_c = QueryCost(full, compressed, params);
  // cost_u = 1000 + 1000; cost_c = 400 + 3000.
  EXPECT_DOUBLE_EQ(cost_u, 2000.0);
  EXPECT_DOUBLE_EQ(cost_c, 3400.0);
  // With cheaper CPU the compressed plan flips to a win.
  params.row_cpu_cost = 0.0001;
  EXPECT_LT(QueryCost(full, compressed, params),
            QueryCost(full, uncompressed, params));
}

TEST(CostModelTest, WorkloadRoutesEachQueryToCheapestOption) {
  CostModelParams params;
  std::vector<PhysicalOption> options = {
      Heap(10000, 100 * 8192),
      {"t", "a", 20 * 8192, 10000, false},
      {"t", "b", 20 * 8192, 10000, false},
  };
  std::vector<Query> workload = {
      {"t", "a", 0.01, 2.0},
      {"t", "b", 0.05, 1.0},
      {"t", "c", 0.01, 1.0},  // no matching index: heap or full index scan
  };
  auto cost = WorkloadCost(workload, options, params);
  ASSERT_TRUE(cost.ok());
  // Removing an option can only raise the cost.
  auto cost_less = WorkloadCost(
      workload, {options[0], options[1]}, params);
  ASSERT_TRUE(cost_less.ok());
  EXPECT_LE(*cost, *cost_less);
}

TEST(CostModelTest, ValidationErrors) {
  CostModelParams params;
  EXPECT_FALSE(WorkloadCost({{"t", "a", 0.0, 1.0}},
                            {Heap(10, 8192)}, params)
                   .ok());
  EXPECT_FALSE(WorkloadCost({{"missing", "a", 0.5, 1.0}},
                            {Heap(10, 8192)}, params)
                   .ok());
}

TEST(CostModelTest, CandidateBenefitNonNegativeAndMonotone) {
  CostModelParams params;
  std::vector<PhysicalOption> baseline = {Heap(100000, 200 * 8192)};
  std::vector<Query> workload = {{"t", "k", 0.01, 1.0}};
  PhysicalOption useful{"t", "k", 200 * 8192, 100000, false};
  PhysicalOption useless{"t", "other", 200 * 8192, 100000, false};
  auto b_useful = CandidateBenefit(workload, baseline, useful, params);
  auto b_useless = CandidateBenefit(workload, baseline, useless, params);
  ASSERT_TRUE(b_useful.ok());
  ASSERT_TRUE(b_useless.ok());
  EXPECT_GT(*b_useful, 0.0);
  EXPECT_DOUBLE_EQ(*b_useless, 0.0);
}

}  // namespace
}  // namespace cfest
