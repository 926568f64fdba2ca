// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Workload cost model — the paper's second motivating question (§I):
// "Given a workload, how is its performance impacted by compressing a set
// of indexes?"
//
// Compression cuts I/O (fewer pages per scan, by the factor CF) but adds a
// per-row decompression CPU cost — "a substantial CPU cost to be paid in
// decompressing the data. Thus the decision as to when to use compression
// needs to be taken judiciously." The model prices a query as
//
//   cost = pages_read * page_read_cost
//        + rows_processed * row_cpu_cost * (compressed ? decompress_factor : 1)
//
// with pages_read derived from the index's (estimated) size and the query's
// selectivity. It is deliberately simple — the advisor needs *relative*
// benefits, not absolute milliseconds.

#ifndef CFEST_REPRO_COST_MODEL_H_
#define CFEST_REPRO_COST_MODEL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "storage/table.h"

namespace cfest {

/// \brief One workload statement: a (range) scan over a table with a
/// selectivity, optionally served by an index on `key_column`.
struct Query {
  std::string table_name;
  /// Column the predicate filters on; an index on it turns the full scan
  /// into a partial scan of `selectivity` of the leaf level.
  std::string key_column;
  /// Fraction of rows the predicate selects, in (0, 1].
  double selectivity = 1.0;
  /// Relative frequency/weight of this query in the workload.
  double weight = 1.0;
};

/// \brief Cost-model coefficients.
struct CostModelParams {
  double page_read_cost = 1.0;       ///< per page (I/O dominates)
  double row_cpu_cost = 0.001;       ///< per row touched
  double decompress_factor = 2.5;    ///< CPU multiplier on compressed rows
  size_t page_size = 8192;
};

/// \brief A physical structure the cost model can route a query to.
struct PhysicalOption {
  std::string table_name;
  std::string key_column;   ///< column the structure is ordered on
  uint64_t total_bytes = 0; ///< (estimated) on-disk footprint
  uint64_t row_count = 0;
  bool compressed = false;
};

/// Cost of answering `query` with `option` (the option must match the
/// query's table; a mismatched key column means a full scan of the option).
double QueryCost(const Query& query, const PhysicalOption& option,
                 const CostModelParams& params);

/// Weighted workload cost when every query picks its cheapest option among
/// `options` (there must be at least one option per queried table — e.g.
/// the base table heap). Returns an error if a query has no option.
Result<double> WorkloadCost(const std::vector<Query>& workload,
                            const std::vector<PhysicalOption>& options,
                            const CostModelParams& params);

/// Benefit of adding `candidate` to `baseline_options` for `workload`:
/// baseline cost minus cost with the candidate available (>= 0).
Result<double> CandidateBenefit(const std::vector<Query>& workload,
                                const std::vector<PhysicalOption>&
                                    baseline_options,
                                const PhysicalOption& candidate,
                                const CostModelParams& params);

}  // namespace cfest

#endif  // CFEST_REPRO_COST_MODEL_H_
