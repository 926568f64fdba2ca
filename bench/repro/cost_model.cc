#include "repro/cost_model.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace cfest {

double QueryCost(const Query& query, const PhysicalOption& option,
                 const CostModelParams& params) {
  const double total_pages = std::max(
      1.0, std::ceil(static_cast<double>(option.total_bytes) /
                     static_cast<double>(params.page_size)));
  // An option ordered on the predicate column serves `selectivity` of its
  // leaf level; otherwise the whole structure is scanned.
  const bool can_seek = option.key_column == query.key_column;
  const double pages_read =
      can_seek ? std::max(1.0, std::ceil(total_pages * query.selectivity))
               : total_pages;
  const double rows_processed =
      std::max(1.0, static_cast<double>(option.row_count) *
                        (can_seek ? query.selectivity : 1.0));
  const double cpu_multiplier =
      option.compressed ? params.decompress_factor : 1.0;
  return pages_read * params.page_read_cost +
         rows_processed * params.row_cpu_cost * cpu_multiplier;
}

Result<double> WorkloadCost(const std::vector<Query>& workload,
                            const std::vector<PhysicalOption>& options,
                            const CostModelParams& params) {
  double total = 0.0;
  for (const Query& query : workload) {
    if (!(query.selectivity > 0.0) || query.selectivity > 1.0) {
      return Status::InvalidArgument("query selectivity must be in (0, 1]");
    }
    double best = std::numeric_limits<double>::infinity();
    for (const PhysicalOption& option : options) {
      if (option.table_name != query.table_name) continue;
      best = std::min(best, QueryCost(query, option, params));
    }
    if (!std::isfinite(best)) {
      return Status::InvalidArgument("no physical option for table " +
                                     query.table_name);
    }
    total += query.weight * best;
  }
  return total;
}

Result<double> CandidateBenefit(
    const std::vector<Query>& workload,
    const std::vector<PhysicalOption>& baseline_options,
    const PhysicalOption& candidate, const CostModelParams& params) {
  CFEST_ASSIGN_OR_RETURN(double before,
                         WorkloadCost(workload, baseline_options, params));
  std::vector<PhysicalOption> with = baseline_options;
  with.push_back(candidate);
  CFEST_ASSIGN_OR_RETURN(double after, WorkloadCost(workload, with, params));
  return std::max(0.0, before - after);
}

}  // namespace cfest
