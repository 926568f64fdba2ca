// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Storage-bounded selection of index configurations: the advisor maximizes
// total workload benefit subject to the storage bound, choosing at most one
// configuration per index (an index is either not built, built uncompressed,
// or built with one compression scheme).

#ifndef CFEST_ADVISOR_ADVISOR_H_
#define CFEST_ADVISOR_ADVISOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "advisor/what_if.h"
#include "common/result.h"
#include "estimator/adaptive.h"
#include "estimator/engine.h"
#include "estimator/service.h"

namespace cfest {

/// \brief Selection strategy.
///
/// Rule of thumb: kGreedy for huge candidate sets where a heuristic is
/// acceptable; kOptimal as the exact reference on small (<= 24) sets;
/// kLazy for exact selections at any scale — and, through
/// AdviseConfigurationsLazy (advisor/search.h), for skipping most of the
/// sizing work too.
enum class AdvisorStrategy {
  /// Benefit-per-byte greedy (the classic knapsack heuristic used by
  /// physical design tools).
  kGreedy,
  /// Exact branch-and-bound over the candidate set with the simple
  /// suffix-benefit pruning bound (exponential; intended for <= ~24
  /// candidates — the reference implementation the lazy search is
  /// cross-checked against).
  kOptimal,
  /// Exact branch-and-bound with the fractional-knapsack pruning bound
  /// (advisor/search.h). Same selections as kOptimal, no candidate cap;
  /// on pre-sized candidates this is the point-interval degenerate case
  /// of the sampling lazy advisor (AdviseConfigurationsLazy).
  kLazy,
};

/// \brief The advisor's chosen configuration set.
struct AdvisorRecommendation {
  std::vector<SizedCandidate> selected;
  double total_benefit = 0.0;
  uint64_t total_bytes = 0;
  uint64_t storage_bound = 0;
};

/// Collision-free key of the at-most-one-configuration-per-index rule:
/// encodes the (table_name, index name) pair unambiguously (length-prefixed,
/// so table "a.b" + index "c" never collides with table "a" + index "b.c").
/// Shared by every selection strategy and the lazy search.
std::string CandidateSelectionKey(const CandidateConfiguration& config);

/// The strategy-shared candidate ordering: indices into `candidates`,
/// stable-sorted by benefit density (benefit per estimated byte)
/// descending, ties broken by selection key then input position — so
/// selections are deterministic across platforms and STLs — with exact
/// duplicates (same key, scheme, benefit, and sizes) dropped. Greedy scans
/// this order; both exact searches branch in it.
std::vector<size_t> OrderCandidatesForSelection(
    const std::vector<SizedCandidate>& candidates);

/// Picks a subset of sized candidates under `storage_bound` bytes, at most
/// one per (table, index) pair.
Result<AdvisorRecommendation> SelectConfigurations(
    const std::vector<SizedCandidate>& candidates, uint64_t storage_bound,
    AdvisorStrategy strategy = AdvisorStrategy::kGreedy);

/// End-to-end advisor pass: candidates may span any number of tables; the
/// service sizes them in one cross-table fan-out (one engine and one shared
/// sample per table, cached sample indexes) before the selection runs. The
/// recommendation picks at most one configuration per (table, index) pair.
/// A standalone table is a one-table catalog.
Result<AdvisorRecommendation> AdviseConfigurations(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    uint64_t storage_bound,
    AdvisorStrategy strategy = AdvisorStrategy::kGreedy);

/// Precision-targeted advisor pass: candidates are sized through the
/// adaptive flow (estimator/adaptive.h) — each table's sample grows
/// independently until every candidate's CF' interval meets `target` —
/// before the same selection runs on the final estimates. `adaptive_out`,
/// if non-null, receives the per-candidate intervals, rows sampled, and
/// per-table growth reports.
Result<AdvisorRecommendation> AdviseConfigurations(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    uint64_t storage_bound, const PrecisionTarget& target,
    AdvisorStrategy strategy = AdvisorStrategy::kGreedy,
    AdaptiveBatchResult* adaptive_out = nullptr);

}  // namespace cfest

#endif  // CFEST_ADVISOR_ADVISOR_H_
