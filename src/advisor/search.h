// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Lazy interval-driven branch-and-bound advisor.
//
// The eager advisor pass (AdviseConfigurations with a PrecisionTarget)
// sizes *every* candidate to convergence before selection runs — but the
// selection itself only needs sizes precise enough to order and fit the
// configurations it actually deliberates over. AutoAdmin-style what-if
// tools observed that most candidates are prunable before precise costing;
// PR 3's per-candidate confidence intervals are exactly the
// optimistic/pessimistic size bounds a branch-and-bound search needs to
// act on that observation:
//
//   1. Coarse pass — every candidate is estimated once on a small sample
//      (the engine's base fraction, floored at target.min_rows) and gets
//      an interval: its CF' lower/upper bound maps to an optimistic /
//      pessimistic byte footprint. Uncompressed candidates are exact.
//   2. Search — depth-first branch-and-bound over the strategy-shared
//      candidate order (OrderCandidatesForSelection), seeded with the
//      greedy incumbent, pruning any subtree whose fractional-knapsack
//      bound (optimistic sizes, optimistic remaining capacity) cannot
//      strictly beat the incumbent. Benefits are caller inputs, so the
//      objective is exact throughout — only feasibility is uncertain.
//   3. Targeted refinement — a candidate is refined (CandidateRefiner:
//      GrowSample-backed, resuming the engine's draw stream) only when its
//      interval straddles a feasibility decision the search must commit
//      to: it would fit at its optimistic size but not at its pessimistic
//      one. Refinement stops as soon as the decision resolves or the
//      candidate converges to the precision target, whichever is first.
//
// Most candidates therefore never get a converged estimate at all: they
// are taken because even their pessimistic size fits, skipped because even
// their optimistic size does not, or never deliberated because their
// subtree is pruned. tests/advisor_test.cc pins that the selections are
// identical to the eager-optimal reference on tiered 16-candidate workloads
// and that strictly fewer total rows are sized than the eager
// precision-targeted path on a 144-candidate mixed-table workload.

#ifndef CFEST_ADVISOR_SEARCH_H_
#define CFEST_ADVISOR_SEARCH_H_

#include <cstdint>
#include <span>
#include <vector>

#include "advisor/advisor.h"
#include "common/result.h"
#include "estimator/adaptive.h"
#include "estimator/engine.h"
#include "estimator/service.h"

namespace cfest {

/// \brief Observability counters of one lazy advisor run. A compat
/// snapshot of the per-run registry-backed `cfest.lazy.*` counters — the
/// fields are filled from the same Counter objects MetricRegistry
/// aggregates, so on a quiesced run both views agree bit for bit.
struct LazyAdvisorStats {
  /// Candidates after the shared dedup.
  size_t candidates = 0;
  /// Candidates that received targeted refinement (interval straddled a
  /// feasibility decision).
  size_t refined = 0;
  /// Sample-growth rounds summed over all refinements.
  uint64_t refine_rounds = 0;
  uint64_t nodes_visited = 0;
  uint64_t nodes_pruned = 0;
  /// Sum over candidates of the sample rows behind their final estimate
  /// (coarse rows for never-refined candidates, refined rows otherwise,
  /// 0 for exact uncompressed candidates) — the quantity
  /// LazyAdvisorTest compares against the eager path's rows_sampled total.
  uint64_t total_rows_sized = 0;
  /// Rows of the coarse first-pass samples summed over tables.
  uint64_t coarse_rows = 0;
};

/// Lazy advisor pass: coarse intervals for every candidate, branch-and-bound
/// selection under `storage_bound`, targeted refinement only where an
/// interval straddles a decision. Candidates may span tables; each table's
/// engine serves its candidates' coarse intervals (one fan-out over all
/// candidates across the service's shared pool, so results do not depend
/// on num_threads) and grows independently under targeted refinement.
/// Selections match the eager-optimal reference whenever the coarse
/// intervals cover the converged estimates (their stated confidence). Like
/// the adaptive flow, not safe to run concurrently with other estimates on
/// the same tables; each engine's sample afterwards is whatever the
/// deepest refinement grew it to. `candidates` may exceed the eager-optimal
/// 24-candidate cap. A standalone table is a one-table catalog.
Result<AdvisorRecommendation> AdviseConfigurationsLazy(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    uint64_t storage_bound, const PrecisionTarget& target = {},
    LazyAdvisorStats* stats = nullptr);

/// The point-interval degenerate case: exact branch-and-bound over
/// pre-sized candidates in the shared `order` (OrderCandidatesForSelection)
/// with the fractional-knapsack pruning bound and no candidate cap — what
/// SelectConfigurations dispatches AdvisorStrategy::kLazy to. Same
/// selections as kOptimal up to ties in total benefit.
///
/// The bound is kept incrementally in a Fenwick tree over the density
/// order (O(log n) per node). Its selections equal those of rescanning the
/// density order at every node (IncrementalBoundTest's test-local
/// reference); summing benefits in tree order can differ from the
/// sequential rescan by floating-point rounding, which only matters for
/// prune-at-equality ties between non-integer benefits.
AdvisorRecommendation SearchSizedCandidates(
    const std::vector<SizedCandidate>& candidates,
    const std::vector<size_t>& order, uint64_t storage_bound,
    LazyAdvisorStats* stats = nullptr);

}  // namespace cfest

#endif  // CFEST_ADVISOR_SEARCH_H_
