#include "advisor/advisor.h"

#include <algorithm>
#include <bit>
#include <set>

#include "advisor/search.h"

namespace cfest {

std::string CandidateSelectionKey(const CandidateConfiguration& config) {
  // Length-prefixed table name followed by the index name: unambiguous for
  // any pair of names (a plain "." join conflated table "a.b" + index "c"
  // with table "a" + index "b.c" and wrongly dropped one of them).
  std::string key = std::to_string(config.table_name.size());
  key += ':';
  key += config.table_name;
  key += '\0';
  key += config.index.name;
  return key;
}

namespace {

double BenefitDensity(const SizedCandidate& c) {
  return c.config.benefit /
         static_cast<double>(std::max<uint64_t>(1, c.estimated_bytes));
}

}  // namespace

std::vector<size_t> OrderCandidatesForSelection(
    const std::vector<SizedCandidate>& candidates) {
  std::vector<size_t> order;
  order.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) order.push_back(i);
  std::vector<std::string> keys;
  keys.reserve(candidates.size());
  for (const SizedCandidate& c : candidates) {
    keys.push_back(CandidateSelectionKey(c.config));
  }
  // stable_sort plus the (key, input position) tie-break: equal-density
  // candidates order identically on every platform/STL.
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const double da = BenefitDensity(candidates[a]);
    const double db = BenefitDensity(candidates[b]);
    if (da != db) return da > db;
    if (keys[a] != keys[b]) return keys[a] < keys[b];
    return a < b;
  });
  // Exact duplicates are redundant in every strategy (at most one per key
  // is selectable, and identical entries tie everywhere): keep the first.
  std::set<std::string> seen;
  std::vector<size_t> unique;
  unique.reserve(order.size());
  for (size_t i : order) {
    const SizedCandidate& c = candidates[i];
    std::string fingerprint = keys[i];
    fingerprint += '\0';
    fingerprint += c.config.scheme.ToString();
    fingerprint += '\0';
    // Bit-exact benefit: to_string would round to 6 decimals and could
    // merge near-equal but distinct candidates.
    fingerprint += std::to_string(std::bit_cast<uint64_t>(c.config.benefit));
    fingerprint += ':';
    fingerprint += std::to_string(c.estimated_bytes);
    fingerprint += ':';
    fingerprint += std::to_string(c.uncompressed_bytes);
    if (!seen.insert(std::move(fingerprint)).second) continue;
    unique.push_back(i);
  }
  return unique;
}

namespace {

AdvisorRecommendation Greedy(const std::vector<SizedCandidate>& candidates,
                             const std::vector<size_t>& order,
                             uint64_t storage_bound) {
  AdvisorRecommendation rec;
  rec.storage_bound = storage_bound;
  std::set<std::string> taken;
  for (size_t i : order) {
    const SizedCandidate& c = candidates[i];
    if (c.config.benefit <= 0.0) continue;
    if (rec.total_bytes + c.estimated_bytes > storage_bound) continue;
    if (!taken.insert(CandidateSelectionKey(c.config)).second) continue;
    rec.selected.push_back(c);
    rec.total_benefit += c.config.benefit;
    rec.total_bytes += c.estimated_bytes;
  }
  return rec;
}

/// Exhaustive branch-and-bound over the shared candidate order, pruning
/// with an optimistic remaining-benefit bound. The reference implementation
/// the lazy search (advisor/search.h) is cross-checked against.
struct OptimalSearch {
  const std::vector<SizedCandidate>* candidates;
  const std::vector<size_t>* order;
  uint64_t bound;
  std::vector<double> suffix_benefit;  // max benefit achievable from slot i on

  std::vector<size_t> best;
  double best_benefit = -1.0;

  std::vector<size_t> current;
  double current_benefit = 0.0;
  uint64_t current_bytes = 0;
  std::set<std::string> taken;

  void Run(size_t i) {
    if (current_benefit > best_benefit) {
      best_benefit = current_benefit;
      best = current;
    }
    if (i >= order->size()) return;
    if (current_benefit + suffix_benefit[i] <= best_benefit) return;  // prune
    const SizedCandidate& c = (*candidates)[(*order)[i]];
    // Branch 1: take it (if feasible).
    const std::string key = CandidateSelectionKey(c.config);
    if (c.config.benefit > 0.0 &&
        current_bytes + c.estimated_bytes <= bound &&
        taken.find(key) == taken.end()) {
      taken.insert(key);
      current.push_back((*order)[i]);
      current_benefit += c.config.benefit;
      current_bytes += c.estimated_bytes;
      Run(i + 1);
      current_bytes -= c.estimated_bytes;
      current_benefit -= c.config.benefit;
      current.pop_back();
      taken.erase(key);
    }
    // Branch 2: skip it.
    Run(i + 1);
  }
};

AdvisorRecommendation Optimal(const std::vector<SizedCandidate>& candidates,
                              const std::vector<size_t>& order,
                              uint64_t storage_bound) {
  OptimalSearch search;
  search.candidates = &candidates;
  search.order = &order;
  search.bound = storage_bound;
  search.suffix_benefit.assign(order.size() + 1, 0.0);
  for (size_t i = order.size(); i-- > 0;) {
    search.suffix_benefit[i] =
        search.suffix_benefit[i + 1] +
        std::max(0.0, candidates[order[i]].config.benefit);
  }
  search.Run(0);
  AdvisorRecommendation rec;
  rec.storage_bound = storage_bound;
  for (size_t i : search.best) {
    rec.selected.push_back(candidates[i]);
    rec.total_benefit += candidates[i].config.benefit;
    rec.total_bytes += candidates[i].estimated_bytes;
  }
  return rec;
}

}  // namespace

Result<AdvisorRecommendation> SelectConfigurations(
    const std::vector<SizedCandidate>& candidates, uint64_t storage_bound,
    AdvisorStrategy strategy) {
  const std::vector<size_t> order = OrderCandidatesForSelection(candidates);
  if (strategy == AdvisorStrategy::kOptimal && order.size() > 24) {
    return Status::InvalidArgument(
        "optimal strategy is exponential; use greedy or lazy for " +
        std::to_string(order.size()) + " candidates");
  }
  switch (strategy) {
    case AdvisorStrategy::kGreedy:
      return Greedy(candidates, order, storage_bound);
    case AdvisorStrategy::kOptimal:
      return Optimal(candidates, order, storage_bound);
    case AdvisorStrategy::kLazy:
      return SearchSizedCandidates(candidates, order, storage_bound);
  }
  return Status::NotSupported("unhandled strategy");
}

Result<AdvisorRecommendation> AdviseConfigurations(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    uint64_t storage_bound, AdvisorStrategy strategy) {
  CFEST_ASSIGN_OR_RETURN(std::vector<SizedCandidate> sized,
                         service.EstimateAll(candidates));
  return SelectConfigurations(sized, storage_bound, strategy);
}

namespace {

std::vector<SizedCandidate> SizedFromAdaptive(
    const AdaptiveBatchResult& adaptive) {
  std::vector<SizedCandidate> sized;
  sized.reserve(adaptive.candidates.size());
  for (const AdaptiveCandidateResult& r : adaptive.candidates) {
    sized.push_back(r.sized);
  }
  return sized;
}

}  // namespace

Result<AdvisorRecommendation> AdviseConfigurations(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    uint64_t storage_bound, const PrecisionTarget& target,
    AdvisorStrategy strategy, AdaptiveBatchResult* adaptive_out) {
  CFEST_ASSIGN_OR_RETURN(AdaptiveBatchResult adaptive,
                         EstimateAllAdaptive(service, candidates, target));
  Result<AdvisorRecommendation> rec =
      SelectConfigurations(SizedFromAdaptive(adaptive), storage_bound,
                           strategy);
  if (adaptive_out != nullptr) *adaptive_out = std::move(adaptive);
  return rec;
}

}  // namespace cfest
