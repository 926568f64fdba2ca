#include "advisor/search.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/trace.h"

namespace cfest {
namespace {

/// The registry-backed counters behind LazyAdvisorStats. Each lazy run
/// owns one instance, so a run's compat struct is filled from these
/// counters' Values — while MetricRegistry aggregates every live instance
/// plus retired totals under `cfest.lazy.*`, making the two views agree
/// bit for bit on any quiesced run. Refinement work is attributed per
/// table: `cfest.lazy.refined` / `cfest.lazy.refine_rounds` live in
/// {table=<name>} labeled blocks (one per distinct table a run refines,
/// resolved once per table by ForTable) whose registry children a
/// dashboard can split, while ToStats sums them back into the run totals.
/// The registration members are declared after the counters they cover so
/// final values fold into the registry before the counters destruct.
struct LazyRunCounters {
  LazyRunCounters()
      : registration(metrics::MetricRegistry::Global().RegisterCounters(
            {{"cfest.lazy.candidates", &candidates},
             {"cfest.lazy.nodes_visited", &nodes_visited},
             {"cfest.lazy.nodes_pruned", &nodes_pruned},
             {"cfest.lazy.total_rows_sized", &total_rows_sized},
             {"cfest.lazy.coarse_rows", &coarse_rows}})) {}

  /// The per-table refine block: the table's labeled child of the two
  /// refine families (the unlabeled child when `table_name` is empty).
  struct PerTable {
    explicit PerTable(const std::string& table_name)
        : registration(metrics::MetricRegistry::Global().RegisterCounters(
              table_name.empty()
                  ? metrics::LabelSet{}
                  : metrics::LabelSet{{"table", table_name}},
              {{"cfest.lazy.refined", &refined},
               {"cfest.lazy.refine_rounds", &refine_rounds}})) {}
    metrics::Counter refined;
    metrics::Counter refine_rounds;
    metrics::MetricRegistry::Registration registration;
  };

  PerTable& ForTable(const std::string& table_name) {
    MutexLock lock(mu);
    std::unique_ptr<PerTable>& block = per_table[table_name];
    if (block == nullptr) block = std::make_unique<PerTable>(table_name);
    return *block;
  }

  LazyAdvisorStats ToStats() const {
    LazyAdvisorStats s;
    s.candidates = static_cast<size_t>(candidates.Value());
    s.nodes_visited = nodes_visited.Value();
    s.nodes_pruned = nodes_pruned.Value();
    s.total_rows_sized = total_rows_sized.Value();
    s.coarse_rows = coarse_rows.Value();
    MutexLock lock(mu);
    for (const auto& [name, block] : per_table) {
      (void)name;
      s.refined += static_cast<size_t>(block->refined.Value());
      s.refine_rounds += block->refine_rounds.Value();
    }
    return s;
  }

  metrics::Counter candidates;
  metrics::Counter nodes_visited;
  metrics::Counter nodes_pruned;
  metrics::Counter total_rows_sized;
  metrics::Counter coarse_rows;
  mutable Mutex mu;
  std::map<std::string, std::unique_ptr<PerTable>> per_table GUARDED_BY(mu);
  metrics::MetricRegistry::Registration registration;
};

/// One candidate in the search: its latest point estimate plus certain
/// byte bounds. `bytes_low == bytes_high == estimated_bytes` once the
/// candidate is point-valued (exact, converged, or budget-exhausted).
struct SearchItem {
  SizedCandidate sized;
  std::string key;
  size_t input_index = 0;
  /// Base-metric CF' behind the interval (diagnostics).
  double cf = 1.0;
  uint64_t bytes_low = 0;
  uint64_t bytes_high = 0;
  /// Sample rows behind the current estimate (0 for exact uncompressed).
  uint64_t rows_sampled = 0;
  /// Sample rows the page-metric footprint needs to be meaningful (the
  /// page-coverage floor); convergence below it does not make the item
  /// point-valued.
  uint64_t sizing_floor = 0;
  /// Point-valued: further refinement cannot move the decision.
  bool refined = false;
  /// Received at least one targeted refinement (stats).
  bool was_refined = false;
};

/// Pages the *compressed* sample must span before a page-granular
/// footprint estimate is trusted as a point value: with fewer, the sample
/// compresses into a handful of pages and rounding dominates (a 100-row
/// sample reports page CF 1.0 for everything), and for context-dependent
/// schemes the small-sample bias is still steep.
constexpr double kMinSizingPages = 16.0;

/// Rows at which `engine`'s sample of this index compresses into about
/// kMinSizingPages pages: rows * (uncompressed_bytes / n) * cf >=
/// pages * page_size. `cf_estimate` is the current (coarse) CF' — a biased
/// early estimate only moves the floor, and the candidate's own
/// convergence requirement still applies on top.
uint64_t SizingFloorRows(const EstimationEngine& engine,
                         uint64_t uncompressed_bytes, double cf_estimate) {
  if (uncompressed_bytes == 0) return 0;
  const double bytes_per_row =
      static_cast<double>(uncompressed_bytes) /
      static_cast<double>(std::max<uint64_t>(1, engine.table().num_rows()));
  const double page_size =
      static_cast<double>(engine.options().base.build.page_size);
  const double cf = std::min(1.0, std::max(0.05, cf_estimate));
  return static_cast<uint64_t>(
      std::ceil(kMinSizingPages * page_size / (bytes_per_row * cf)));
}

/// Allowance for what the CF interval cannot see when its data-metric
/// bounds are mapped onto the page-metric footprint the selection uses:
/// page-granular rounding of the converged index (a coarse sample spans
/// few pages, so its own page CF is biased high and useless as a center —
/// the interval bounds, not the coarse point estimate, carry the
/// information).
constexpr double kPageQuantizationSlack = 0.05;

/// How far below its coarse interval's lower bound a context-dependent
/// scheme's converged footprint is allowed to land (the small-sample bias
/// allowance; see ApplyEstimate).
constexpr double kBiasedSchemeLowFraction = 0.4;

/// Maps an adaptive estimate onto an item's certain byte bounds.
///
/// Trust is scheme-keyed: for per-row-local schemes (uniform NS) the
/// estimator is unbiased at any sample size, so the data-CF interval
/// brackets the converged footprint up to page-quantization slack. For
/// context-dependent schemes (dictionaries, RLE, prefix, ...) SampleCF
/// carries a small-sample bias the replicate interval cannot see
/// (estimator/README.md), so only the trivial bounds are safe — which
/// makes such candidates straddle any decision they materially affect and
/// routes them into targeted refinement, exactly where the precise
/// estimate is actually needed.
void ApplyEstimate(const AdaptiveCandidateResult& r, bool point_valued,
                   SearchItem* item) {
  item->sized = r.sized;
  item->cf = r.cf;
  item->rows_sampled = r.rows_sampled;
  item->refined = point_valued;
  if (point_valued) {
    item->bytes_low = item->bytes_high = r.sized.estimated_bytes;
    return;
  }
  const double unc = static_cast<double>(r.sized.uncompressed_bytes);
  if (IsUniformNullSuppressionScheme(r.sized.config.scheme)) {
    item->bytes_low = static_cast<uint64_t>(std::llround(
        std::max(0.0, r.interval.lower - kPageQuantizationSlack) * unc));
    item->bytes_high = static_cast<uint64_t>(std::llround(
        (r.interval.upper + kPageQuantizationSlack) * unc));
    return;
  }
  // Context-dependent schemes' small-sample bias is upward (a sorted
  // sample packs fewer rows behind each page's dictionary/run/prefix
  // context than the full index does), so the interval's lower bound is
  // not a safe optimistic footprint on its own: the converged estimate
  // may undershoot it. Allow a generous bias factor below it — still a
  // real weight for the fractional pruning bound, unlike a trivial zero —
  // and let LazyAdvisorTest.MatchesEagerOptimalSelectionsOnTwoTableService
  // check the allowance against the eager reference at eight bounds.
  item->bytes_low = static_cast<uint64_t>(
      std::llround(kBiasedSchemeLowFraction * r.interval.lower * unc));
  item->bytes_high = static_cast<uint64_t>(std::llround(
      std::max(std::max(1.0, r.sized.estimated_cf),
               r.interval.upper + kPageQuantizationSlack) *
      unc));
}

/// Resolves a straddling interval for the search: refines `item` until
/// `done` accepts its trial bounds or the candidate turns point-valued.
class ItemRefinery {
 public:
  /// `refiners` maps each table name to its table's refiner.
  ItemRefinery(std::map<std::string, CandidateRefiner>* refiners,
               LazyRunCounters* stats)
      : refiners_(refiners), stats_(stats) {}

  Status Refine(SearchItem* item,
                const std::function<bool(const SearchItem&)>& done) {
    trace::Span span("lazy.refine");
    auto it = refiners_->find(item->sized.config.table_name);
    if (it == refiners_->end()) {
      return Status::InvalidArgument(
          "no refiner for table \"" + item->sized.config.table_name + "\"");
    }
    CandidateRefiner* refiner = &it->second;
    const uint32_t rounds_before = refiner->rounds();
    const uint64_t floor = item->sizing_floor;
    bool accepted = false;
    auto adaptor = [&](const AdaptiveCandidateResult& r) {
      SearchItem probe = *item;
      ApplyEstimate(r, r.converged && r.rows_sampled >= floor, &probe);
      if (done(probe)) {
        accepted = true;
        return true;
      }
      return false;
    };
    CFEST_ASSIGN_OR_RETURN(
        AdaptiveCandidateResult r,
        refiner->RefineUntil(item->sized.config, adaptor, floor));
    // Point-valued when converged at the sizing floor or the budget ran
    // out (RefineUntil returned a result neither converged-at-floor nor
    // accepted by `done`).
    ApplyEstimate(r, (r.converged && r.rows_sampled >= floor) || !accepted,
                  item);
    LazyRunCounters::PerTable& table_counters =
        stats_->ForTable(item->sized.config.table_name);
    if (!item->was_refined) {
      item->was_refined = true;
      table_counters.refined.Increment();
    }
    table_counters.refine_rounds.Add(refiner->rounds() - rounds_before);
    return Status::OK();
  }

 private:
  std::map<std::string, CandidateRefiner>* refiners_;
  LazyRunCounters* stats_;
};

/// Depth-first branch-and-bound over items in the strategy-shared order,
/// take-first branching, greedy incumbent, fractional-knapsack pruning
/// bound on optimistic sizes. Benefits are exact inputs, so only
/// feasibility decisions can straddle an interval; those trigger targeted
/// refinement through `refinery` (null = all items point-valued).
class LazySearch {
 public:
  LazySearch(std::vector<SearchItem> items, uint64_t bound,
             ItemRefinery* refinery, LazyRunCounters* stats)
      : items_(std::move(items)),
        bound_(bound),
        refinery_(refinery),
        stats_(stats) {
    // Intern candidate keys to dense ids so hot-path membership (the taken
    // set, the bound's key exclusions) is a flat bitmap instead of a
    // std::set of strings.
    kid_.resize(items_.size());
    std::unordered_map<std::string, uint32_t> ids;
    ids.reserve(items_.size());
    for (size_t j = 0; j < items_.size(); ++j) {
      const auto [it, inserted] =
          ids.emplace(items_[j].key, static_cast<uint32_t>(key_items_.size()));
      if (inserted) key_items_.emplace_back();
      kid_[j] = it->second;
      key_items_[it->second].push_back(static_cast<uint32_t>(j));
    }
    key_taken_.assign(key_items_.size(), 0);
    index_dead_.assign(items_.size(), 0);
  }

  Result<AdvisorRecommendation> Run() {
    RebuildDensityOrder();
    SeedGreedyIncumbent();
    CFEST_RETURN_NOT_OK(Dfs(0));
    AdvisorRecommendation rec;
    rec.storage_bound = bound_;
    for (size_t i : best_) {
      // A never-refined candidate's coarse point estimate is known-biased
      // (page CF ~1.0 on a tiny sample) and can exceed the interval bound
      // its take decision was justified by; report it clamped into the
      // certain bounds, so the recommendation's totals respect the
      // storage bound the search enforced (every take guaranteed the
      // pessimistic sum fits).
      SizedCandidate sized = items_[i].sized;
      const uint64_t bytes =
          std::min(std::max(sized.estimated_bytes, items_[i].bytes_low),
                   items_[i].bytes_high);
      if (bytes != sized.estimated_bytes) {
        sized.estimated_bytes = bytes;
        if (sized.uncompressed_bytes > 0) {
          sized.estimated_cf = static_cast<double>(bytes) /
                               static_cast<double>(sized.uncompressed_bytes);
        }
      }
      rec.selected.push_back(std::move(sized));
      rec.total_benefit += items_[i].sized.config.benefit;
      rec.total_bytes += bytes;
    }
    return rec;
  }

  const std::vector<SearchItem>& items() const { return items_; }

 private:
  // Running sums over the taken prefix, updated on take/untake and
  // recomputed after a refinement moves a taken item's bounds.
  uint64_t SumLow() const { return current_low_; }
  uint64_t SumHigh() const { return current_high_; }

  void RecomputeCurrentSums() {
    current_low_ = 0;
    current_high_ = 0;
    for (size_t i : current_) {
      current_low_ += items_[i].bytes_low;
      current_high_ += items_[i].bytes_high;
    }
  }

  /// Contributes to the pruning bound: positive benefit, not behind the
  /// DFS frontier, key not taken on the current path.
  bool ItemEligible(size_t j) const {
    return items_[j].sized.config.benefit > 0.0 && index_dead_[j] == 0 &&
           key_taken_[kid_[j]] == 0;
  }

  /// Adds (sign +1) or removes (sign -1) item j's (weight, benefit) at its
  /// density-order position in the Fenwick prefix sums.
  void FenwickToggle(size_t j, int sign) {
    const uint64_t w = items_[j].bytes_low;
    const double b = items_[j].sized.config.benefit;
    for (size_t p = pos_of_item_[j]; p <= density_order_.size();
         p += p & (~p + 1)) {
      fen_w_[p] = sign > 0 ? fen_w_[p] + w : fen_w_[p] - w;
      fen_b_[p] += sign > 0 ? b : -b;
    }
  }

  /// Marks every item sharing key id `k` as taken (or untaken), keeping the
  /// Fenwick sums in sync with eligibility.
  void SetKeyTaken(uint32_t k, bool taken) {
    for (const uint32_t j : key_items_[k]) {
      if (items_[j].sized.config.benefit > 0.0 && index_dead_[j] == 0) {
        FenwickToggle(j, taken ? -1 : +1);
      }
    }
    key_taken_[k] = taken ? 1 : 0;
  }

  /// Marks item `i` as passed by the DFS frontier for the rest of the
  /// current Dfs frame (and its subtree), logging the flip for rollback.
  void PassIndex(size_t i) {
    if (ItemEligible(i)) FenwickToggle(i, -1);
    index_dead_[i] = 1;
    dead_log_.push_back(static_cast<uint32_t>(i));
  }

  /// Optimistic sizes in exact density order make the greedy fractional
  /// fill the LP optimum over the remaining candidates — an upper bound on
  /// any completion of the current prefix (the dedup rule only tightens
  /// reality further).
  void RebuildDensityOrder() {
    density_order_.clear();
    density_order_.reserve(items_.size());
    for (size_t i = 0; i < items_.size(); ++i) density_order_.push_back(i);
    std::stable_sort(
        density_order_.begin(), density_order_.end(),
        [&](size_t a, size_t b) {
          // benefit_a / w_a > benefit_b / w_b by cross-multiplication,
          // exact for w = 0 (infinite density first).
          const double da = items_[a].sized.config.benefit *
                            static_cast<double>(items_[b].bytes_low);
          const double db = items_[b].sized.config.benefit *
                            static_cast<double>(items_[a].bytes_low);
          if (da != db) return da > db;
          if (items_[a].key != items_[b].key)
            return items_[a].key < items_[b].key;
          return a < b;
        });
    // Rebuild the Fenwick prefix sums over the (possibly re-sorted) density
    // positions from the current eligibility flags. Rebuilds happen once at
    // Run() and after each (rare) refinement; every node in between updates
    // the tree incrementally.
    const size_t n = density_order_.size();
    pos_of_item_.assign(items_.size(), 0);
    for (size_t p = 0; p < n; ++p) pos_of_item_[density_order_[p]] = p + 1;
    fen_w_.assign(n + 1, 0);
    fen_b_.assign(n + 1, 0.0);
    fen_top_ = 1;
    while (fen_top_ * 2 <= n) fen_top_ *= 2;
    for (size_t j = 0; j < items_.size(); ++j) {
      if (ItemEligible(j)) FenwickToggle(j, +1);
    }
  }

  /// Certainly feasible greedy (pessimistic sizes) over the shared order:
  /// benefits are exact, so any feasible set lower-bounds the optimum and
  /// primes the pruning bound from the first node.
  void SeedGreedyIncumbent() {
    uint64_t bytes_high = 0;
    std::vector<uint8_t> taken(key_items_.size(), 0);
    best_.clear();
    best_benefit_ = 0.0;
    for (size_t i = 0; i < items_.size(); ++i) {
      const SearchItem& it = items_[i];
      if (it.sized.config.benefit <= 0.0) continue;
      if (bytes_high + it.bytes_high > bound_) continue;
      if (taken[kid_[i]] != 0) continue;
      taken[kid_[i]] = 1;
      best_.push_back(i);
      best_benefit_ += it.sized.config.benefit;
      bytes_high += it.bytes_high;
    }
  }

  /// The fractional-knapsack bound over the items still eligible: a
  /// Fenwick descent to the largest density-order prefix whose eligible
  /// weight fits the remaining capacity, accumulating its benefit along the
  /// way, plus a fractional share of the next item. The DFS frontier is
  /// encoded in the eligibility flags. O(log n) per node.
  double FractionalBound() const {
    const uint64_t low = SumLow();
    if (low > bound_) return 0.0;
    const uint64_t cap = bound_ - low;
    size_t p = 0;
    uint64_t acc_w = 0;
    double acc_b = 0.0;
    const size_t n = density_order_.size();
    for (size_t step = fen_top_; step > 0; step >>= 1) {
      const size_t next = p + step;
      if (next <= n && acc_w + fen_w_[next] <= cap) {
        p = next;
        acc_w += fen_w_[next];
        acc_b += fen_b_[next];
      }
    }
    if (p < n) {
      // Maximality of the prefix means position p+1 carries weight
      // strictly greater than the remaining capacity — in particular
      // non-zero, so the item there is eligible and the greedy fill
      // breaks exactly here with a fractional share.
      const SearchItem& it = items_[density_order_[p]];
      acc_b += it.sized.config.benefit *
               (static_cast<double>(cap - acc_w) /
                static_cast<double>(it.bytes_low));
    }
    return acc_b;
  }

  /// Commits a take/skip feasibility decision for item `i` against the
  /// taken prefix, refining straddling intervals — the current item
  /// first, then taken-but-unresolved items in take order — until the
  /// decision resolves or everything relevant is point-valued.
  Result<bool> DecideFit(size_t i) {
    while (true) {
      const uint64_t low = SumLow();
      const uint64_t high = SumHigh();
      SearchItem& item = items_[i];
      if (high + item.bytes_high <= bound_) return true;   // certainly fits
      if (low + item.bytes_low > bound_) return false;     // certainly not
      SearchItem* to_refine = nullptr;
      if (!item.refined) {
        to_refine = &item;
      } else {
        for (size_t t : current_) {
          if (!items_[t].refined) {
            to_refine = &items_[t];
            break;
          }
        }
      }
      if (to_refine == nullptr || refinery_ == nullptr) {
        // Everything point-valued: low == high, decided above — this is
        // only reachable if an interval cannot be refined further.
        return high + item.bytes_high <= bound_;
      }
      SearchItem* target = to_refine;
      auto done = [this, i, target](const SearchItem& probe) {
        uint64_t probe_low = 0;
        uint64_t probe_high = 0;
        for (size_t t : current_) {
          const SearchItem& it =
              (&items_[t] == target) ? probe : items_[t];
          probe_low += it.bytes_low;
          probe_high += it.bytes_high;
        }
        const SearchItem& cand = (&items_[i] == target) ? probe : items_[i];
        probe_low += cand.bytes_low;
        probe_high += cand.bytes_high;
        return probe_high <= bound_ || probe_low > bound_;
      };
      CFEST_RETURN_NOT_OK(refinery_->Refine(target, done));
      RebuildDensityOrder();   // optimistic sizes moved
      RecomputeCurrentSums();  // the refined item may be on the taken path
    }
  }

  /// Rolls the DFS frontier back to a dead-log watermark (frame exit).
  void UnwindDeadLog(size_t mark) {
    while (dead_log_.size() > mark) {
      const uint32_t j = dead_log_.back();
      dead_log_.pop_back();
      index_dead_[j] = 0;
      if (ItemEligible(j)) FenwickToggle(j, +1);
    }
  }

  /// Fully-iterative DFS over the skip chain: an explicit frame stack —
  /// one frame per *taken* candidate on the current path — replaces
  /// recursion, so path depth is bounded by heap, not the thread stack
  /// (kLazy deliberately does not cap the candidate count, and a
  /// scarce-bound 100k-candidate instance legitimately takes thousands).
  /// Items a frame's loop passes go behind the DFS frontier for the whole
  /// subtree; the dead log rolls them back when the frame unwinds, so
  /// frontier maintenance costs O(1) amortized Fenwick updates per node.
  Status Dfs(size_t start) {
    struct Frame {
      size_t i;          // loop position: next to visit, or (while a child
                         // frame is open) the position taken to enter it
      size_t undo_mark;  // dead-log watermark restored on frame exit
    };
    std::vector<Frame> stack;
    stack.push_back({start, dead_log_.size()});
    const size_t root_mark = dead_log_.size();
    while (!stack.empty()) {
      Frame& frame = stack.back();
      bool descended = false;
      for (size_t i = frame.i;; ++i) {
        stats_->nodes_visited.Increment();
        if (current_benefit_ > best_benefit_) {
          best_benefit_ = current_benefit_;
          best_ = current_;
        }
        if (i >= items_.size()) break;
        if (current_benefit_ + FractionalBound() <= best_benefit_) {
          stats_->nodes_pruned.Increment();
          break;
        }
        SearchItem& item = items_[i];
        if (item.sized.config.benefit > 0.0 && key_taken_[kid_[i]] == 0) {
          const Result<bool> fits = DecideFit(i);
          if (!fits.ok()) {
            UnwindDeadLog(root_mark);
            return fits.status();
          }
          if (*fits) {
            SetKeyTaken(kid_[i], true);
            current_.push_back(i);
            current_benefit_ += item.sized.config.benefit;
            current_low_ += item.bytes_low;
            current_high_ += item.bytes_high;
            frame.i = i;  // resume here to untake once the subtree is done
            stack.push_back({i + 1, dead_log_.size()});
            descended = true;
            break;
          }
        }
        PassIndex(i);
      }
      if (descended) continue;
      // Frame exhausted (end of chain or pruned): restore the frontier,
      // then untake the item whose take opened this frame and resume its
      // parent right after that position.
      UnwindDeadLog(frame.undo_mark);
      stack.pop_back();
      if (!stack.empty()) {
        const size_t i = stack.back().i;
        SearchItem& item = items_[i];
        current_benefit_ -= item.sized.config.benefit;
        current_low_ -= item.bytes_low;
        current_high_ -= item.bytes_high;
        current_.pop_back();
        SetKeyTaken(kid_[i], false);
        PassIndex(i);
        stack.back().i = i + 1;
      }
    }
    return Status::OK();
  }

  std::vector<SearchItem> items_;
  uint64_t bound_ = 0;
  ItemRefinery* refinery_;
  LazyRunCounters* stats_;

  // Key interning: item -> dense key id, key id -> member items, and the
  // taken bitmap replacing the old std::set<std::string>.
  std::vector<uint32_t> kid_;
  std::vector<std::vector<uint32_t>> key_items_;
  std::vector<uint8_t> key_taken_;

  // Incremental-bound state: DFS-frontier flags with their undo log, and
  // Fenwick prefix sums of eligible (weight, benefit) over density-order
  // positions (1-based; index 0 unused).
  std::vector<uint8_t> index_dead_;
  std::vector<uint32_t> dead_log_;
  std::vector<size_t> pos_of_item_;
  std::vector<uint64_t> fen_w_;
  std::vector<double> fen_b_;
  size_t fen_top_ = 1;

  std::vector<size_t> density_order_;
  std::vector<size_t> current_;
  uint64_t current_low_ = 0;
  uint64_t current_high_ = 0;
  double current_benefit_ = 0.0;
  std::vector<size_t> best_;
  double best_benefit_ = 0.0;
};

/// Builds the deduped, ordered item list from per-candidate coarse
/// estimates (`coarse` and `floors` positionally aligned with
/// `candidates`). Exact uncompressed candidates are point-valued at once;
/// a compressed candidate converged at the coarse sample is only
/// point-valued if that sample already meets its sizing floor.
std::vector<SearchItem> BuildItems(
    std::span<const CandidateConfiguration> candidates,
    const std::vector<AdaptiveCandidateResult>& coarse,
    const std::vector<uint64_t>& floors) {
  std::vector<SizedCandidate> sized;
  sized.reserve(coarse.size());
  for (const AdaptiveCandidateResult& r : coarse) sized.push_back(r.sized);
  const std::vector<size_t> order = OrderCandidatesForSelection(sized);
  std::vector<SearchItem> items;
  items.reserve(order.size());
  for (size_t i : order) {
    SearchItem item;
    item.input_index = i;
    item.key = CandidateSelectionKey(candidates[i]);
    item.sizing_floor = floors[i];
    const bool exact = IsUncompressedScheme(candidates[i].scheme);
    ApplyEstimate(coarse[i],
                  exact || (coarse[i].converged &&
                            coarse[i].rows_sampled >= floors[i]),
                  &item);
    items.push_back(std::move(item));
  }
  return items;
}

}  // namespace

Result<AdvisorRecommendation> AdviseConfigurationsLazy(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    uint64_t storage_bound, const PrecisionTarget& target,
    LazyAdvisorStats* stats_out) {
  if (candidates.empty()) {
    if (stats_out != nullptr) *stats_out = LazyAdvisorStats{};
    AdvisorRecommendation rec;
    rec.storage_bound = storage_bound;
    return rec;
  }
  CFEST_ASSIGN_OR_RETURN(
      std::vector<CatalogEstimationService::TableGroup> groups,
      service.GroupByTable(candidates));
  trace::Span advise_span("advisor.lazy_advise");
  LazyRunCounters stats;

  // One refiner per table engine (validates the target once per table).
  // Every estimate, coarse or refining, runs its chains on the service
  // pool, so refinement on this thread shares its work with every worker.
  ThreadPool* pool =
      service.options().num_threads == 1 ? nullptr : service.shared_pool();
  std::map<std::string, CandidateRefiner> refiners;
  for (const CatalogEstimationService::TableGroup& group : groups) {
    CFEST_ASSIGN_OR_RETURN(CandidateRefiner refiner,
                           CandidateRefiner::Make(*group.engine, target, pool));
    refiners.emplace(group.table_name, std::move(refiner));
  }

  // Coarse pass: grow each table's sample to the first-round floor
  // (serial — growth mutates the engine), then estimate every candidate
  // once at that coarse sample.
  std::vector<CandidateRefiner*> refiner_of(candidates.size());
  for (const CatalogEstimationService::TableGroup& group : groups) {
    CandidateRefiner& refiner = refiners.at(group.table_name);
    CFEST_RETURN_NOT_OK(
        group.engine
            ->GrowSample(std::min(refiner.row_cap(),
                                  std::max<uint64_t>(1, target.min_rows)))
            .status());
    stats.coarse_rows.Add(group.engine->sample_rows());
    for (size_t i : group.members) refiner_of[i] = &refiner;
  }
  // One flat fan-out over every candidate, each reading its own table's
  // refiner, keeps the pool busy even when one table holds most of the
  // candidates. It runs on this thread and every worker, and each
  // estimate's chains fan out again inside it, onto whichever thread is
  // free. Candidates start in key-set-interleaved order, so the threads
  // begin on distinct key sets' index builds rather than all waiting on
  // one. Each coarse estimate is a pure function of its table's pinned
  // epoch (growth is done), so the results do not depend on the schedule.
  std::vector<AdaptiveCandidateResult> coarse(candidates.size());
  std::vector<uint64_t> floors(candidates.size(), 0);
  CFEST_RETURN_NOT_OK(StatusParallelFor(
      pool, KeySetInterleavedOrder(candidates), [&](size_t i) -> Status {
        CandidateRefiner& refiner = *refiner_of[i];
        CFEST_ASSIGN_OR_RETURN(coarse[i],
                               refiner.EstimateAtCurrentSample(candidates[i]));
        floors[i] = SizingFloorRows(refiner.engine(),
                                    coarse[i].sized.uncompressed_bytes,
                                    coarse[i].cf);
        return Status::OK();
      }));

  // Search with targeted refinement.
  ItemRefinery refinery(&refiners, &stats);
  LazySearch search(BuildItems(candidates, coarse, floors), storage_bound,
                    &refinery, &stats);
  stats.candidates.Add(search.items().size());
  Result<AdvisorRecommendation> rec = search.Run();
  for (const SearchItem& item : search.items()) {
    stats.total_rows_sized.Add(item.rows_sampled);
  }
  if (rec.ok() && rec->total_bytes > storage_bound) {
    // Mid-search refinement can move an already-taken candidate's bounds
    // above what its take decision was committed against (the coarse
    // interval missed). Rare — but the advisor contract is a hard storage
    // bound, so re-select exactly over the final (clamped) point
    // estimates; no further sampling happens, and the result is optimal
    // for those estimates by construction.
    std::vector<SizedCandidate> final_sized;
    final_sized.reserve(search.items().size());
    for (const SearchItem& item : search.items()) {
      SizedCandidate sized = item.sized;
      sized.estimated_bytes =
          std::min(std::max(sized.estimated_bytes, item.bytes_low),
                   item.bytes_high);
      final_sized.push_back(std::move(sized));
    }
    rec = SearchSizedCandidates(final_sized,
                                OrderCandidatesForSelection(final_sized),
                                storage_bound);
  }
  if (stats_out != nullptr) *stats_out = stats.ToStats();
  return rec;
}

AdvisorRecommendation SearchSizedCandidates(
    const std::vector<SizedCandidate>& candidates,
    const std::vector<size_t>& order, uint64_t storage_bound,
    LazyAdvisorStats* stats) {
  LazyRunCounters local;
  std::vector<SearchItem> items;
  items.reserve(order.size());
  for (size_t i : order) {
    SearchItem item;
    item.input_index = i;
    item.key = CandidateSelectionKey(candidates[i].config);
    item.sized = candidates[i];
    item.bytes_low = item.bytes_high = candidates[i].estimated_bytes;
    item.rows_sampled = candidates[i].sample_rows;
    item.refined = true;
    items.push_back(std::move(item));
  }
  LazySearch search(std::move(items), storage_bound, nullptr, &local);
  local.candidates.Add(search.items().size());
  // All items are point-valued: the search cannot fail.
  AdvisorRecommendation rec = search.Run().ValueOrDie();
  if (stats != nullptr) *stats = local.ToStats();
  return rec;
}

}  // namespace cfest
