#include "estimator/adaptive.h"

#include <algorithm>
#include <cmath>
#include <future>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/stats.h"
#include "common/trace.h"
#include "index/index.h"
#include "storage/table_view.h"

namespace cfest {
namespace {

/// Registry-backed adaptive-loop counters (process-wide; the loop has no
/// long-lived stats struct of its own, so the registry is the only home).
struct AdaptiveMetrics {
  metrics::Counter* rounds;
  metrics::Counter* growth_steps;
  metrics::Counter* rows_sized;
};

/// The `cfest.adaptive.*` children for one table label (empty = the
/// unlabeled children). Resolved through the registry once per distinct
/// table and memoized here, so round/sizing call sites pay one map lookup
/// per call — never per-row label resolution. Family aggregates keep the
/// process-wide totals regardless of how traffic splits across tables.
const AdaptiveMetrics& MetricsFor(const std::string& table_name) {
  static Mutex* mu = new Mutex();
  static std::unordered_map<std::string, AdaptiveMetrics>* cache =
      new std::unordered_map<std::string, AdaptiveMetrics>();
  MutexLock lock(*mu);
  auto it = cache->find(table_name);
  if (it == cache->end()) {
    metrics::LabelSet labels;
    if (!table_name.empty()) labels.emplace_back("table", table_name);
    AdaptiveMetrics m{
        metrics::MetricRegistry::Global().GetCounter("cfest.adaptive.rounds",
                                                     labels),
        metrics::MetricRegistry::Global().GetCounter(
            "cfest.adaptive.growth_steps", labels),
        metrics::MetricRegistry::Global().GetCounter(
            "cfest.adaptive.rows_sized", labels)};
    it = cache->emplace(table_name, m).first;
  }
  return it->second;
}

/// The engine's table label — how every adaptive call site picks its
/// children (engines created by the catalog service carry the name).
const AdaptiveMetrics& MetricsFor(const EstimationEngine& engine) {
  return MetricsFor(engine.options().table_name);
}

constexpr const char* kMethodExact = "exact";
constexpr const char* kMethodTheorem1 = "theorem1";
constexpr const char* kMethodGroups = "group_replicates";

Status ValidateTarget(const PrecisionTarget& target) {
  if (!(target.rel_error > 0.0)) {
    return Status::InvalidArgument("rel_error must be positive");
  }
  if (!(target.confidence > 0.0) || !(target.confidence < 1.0)) {
    return Status::InvalidArgument("confidence must lie in (0, 1)");
  }
  if (!(target.max_fraction > 0.0) || target.max_fraction > 1.0) {
    return Status::InvalidArgument("max_fraction must lie in (0, 1]");
  }
  if (!(target.growth_factor > 1.0)) {
    return Status::InvalidArgument("growth_factor must be > 1");
  }
  if (!(target.cf_floor > 0.0)) {
    return Status::InvalidArgument("cf_floor must be positive");
  }
  if (target.interval_groups < 2) {
    return Status::InvalidArgument("interval_groups must be >= 2");
  }
  if (target.max_rounds == 0) {
    return Status::InvalidArgument("max_rounds must be >= 1");
  }
  return Status::OK();
}

}  // namespace

bool IsUniformNullSuppressionScheme(const CompressionScheme& scheme) {
  if (scheme.per_column.empty()) {
    return scheme.default_type == CompressionType::kNullSuppression;
  }
  return std::all_of(scheme.per_column.begin(), scheme.per_column.end(),
                     [](CompressionType t) {
                       return t == CompressionType::kNullSuppression;
                     });
}

std::string FormatGrowthSchedule(const std::vector<uint64_t>& rows_per_round) {
  std::string out;
  for (uint64_t rows : rows_per_round) {
    if (!out.empty()) out += " -> ";
    out += std::to_string(rows);
  }
  return out;
}

Result<double> NumSigmasForConfidence(double confidence) {
  if (!(confidence > 0.0) || !(confidence < 1.0)) {
    return Status::InvalidArgument("confidence must lie in (0, 1), got " +
                                   std::to_string(confidence));
  }
  // Two-sided normal coverage of +-z sigma is erf(z / sqrt(2)); invert by
  // bisection (erf is monotone; 20 sigma covers any representable level).
  double lo = 0.0, hi = 20.0;
  for (int iter = 0; iter < 200; ++iter) {
    const double mid = (lo + hi) / 2.0;
    if (std::erf(mid / std::sqrt(2.0)) < confidence) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return (lo + hi) / 2.0;
}

uint64_t EstimateNeededSampleRows(double half_width_now, uint64_t rows_now,
                                  double target_half_width) {
  if (rows_now == 0) return 0;
  if (!(target_half_width > 0.0)) return rows_now;
  if (half_width_now <= target_half_width) return rows_now;
  const double ratio = half_width_now / target_half_width;
  const double needed = static_cast<double>(rows_now) * ratio * ratio;
  if (needed >= 1e18) return ~0ull;  // caller clamps to its budget anyway
  return static_cast<uint64_t>(std::ceil(needed));
}

namespace {

/// Unseen-mass floor on a data-dependent half-width (rule of three,
/// generalized): r draws with no rare deviant rows bound such rows'
/// frequency only to -ln(1 - confidence)/r, and one deviant row shifts a
/// bounded per-row contribution by up to 1 — so no data-dependent interval
/// may claim a smaller half-width. Without this, a constant-looking column
/// yields identical group estimates, zero spread, and a zero-width "95%"
/// interval the data cannot support.
double UnseenMassFloor(double num_sigmas, uint64_t rows) {
  const double miss_prob =
      std::erfc(num_sigmas / std::sqrt(2.0));  // two-sided tail mass
  return -std::log(std::max(miss_prob, 1e-300)) /
         static_cast<double>(rows);
}

}  // namespace

namespace internal {

/// The sorted index over replicate group `j` of `groups`: the contiguous
/// draw-order slice [rows * j / groups, rows * (j + 1) / groups) of
/// `sample`, one of the replicate builds behind the data-dependent
/// interval.
Result<Index> BuildGroupIndex(const Table& sample,
                              const IndexDescriptor& descriptor,
                              uint32_t groups, uint32_t j,
                              const IndexBuildOptions& build) {
  trace::Span span("adaptive.replicate_build");
  const uint64_t rows = sample.num_rows();
  const uint64_t begin = rows * j / groups;
  const uint64_t end = rows * (j + 1) / groups;
  std::vector<RowId> positions;
  positions.reserve(static_cast<size_t>(end - begin));
  for (uint64_t p = begin; p < end; ++p) positions.push_back(p);
  CFEST_ASSIGN_OR_RETURN(std::unique_ptr<TableView> view,
                         TableView::Make(sample, std::move(positions)));
  return Index::Build(*view, descriptor, build);
}

/// Round-scoped cache of replicate group index builds: a group's index
/// depends only on (key set, clustered, group count, group) and the current
/// sample, so every scheme ranked on the same key set shares one build per
/// group — index builds dominate interval cost, exactly like the engine's
/// sample-index cache on the estimate path. Caching per group lets each
/// replicate chain build only its own group. Thread-safe; concurrent first
/// requests for a key are deduplicated with a shared future.
class GroupIndexCache {
 public:
  Result<std::shared_ptr<const Index>> Get(const Table& sample,
                                           const IndexDescriptor& descriptor,
                                           uint32_t groups, uint32_t j,
                                           const IndexBuildOptions& build) {
    // Same key convention as the engine's sample-index cache, extended by
    // the group count and the group.
    std::string key = SampleIndexCacheKey(descriptor);
    key += ':';
    key += std::to_string(groups);
    key += ':';
    key += std::to_string(j);

    std::shared_future<Entry> future;
    bool builder = false;
    std::promise<Entry> promise;
    {
      MutexLock lock(mu_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        future = it->second;
      } else {
        future = promise.get_future().share();
        entries_.emplace(key, future);
        builder = true;
      }
    }
    if (builder) {
      Entry entry;
      Result<Index> built = BuildGroupIndex(sample, descriptor, groups, j,
                                            build);
      if (built.ok()) {
        entry.index =
            std::make_shared<const Index>(std::move(built).ValueOrDie());
      } else {
        entry.status = built.status();
      }
      promise.set_value(std::move(entry));
    } else {
      WaitForSharedBuild(future);
    }
    const Entry& entry = future.get();
    CFEST_RETURN_NOT_OK(entry.status);
    return entry.index;
  }

 private:
  struct Entry {
    Status status = Status::OK();
    std::shared_ptr<const Index> index;
  };
  Mutex mu_;
  std::unordered_map<std::string, std::shared_future<Entry>> entries_
      GUARDED_BY(mu_);
};

}  // namespace internal

namespace {

using internal::GroupIndexCache;

/// Replicate groups the data-dependent interval splits a `rows`-row sample
/// into; 0 when the candidate's interval needs none (uncompressed is exact,
/// and fewer than two groups of two rows fall back to Theorem 1).
uint32_t ReplicateGroups(const CandidateConfiguration& candidate,
                         uint64_t rows, uint32_t interval_groups) {
  if (IsUncompressedScheme(candidate.scheme)) return 0;
  uint32_t groups = interval_groups;
  if (rows < 2ull * groups) groups = static_cast<uint32_t>(rows / 2);
  return groups < 2 ? 0 : groups;
}

/// The interval around `cf` on a `rows`-row sample from the replicate
/// group CFs (empty when ReplicateGroups is 0).
ConfidenceInterval IntervalFromGroups(const CandidateConfiguration& candidate,
                                      double cf, uint64_t rows,
                                      double num_sigmas,
                                      const std::vector<double>& group_cf,
                                      std::string* method) {
  if (IsUncompressedScheme(candidate.scheme)) {
    if (method != nullptr) *method = kMethodExact;
    return ConfidenceInterval{cf, cf, num_sigmas};
  }
  if (group_cf.empty()) {
    // Too few rows for replicates; use the worst-case bound (NS's hard
    // guarantee, and conservative-by-construction for everything else on
    // a handful of rows).
    if (method != nullptr) *method = kMethodTheorem1;
    return Theorem1ConfidenceInterval(cf, rows, num_sigmas);
  }

  // Data-dependent width in the style of EmpiricalNsConfidenceInterval:
  // contiguous draw-order groups are i.i.d. replicates of the estimator at
  // rows/g, whose width shrinks as 1/sqrt(r) (Theorems 1-3), so the group
  // spread over sqrt(g) estimates the full-sample sigma. This is what
  // distinguishes an easy (low-variance) column from a hard one — the
  // whole point of adapting the sample size per candidate.
  const uint32_t groups = static_cast<uint32_t>(group_cf.size());
  RunningStats spread;
  for (double value : group_cf) spread.Add(value);
  const double sigma =
      spread.stddev() / std::sqrt(static_cast<double>(groups));
  // Student-t widening for the small replicate count (first-order
  // Cornish-Fisher: t_df(p) ~= z + (z^3 + z) / (4 df)) — g estimates of
  // the spread are not a known sigma.
  const double t_sigmas =
      num_sigmas + (num_sigmas * num_sigmas * num_sigmas + num_sigmas) /
                       (4.0 * static_cast<double>(groups - 1));
  double half = t_sigmas * sigma;
  half = std::max(half, UnseenMassFloor(num_sigmas, rows));
  std::string picked = kMethodGroups;
  if (IsUniformNullSuppressionScheme(candidate.scheme)) {
    // Theorem 1 caps the NS estimator's sigma at 1/(2 sqrt(r)) regardless
    // of the data — rare values included — so for NS the distribution-free
    // bound overrides both the replicate width and the floor whenever it
    // is narrower.
    const double worst_case =
        num_sigmas * Theorem1StdDevBound(rows);
    if (worst_case < half) {
      half = worst_case;
      picked = kMethodTheorem1;
    }
  }
  if (method != nullptr) *method = picked;
  ConfidenceInterval ci;
  ci.num_sigmas = num_sigmas;
  ci.lower = cf - half < 0.0 ? 0.0 : cf - half;
  ci.upper = cf + half;
  return ci;
}

/// One candidate's base-metric SampleCF on `epoch` and its interval, run as
/// 1 + g independent chains, the tasks of one fan-out on `pool` (nullptr =
/// serial): task 0 is the full-sample CF' through the engine's cached
/// sample index, task 1 + j builds (or reuses) replicate group j's index
/// and compresses it. Group CFs land by group index and are reduced in
/// that order, so the interval is independent of the schedule.
Result<SampleCFResult> EstimateWithInterval(
    EstimationEngine& engine, const SampleEpoch& epoch,
    const CandidateConfiguration& candidate, double num_sigmas,
    uint32_t interval_groups, GroupIndexCache& cache, ThreadPool* pool,
    ConfidenceInterval* interval, std::string* method) {
  const SampleCFOptions& base = engine.options().base;
  const uint64_t rows = epoch.sample_rows();
  const uint32_t groups = ReplicateGroups(candidate, rows, interval_groups);
  SampleCFResult full;
  std::vector<double> group_cf(groups, 0.0);
  CFEST_RETURN_NOT_OK(StatusParallelFor(
      pool, 1 + uint64_t{groups}, [&](uint64_t t) -> Status {
        if (t == 0) {
          CFEST_ASSIGN_OR_RETURN(
              full, engine.EstimateCFAt(epoch, candidate.index,
                                        candidate.scheme));
          return Status::OK();
        }
        const uint32_t j = static_cast<uint32_t>(t - 1);
        CFEST_ASSIGN_OR_RETURN(
            std::shared_ptr<const Index> index,
            cache.Get(epoch.sample(), candidate.index, groups, j,
                      base.build));
        trace::Span span("adaptive.replicate_compress");
        CFEST_ASSIGN_OR_RETURN(CompressedIndex compressed,
                               index->Compress(candidate.scheme, base.build));
        group_cf[j] =
            MeasureCF(index->stats(), compressed.stats(), base.metric).value;
        return Status::OK();
      }));
  *interval = IntervalFromGroups(candidate, full.cf.value, rows, num_sigmas,
                                 group_cf, method);
  return full;
}

/// The sample-row cap the target imposes over an n-row table.
uint64_t RowCapForTarget(const PrecisionTarget& target, uint64_t n) {
  uint64_t cap = std::max<uint64_t>(
      1, static_cast<uint64_t>(
             std::llround(target.max_fraction * static_cast<double>(n))));
  if (target.row_budget > 0) cap = std::min(cap, target.row_budget);
  return cap;
}

/// One candidate's full estimate on the engine's current sample: footprint
/// sizing (page metric), base-metric CF', interval, and target half-width —
/// the body of one adaptive round for one candidate, shared by the round
/// loop and CandidateRefiner. Its chains fan out on `pool` (nullptr =
/// serial). Leaves `rounds`/`converged` to the caller.
Status EstimateCandidateNow(EstimationEngine& engine, const SampleEpoch& epoch,
                            const CandidateConfiguration& c, double z,
                            const PrecisionTarget& target,
                            GroupIndexCache& cache, ThreadPool* pool,
                            AdaptiveCandidateResult* r) {
  trace::Span span("adaptive.estimate_candidate");
  // One cached-index build + compression yields both the base-metric CF'
  // (controlled quantity) and the page-metric footprint (what
  // EstimationEngine::EstimateAt reports). Everything reads the pinned epoch
  // — including the full-index scaling's row count — so the result is
  // immune to appends streaming in concurrently.
  CFEST_ASSIGN_OR_RETURN(
      SampleCFResult est,
      EstimateWithInterval(engine, epoch, c, z, target.interval_groups, cache,
                           pool, &r->interval, &r->interval_method));
  CFEST_ASSIGN_OR_RETURN(
      const uint64_t uncompressed,
      EstimateUncompressedIndexBytes(engine.table(), c.index,
                                     engine.options().base.build.page_size,
                                     epoch.table_rows()));
  const double page_cf =
      MeasureCF(est.sample_uncompressed, est.sample_compressed,
                SizeMetric::kPageBytes)
          .value;
  r->sized.config = c;
  r->sized.estimated_cf = page_cf;
  r->sized.uncompressed_bytes = uncompressed;
  r->sized.estimated_bytes = static_cast<uint64_t>(
      std::llround(page_cf * static_cast<double>(uncompressed)));
  r->sized.sample_rows = est.sample_rows;
  r->cf = est.cf.value;
  r->rows_sampled = est.sample_rows;
  // Accumulate, never overwrite: the round loop re-estimates into the same
  // persistent result each round, so this sums the candidate's per-round
  // sizing work (attribution that survives convergence dropout).
  r->cumulative_rows_sized += est.sample_rows;
  MetricsFor(engine).rows_sized->Add(est.sample_rows);
  r->target_half_width = target.rel_error * std::max(r->cf, target.cf_floor);
  return Status::OK();
}

/// Rows the candidate's interval says it needs for its target half-width,
/// by the interval's own shrinkage law: Theorem-1 closed form for the
/// distribution-free bound, linear extrapolation when the unseen-mass
/// floor (1/r) binds, 1/sqrt(r) otherwise.
uint64_t NeededRowsFor(const AdaptiveCandidateResult& r, uint64_t rows,
                       double z) {
  // The upper half-width: unlike (upper - lower) / 2 it is immune to the
  // zero-clamping of the lower bound, which would otherwise understate the
  // width for small-CF candidates and both converge them early and
  // under-extrapolate the rows they need.
  const double half = r.interval.upper - r.cf;
  if (r.interval_method == kMethodTheorem1) {
    return SampleSizeForHalfWidth(r.target_half_width, z);
  }
  if (half <= UnseenMassFloor(z, rows) * 1.000001) {
    // Floor-bound interval: the unseen-mass floor shrinks as 1/r, not
    // 1/sqrt(r), so extrapolate linearly — the quadratic law would
    // overshoot the needed rows by half/target.
    return static_cast<uint64_t>(std::ceil(
        static_cast<double>(rows) * half / r.target_half_width));
  }
  return EstimateNeededSampleRows(half, rows, r.target_half_width);
}

}  // namespace

Result<std::vector<CandidateIntervalResult>> EstimateCandidateIntervals(
    EstimationEngine& engine,
    std::span<const CandidateConfiguration> candidates, double num_sigmas,
    uint32_t interval_groups, ThreadPool* pool) {
  // One pinned epoch for the whole batch: every candidate's CF' and
  // interval come from the same sample snapshot, and the fan-out below
  // never touches the engine mutex.
  CFEST_ASSIGN_OR_RETURN(std::shared_ptr<const SampleEpoch> epoch,
                         engine.PinEpoch());
  GroupIndexCache cache;
  std::vector<CandidateIntervalResult> results(candidates.size());
  CFEST_RETURN_NOT_OK(StatusParallelFor(
      pool, KeySetInterleavedOrder(candidates), [&](size_t i) -> Status {
        CandidateIntervalResult& r = results[i];
        if (IsUncompressedScheme(candidates[i].scheme)) {
          r.cf = 1.0;
          r.interval = ConfidenceInterval{1.0, 1.0, num_sigmas};
          r.method = kMethodExact;
          return Status::OK();
        }
        CFEST_ASSIGN_OR_RETURN(
            SampleCFResult est,
            EstimateWithInterval(engine, *epoch, candidates[i], num_sigmas,
                                 interval_groups, cache, pool, &r.interval,
                                 &r.method));
        r.cf = est.cf.value;
        return Status::OK();
      }));
  return results;
}

AdaptiveEstimator::AdaptiveEstimator(EstimationEngine& engine,
                                     PrecisionTarget target, ThreadPool* pool)
    : engine_(engine), target_(std::move(target)), pool_(pool) {}

Result<AdaptiveBatchResult> AdaptiveEstimator::EstimateAll(
    std::span<const CandidateConfiguration> candidates) {
  CFEST_RETURN_NOT_OK(ValidateTarget(target_));
  CFEST_ASSIGN_OR_RETURN(const double z,
                         NumSigmasForConfidence(target_.confidence));

  AdaptiveBatchResult batch;
  batch.candidates.resize(candidates.size());
  AdaptiveTableReport report;
  if (!candidates.empty()) report.table_name = candidates[0].table_name;

  // Uncompressed candidates are exact — no sampling (no epoch, no draw),
  // converged at once.
  std::vector<size_t> active;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (IsUncompressedScheme(candidates[i].scheme)) {
      AdaptiveCandidateResult& r = batch.candidates[i];
      CFEST_ASSIGN_OR_RETURN(r.sized, engine_.EstimateExact(candidates[i]));
      r.cf = 1.0;
      r.interval = ConfidenceInterval{1.0, 1.0, z};
      r.interval_method = kMethodExact;
      r.converged = true;
    } else {
      active.push_back(i);
    }
  }

  const uint64_t cap =
      RowCapForTarget(target_, engine_.table().num_rows());

  if (!active.empty()) {
    // First round runs on the engine's base-fraction draw, floored at
    // min_rows so the replicate intervals have something to work with.
    // Each round pins the epoch its growth produced and estimates every
    // candidate against that one snapshot — the round is immune to
    // concurrent appends, and the fan-out never touches the engine mutex.
    CFEST_ASSIGN_OR_RETURN(
        std::shared_ptr<const SampleEpoch> epoch,
        engine_.GrowSampleToEpoch(
            std::min(cap, std::max<uint64_t>(1, target_.min_rows))));

    while (true) {
      trace::Span round_span("adaptive.round");
      ++report.rounds;
      MetricsFor(engine_).rounds->Increment();
      const uint64_t rows = epoch->sample_rows();
      report.rows_per_round.push_back(rows);
      const uint32_t round = report.rounds;
      // Replicate index builds are shared across every scheme ranked on
      // the same key set this round (the sample is fixed within a round).
      GroupIndexCache group_cache;

      CFEST_RETURN_NOT_OK(StatusParallelFor(
          pool_, KeySetInterleavedOrder(candidates, active),
          [&](size_t i) -> Status {
            AdaptiveCandidateResult& r = batch.candidates[i];
            CFEST_RETURN_NOT_OK(EstimateCandidateNow(engine_, *epoch,
                                                     candidates[i], z, target_,
                                                     group_cache, pool_, &r));
            r.rounds = round;
            return Status::OK();
          }));

      // Converged candidates drop out; the rest vote on the next size.
      std::vector<size_t> still_active;
      uint64_t max_needed = 0;
      for (size_t i : active) {
        AdaptiveCandidateResult& r = batch.candidates[i];
        if (r.interval.upper - r.cf <= r.target_half_width) {
          r.converged = true;
          continue;
        }
        max_needed = std::max(max_needed, NeededRowsFor(r, rows, z));
        still_active.push_back(i);
      }
      active = std::move(still_active);
      if (active.empty()) break;
      if (rows >= cap || report.rounds >= target_.max_rounds) {
        report.budget_exhausted = true;
        break;
      }
      // Geometric floor guarantees O(log) rounds; the extrapolated need
      // may jump further in one step.
      const uint64_t geometric = static_cast<uint64_t>(std::ceil(
          static_cast<double>(rows) * target_.growth_factor));
      const uint64_t next = std::min(cap, std::max(max_needed, geometric));
      CFEST_ASSIGN_OR_RETURN(epoch, engine_.GrowSampleToEpoch(next));
      MetricsFor(engine_).growth_steps->Increment();
      if (epoch->sample_rows() <= rows) {  // table exhausted below the cap
        report.budget_exhausted = true;
        break;
      }
    }
  }

  report.final_sample_rows = engine_.sample_rows();
  batch.total_sample_rows = report.final_sample_rows;
  batch.rounds = report.rounds;
  batch.budget_exhausted = report.budget_exhausted;
  batch.tables.push_back(std::move(report));
  return batch;
}

CandidateRefiner::CandidateRefiner(EstimationEngine& engine,
                                   PrecisionTarget target, double num_sigmas,
                                   ThreadPool* pool)
    : engine_(&engine),
      target_(std::move(target)),
      num_sigmas_(num_sigmas),
      cap_(RowCapForTarget(target_, engine.table().num_rows())),
      pool_(pool) {}

CandidateRefiner::CandidateRefiner(CandidateRefiner&& other) noexcept
    : engine_(other.engine_),
      target_(std::move(other.target_)),
      num_sigmas_(other.num_sigmas_),
      cap_(other.cap_),
      pool_(other.pool_),
      rounds_(other.rounds_),
      cache_version_(other.cache_version_),
      cache_(std::move(other.cache_)) {}

CandidateRefiner& CandidateRefiner::operator=(
    CandidateRefiner&& other) noexcept {
  engine_ = other.engine_;
  target_ = std::move(other.target_);
  num_sigmas_ = other.num_sigmas_;
  cap_ = other.cap_;
  pool_ = other.pool_;
  rounds_ = other.rounds_;
  cache_version_ = other.cache_version_;
  cache_ = std::move(other.cache_);
  return *this;
}

CandidateRefiner::~CandidateRefiner() = default;

Result<CandidateRefiner> CandidateRefiner::Make(EstimationEngine& engine,
                                                PrecisionTarget target,
                                                ThreadPool* pool) {
  CFEST_RETURN_NOT_OK(ValidateTarget(target));
  CFEST_ASSIGN_OR_RETURN(const double z,
                         NumSigmasForConfidence(target.confidence));
  return CandidateRefiner(engine, std::move(target), z, pool);
}

Result<CandidateRefiner::PinnedCache> CandidateRefiner::CurrentCache() {
  // Pinning draws the sample on first use; the epoch's version identifies
  // the sample the cache entries are built on, and handing both back as a
  // pair keeps them coherent even if the engine grows concurrently.
  CFEST_ASSIGN_OR_RETURN(std::shared_ptr<const SampleEpoch> epoch,
                         engine_->PinEpoch());
  MutexLock lock(cache_mu_);
  if (cache_ == nullptr || epoch->version() != cache_version_) {
    cache_ = std::make_shared<internal::GroupIndexCache>();
    cache_version_ = epoch->version();
  }
  return PinnedCache{std::move(epoch), cache_};
}

Result<AdaptiveCandidateResult> CandidateRefiner::EstimateAtCurrentSample(
    const CandidateConfiguration& candidate) {
  AdaptiveCandidateResult r;
  if (IsUncompressedScheme(candidate.scheme)) {
    CFEST_ASSIGN_OR_RETURN(r.sized, engine_->EstimateExact(candidate));
    r.cf = 1.0;
    r.interval = ConfidenceInterval{1.0, 1.0, num_sigmas_};
    r.interval_method = kMethodExact;
    r.converged = true;
    return r;
  }
  CFEST_ASSIGN_OR_RETURN(PinnedCache pinned, CurrentCache());
  CFEST_RETURN_NOT_OK(EstimateCandidateNow(*engine_, *pinned.epoch, candidate,
                                           num_sigmas_, target_,
                                           *pinned.cache, pool_, &r));
  r.rounds = rounds_;
  r.converged = r.interval.upper - r.cf <= r.target_half_width;
  return r;
}

Result<AdaptiveCandidateResult> CandidateRefiner::RefineUntil(
    const CandidateConfiguration& candidate,
    const std::function<bool(const AdaptiveCandidateResult&)>& done,
    uint64_t min_rows) {
  if (IsUncompressedScheme(candidate.scheme)) {
    return EstimateAtCurrentSample(candidate);  // exact, no sampling
  }
  // EstimateAtCurrentSample returns a fresh result each call, so its
  // cumulative counter covers only that one estimate; carry the running
  // total across iterations here and stamp it before every return.
  uint64_t cumulative_rows = 0;
  while (true) {
    CFEST_ASSIGN_OR_RETURN(AdaptiveCandidateResult r,
                           EstimateAtCurrentSample(candidate));
    cumulative_rows += r.cumulative_rows_sized;
    r.cumulative_rows_sized = cumulative_rows;
    const uint64_t rows = r.rows_sampled;
    if (r.converged && rows >= min_rows) return r;
    if (done != nullptr && done(r)) return r;
    if (rows >= cap_ || rounds_ >= target_.max_rounds) return r;  // budget
    // Geometric floor guarantees O(log) rounds; the extrapolated need may
    // jump further in one step — the round loop's schedule with this
    // candidate as the only voter. A converged-but-below-floor candidate
    // grows straight to the floor.
    const uint64_t geometric = static_cast<uint64_t>(std::ceil(
        static_cast<double>(rows) * target_.growth_factor));
    const uint64_t needed =
        r.converged ? min_rows
                    : std::max(NeededRowsFor(r, rows, num_sigmas_), min_rows);
    const uint64_t next = std::min(cap_, std::max(needed, geometric));
    CFEST_ASSIGN_OR_RETURN(const uint64_t grown, engine_->GrowSample(next));
    MetricsFor(*engine_).growth_steps->Increment();
    ++rounds_;
    if (grown <= rows) return r;  // table exhausted below the nominal cap
  }
}

Result<AdaptiveBatchResult> EstimateAllAdaptive(
    CatalogEstimationService& service,
    std::span<const CandidateConfiguration> candidates,
    const PrecisionTarget& target) {
  CFEST_ASSIGN_OR_RETURN(
      std::vector<CatalogEstimationService::TableGroup> groups,
      service.GroupByTable(candidates));

  // The per-table loops are fully independent (separate engines, separate
  // samples), so they fan across the shared pool, and each loop fans its
  // candidates and their chains across the same pool: a nested fan-out
  // cannot deadlock, since every caller drains its own range.
  ThreadPool* pool =
      service.options().num_threads == 1 ? nullptr : service.shared_pool();
  std::vector<AdaptiveBatchResult> subs(groups.size());
  CFEST_RETURN_NOT_OK(StatusParallelFor(
      pool, groups.size(), [&](uint64_t g) -> Status {
        const std::vector<size_t>& members = groups[g].members;
        std::vector<CandidateConfiguration> group;
        group.reserve(members.size());
        for (size_t i : members) group.push_back(candidates[i]);
        AdaptiveEstimator estimator(*groups[g].engine, target, pool);
        CFEST_ASSIGN_OR_RETURN(subs[g], estimator.EstimateAll(group));
        return Status::OK();
      }));

  AdaptiveBatchResult merged;
  merged.candidates.resize(candidates.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<size_t>& members = groups[g].members;
    for (size_t k = 0; k < members.size(); ++k) {
      merged.candidates[members[k]] = std::move(subs[g].candidates[k]);
    }
    AdaptiveTableReport report = std::move(subs[g].tables[0]);
    report.table_name = groups[g].table_name;
    merged.total_sample_rows += report.final_sample_rows;
    merged.rounds = std::max(merged.rounds, report.rounds);
    merged.budget_exhausted =
        merged.budget_exhausted || report.budget_exhausted;
    merged.tables.push_back(std::move(report));
  }
  return merged;
}

}  // namespace cfest
