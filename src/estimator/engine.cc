#include "estimator/engine.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <utility>

#include "common/trace.h"
#include "storage/page.h"

namespace cfest {
namespace {

/// Width of one index row without building it.
Result<uint32_t> IndexRowWidth(const Table& table,
                               const IndexDescriptor& index) {
  uint32_t width = 0;
  std::vector<bool> used(table.schema().num_columns(), false);
  for (const std::string& name : index.key_columns) {
    CFEST_ASSIGN_OR_RETURN(size_t idx, table.schema().ColumnIndex(name));
    if (used[idx]) {
      return Status::InvalidArgument("duplicate key column " + name);
    }
    used[idx] = true;
    width += table.schema().width(idx);
  }
  if (index.clustered) {
    for (size_t i = 0; i < table.schema().num_columns(); ++i) {
      if (!used[i]) width += table.schema().width(i);
    }
  } else {
    width += 8;  // __rid
  }
  return width;
}

}  // namespace

std::string SampleIndexCacheKey(const IndexDescriptor& descriptor) {
  std::string key = descriptor.clustered ? "c" : "n";
  for (const std::string& col : descriptor.key_columns) {
    key += '\x1f';
    key += col;
  }
  return key;
}

std::vector<size_t> KeySetInterleavedOrder(
    std::span<const CandidateConfiguration> candidates,
    std::span<const size_t> members) {
  // A member's round is how many earlier members share its key set.
  std::map<std::pair<std::string, std::string>, uint32_t> seen;
  std::vector<uint32_t> round(members.size());
  for (size_t k = 0; k < members.size(); ++k) {
    const CandidateConfiguration& c = candidates[members[k]];
    round[k] = seen[{c.table_name, SampleIndexCacheKey(c.index)}]++;
  }
  std::vector<size_t> positions(members.size());
  std::iota(positions.begin(), positions.end(), size_t{0});
  std::stable_sort(positions.begin(), positions.end(),
                   [&](size_t a, size_t b) { return round[a] < round[b]; });
  std::vector<size_t> order;
  order.reserve(members.size());
  for (size_t k : positions) order.push_back(members[k]);
  return order;
}

std::vector<size_t> KeySetInterleavedOrder(
    std::span<const CandidateConfiguration> candidates) {
  std::vector<size_t> all(candidates.size());
  std::iota(all.begin(), all.end(), size_t{0});
  return KeySetInterleavedOrder(candidates, all);
}

bool IsUncompressedScheme(const CompressionScheme& scheme) {
  return scheme.per_column.empty() &&
         scheme.default_type == CompressionType::kNone;
}

Result<uint64_t> EstimateUncompressedIndexBytes(
    const Table& table, const IndexDescriptor& index, size_t page_size,
    std::optional<uint64_t> num_rows_override) {
  CFEST_ASSIGN_OR_RETURN(uint32_t width, IndexRowWidth(table, index));
  const uint64_t per_page =
      (page_size - kPageHeaderSize) / (width + kSlotSize);
  if (per_page == 0) {
    return Status::InvalidArgument("index row wider than a page");
  }
  const uint64_t n =
      num_rows_override.has_value() ? *num_rows_override : table.num_rows();
  const uint64_t leaves = n == 0 ? 1 : (n + per_page - 1) / per_page;
  // Internal fan-out: separator key + child pointer per entry.
  uint32_t key_width = 0;
  for (const std::string& name : index.key_columns) {
    CFEST_ASSIGN_OR_RETURN(size_t idx, table.schema().ColumnIndex(name));
    key_width += table.schema().width(idx);
  }
  const uint64_t fanout = std::max<uint64_t>(
      2, (page_size - kPageHeaderSize) / (key_width + 8 + kSlotSize));
  return (leaves + InternalPageCount(leaves, fanout)) * page_size;
}

EstimationEngine::EstimationEngine(const Table& table,
                                   EstimationEngineOptions options)
    : table_(table),
      options_(std::move(options)),
      counters_(std::make_shared<EpochCounters>(options_.table_name)) {}

std::shared_ptr<SampleEpoch> EstimationEngine::MakeEpochLocked(
    std::shared_ptr<const TableView> view, uint64_t table_rows) {
  return std::shared_ptr<SampleEpoch>(
      new SampleEpoch(std::move(view), version_, table_rows, counters_));
}

void EstimationEngine::PublishLocked(std::shared_ptr<SampleEpoch> epoch) {
  sample_ = epoch->sample_view();
  epoch_.store(std::shared_ptr<const SampleEpoch>(std::move(epoch)),
               std::memory_order_release);
}

Status EstimationEngine::DrawInitialLocked() {
  trace::Span span("engine.draw_sample");
  if (options_.maintain_reservoir) {
    if (options_.rng != nullptr) {
      return Status::InvalidArgument(
          "maintain_reservoir needs an engine-owned RNG stream (seed), not "
          "an external rng");
    }
    const uint64_t n = table_.num_rows();
    if (n == 0) {
      return Status::InvalidArgument("cannot sample an empty table");
    }
    uint64_t capacity = options_.reservoir_capacity;
    if (capacity == 0) {
      CFEST_RETURN_NOT_OK(CheckFraction(options_.base.fraction));
      capacity = std::max<uint64_t>(
          1, static_cast<uint64_t>(
                 std::llround(options_.base.fraction * static_cast<double>(n))));
    }
    reservoir_rng_.Seed(options_.seed);
    reservoir_core_.emplace(capacity);
    reservoir_ids_.clear();
    OfferIdRange(&*reservoir_core_, &reservoir_rng_, 0, n, &reservoir_ids_);
    CFEST_ASSIGN_OR_RETURN(
        std::unique_ptr<TableView> view,
        TableView::Make(table_, std::vector<RowId>(reservoir_ids_)));
    counters_->samples_drawn.Increment();
    ++version_;
    PublishLocked(MakeEpochLocked(std::move(view), n));
    return Status::OK();
  }

  std::unique_ptr<RowSampler> default_sampler;
  const RowSampler* sampler = options_.base.sampler;
  if (sampler == nullptr) {
    default_sampler = MakeUniformWithReplacementSampler();
    sampler = default_sampler.get();
  }
  draw_rng_.Seed(options_.seed);
  Random* rng = options_.rng != nullptr ? options_.rng : &draw_rng_;
  const uint64_t n = table_.num_rows();
  CFEST_ASSIGN_OR_RETURN(
      std::unique_ptr<TableView> view,
      sampler->SampleView(table_, options_.base.fraction, rng));
  draw_table_rows_ = n;
  counters_->samples_drawn.Increment();
  ++version_;
  PublishLocked(MakeEpochLocked(std::move(view), n));
  return Status::OK();
}

Result<std::shared_ptr<const SampleEpoch>> EstimationEngine::PinEpoch() {
  // Steady state: one atomic load, no mutex. The shared_ptr refcount is
  // the pin — the epoch (sample view, index cache, sizing snapshot) stays
  // valid however many successors are published while we hold it.
  std::shared_ptr<const SampleEpoch> epoch =
      epoch_.load(std::memory_order_acquire);
  if (epoch != nullptr) {
    counters_->lock_free_pins.Increment();
    return epoch;
  }
  MutexLock lock(mu_);
  epoch = epoch_.load(std::memory_order_acquire);
  if (epoch == nullptr) {
    CFEST_RETURN_NOT_OK(DrawInitialLocked());
    epoch = epoch_.load(std::memory_order_acquire);
  }
  counters_->locked_pins.Increment();
  return epoch;
}

Status EstimationEngine::NotifyAppend(RowRange range) {
  MutexLock lock(mu_);
  if (!options_.maintain_reservoir) {
    return Status::InvalidArgument(
        "NotifyAppend requires maintain_reservoir");
  }
  if (range.begin > range.end || range.end > table_.num_rows()) {
    return Status::OutOfRange(
        "append range [" + std::to_string(range.begin) + ", " +
        std::to_string(range.end) + ") does not address appended rows of a " +
        std::to_string(table_.num_rows()) + "-row table");
  }
  if (range.empty()) return Status::OK();
  // Not drawn yet: the eventual draw scans the whole (grown) table.
  std::shared_ptr<const SampleEpoch> current =
      epoch_.load(std::memory_order_acquire);
  if (current == nullptr) return Status::OK();
  if (range.begin != reservoir_core_->items_seen()) {
    return Status::InvalidArgument(
        "append range begins at row " + std::to_string(range.begin) +
        " but the reservoir has consumed rows up to " +
        std::to_string(reservoir_core_->items_seen()) +
        " (ranges must arrive contiguously)");
  }

  std::vector<uint64_t> written;
  OfferIdRange(&*reservoir_core_, &reservoir_rng_, range.begin, range.end,
               &reservoir_ids_, &written);
  if (written.empty()) {
    // Every appended row was rejected: the sample is unchanged, so the
    // successor epoch keeps the version AND the predecessor's whole index
    // cache (same snapshot map — in-flight builds included) and only the
    // table-size snapshot advances. In-flight readers are untouched.
    std::shared_ptr<SampleEpoch> next =
        MakeEpochLocked(sample_, reservoir_core_->items_seen());
    next->indexes_.store(
        current->indexes_.load(std::memory_order_acquire),
        std::memory_order_relaxed);
    PublishLocked(std::move(next));
    return Status::OK();
  }

  // The sample contents moved, but only at the written slots: publish a
  // successor epoch with a fresh view and every ready index patched at
  // those positions on this thread, so requests after the refresh find
  // them cached. Readers pinned to the predecessor keep estimating against
  // it unharmed.
  CFEST_ASSIGN_OR_RETURN(
      std::unique_ptr<TableView> view,
      TableView::Make(table_, std::vector<RowId>(reservoir_ids_)));
  ++version_;
  std::shared_ptr<SampleEpoch> next =
      MakeEpochLocked(std::move(view), reservoir_core_->items_seen());
  CarryIndexesLocked(*current, next.get(), std::move(written),
                     /*materialize=*/true);
  PublishLocked(std::move(next));
  return Status::OK();
}

void EstimationEngine::CarryIndexesLocked(const SampleEpoch& current,
                                          SampleEpoch* next,
                                          std::vector<uint64_t> changed,
                                          bool materialize) {
  uint64_t carried = next->CarryFrom(current, std::move(changed));
  if (materialize) carried = next->MaterializeCarried(options_.base.build);
  counters_->invalidations.Add(current.CachedIndexCount() - carried);
}

uint64_t EstimationEngine::sample_rows() const {
  std::shared_ptr<const SampleEpoch> epoch =
      epoch_.load(std::memory_order_acquire);
  return epoch == nullptr ? 0 : epoch->sample_rows();
}

Result<std::shared_ptr<const SampleEpoch>> EstimationEngine::GrowSampleToEpoch(
    uint64_t target_rows) {
  CFEST_RETURN_NOT_OK(PinEpoch().status());
  trace::Span span("engine.grow_sample");
  MutexLock lock(mu_);
  std::shared_ptr<const SampleEpoch> current =
      epoch_.load(std::memory_order_acquire);
  const uint64_t current_rows = sample_->num_rows();
  // Fraction is capped at 1.0, so the largest comparable fixed-f draw is
  // one id per consumed table row; clamp to the draw-stream snapshot
  // instead of overshooting that contract (the live table size may be
  // racing ahead under concurrent appends).
  const uint64_t table_limit = options_.maintain_reservoir
                                   ? reservoir_core_->items_seen()
                                   : draw_table_rows_;
  const uint64_t target = std::min(target_rows, table_limit);
  if (target <= current_rows) return current;

  if (options_.maintain_reservoir) {
    // Capacity growth is not stream-resumable (a larger reservoir fills
    // longer before its first RNG draw), so replay the consumed row-id
    // stream from the seed at the new capacity: O(items seen) RNG work,
    // no row bytes touched, and the result *is* the fresh draw at the new
    // capacity — NotifyAppend keeps resuming the replayed stream.
    const uint64_t items_seen = reservoir_core_->items_seen();
    reservoir_rng_.Seed(options_.seed);
    reservoir_core_.emplace(target);
    reservoir_ids_.clear();
    OfferIdRange(&*reservoir_core_, &reservoir_rng_, 0, items_seen,
                 &reservoir_ids_);
    CFEST_ASSIGN_OR_RETURN(
        std::unique_ptr<TableView> view,
        TableView::Make(table_, std::vector<RowId>(reservoir_ids_)));
    counters_->invalidations.Add(current->CachedIndexCount());
    ++version_;
    PublishLocked(MakeEpochLocked(std::move(view), items_seen));
    return epoch_.load(std::memory_order_acquire);
  }

  if (options_.rng != nullptr) {
    return Status::InvalidArgument(
        "GrowSample needs an engine-owned RNG stream (seed), not an "
        "external rng");
  }
  if (options_.base.sampler != nullptr) {
    return Status::InvalidArgument(
        "GrowSample requires the default uniform-with-replacement sampler "
        "(growth resumes its draw stream)");
  }

  // Resume the seed's with-replacement draw stream: ids [current, target)
  // are exactly the ids a fresh draw of `target` rows would append after
  // the first `current`, so the grown sample equals a fixed-fraction draw
  // at target / num_rows under the same seed.
  std::vector<RowId> grown_ids = sample_->row_ids();
  grown_ids.reserve(static_cast<size_t>(target));
  for (uint64_t i = current_rows; i < target; ++i) {
    grown_ids.push_back(draw_rng_.NextBounded(draw_table_rows_));
  }
  CFEST_ASSIGN_OR_RETURN(std::unique_ptr<TableView> grown,
                         TableView::Make(table_, std::move(grown_ids)));

  ++version_;
  std::shared_ptr<SampleEpoch> next =
      MakeEpochLocked(std::move(grown), draw_table_rows_);

  // Growth is additive (the old sample is a prefix of the grown one), so
  // every ready index of the predecessor is carried with the appended
  // positions [current, target). The grower reads about one of them at the
  // new size; each is patched by its first read, not here.
  std::vector<uint64_t> appended(static_cast<size_t>(target - current_rows));
  std::iota(appended.begin(), appended.end(), current_rows);
  CarryIndexesLocked(*current, next.get(), std::move(appended),
                     /*materialize=*/false);
  PublishLocked(std::move(next));
  return epoch_.load(std::memory_order_acquire);
}

Result<uint64_t> EstimationEngine::GrowSample(uint64_t target_rows) {
  CFEST_ASSIGN_OR_RETURN(std::shared_ptr<const SampleEpoch> epoch,
                         GrowSampleToEpoch(target_rows));
  return epoch->sample_rows();
}

Result<std::shared_ptr<const Index>> EstimationEngine::SampleIndexAt(
    const SampleEpoch& epoch, const IndexDescriptor& descriptor) const {
  return epoch.SampleIndex(descriptor, options_.base.build);
}

Result<SampleCFResult> EstimationEngine::EstimateCFWithMetricAt(
    const SampleEpoch& epoch, const IndexDescriptor& descriptor,
    const CompressionScheme& scheme, SizeMetric metric) const {
  CFEST_ASSIGN_OR_RETURN(std::shared_ptr<const Index> index,
                         SampleIndexAt(epoch, descriptor));
  trace::Span span("engine.compress");
  CFEST_ASSIGN_OR_RETURN(CompressedIndex compressed,
                         index->Compress(scheme, options_.base.build));

  SampleCFResult result;
  result.cf = MeasureCF(index->stats(), compressed.stats(), metric);
  result.sample_rows = index->num_rows();
  result.sample_dictionary_entries = compressed.stats().dictionary_entries;
  result.sample_uncompressed = index->stats();
  result.sample_compressed = compressed.stats();
  return result;
}

Result<SampleCFResult> EstimationEngine::EstimateCFAt(
    const SampleEpoch& epoch, const IndexDescriptor& descriptor,
    const CompressionScheme& scheme) const {
  return EstimateCFWithMetricAt(epoch, descriptor, scheme,
                                options_.base.metric);
}

Result<CompressedIndex> EstimationEngine::CompressOnSampleAt(
    const SampleEpoch& epoch, const IndexDescriptor& descriptor,
    const CompressionScheme& scheme) const {
  CFEST_ASSIGN_OR_RETURN(std::shared_ptr<const Index> index,
                         SampleIndexAt(epoch, descriptor));
  return index->Compress(scheme, options_.base.build);
}

Result<SizedCandidate> EstimationEngine::EstimateAt(
    const SampleEpoch& epoch, const CandidateConfiguration& candidate) const {
  trace::Span span("engine.estimate");
  // Per-(table, scheme-family) traffic attribution: the labeled child was
  // resolved when the counter block was built, so this is a plain array
  // index plus one sharded add.
  const size_t scheme = static_cast<size_t>(candidate.scheme.default_type);
  if (scheme < counters_->estimates_by_scheme.size()) {
    counters_->estimates_by_scheme[scheme].Increment();
  }
  SizedCandidate sized;
  sized.config = candidate;
  CFEST_ASSIGN_OR_RETURN(
      sized.uncompressed_bytes,
      EstimateUncompressedIndexBytes(table_, candidate.index,
                                     options_.base.build.page_size,
                                     epoch.table_rows()));

  if (IsUncompressedScheme(candidate.scheme)) {
    sized.estimated_cf = 1.0;
    sized.estimated_bytes = sized.uncompressed_bytes;
    return sized;
  }

  // Capacity planners size whole pages on disk, hence the page metric.
  CFEST_ASSIGN_OR_RETURN(
      SampleCFResult result,
      EstimateCFWithMetricAt(epoch, candidate.index, candidate.scheme,
                             SizeMetric::kPageBytes));
  sized.estimated_cf = result.cf.value;
  sized.estimated_bytes = static_cast<uint64_t>(std::llround(
      result.cf.value * static_cast<double>(sized.uncompressed_bytes)));
  sized.sample_rows = result.sample_rows;
  return sized;
}

Result<SizedCandidate> EstimationEngine::EstimateExact(
    const CandidateConfiguration& candidate) const {
  if (!IsUncompressedScheme(candidate.scheme)) {
    return Status::InvalidArgument(
        "EstimateExact requires an uncompressed scheme");
  }
  SizedCandidate sized;
  sized.config = candidate;
  CFEST_ASSIGN_OR_RETURN(
      sized.uncompressed_bytes,
      EstimateUncompressedIndexBytes(table_, candidate.index,
                                     options_.base.build.page_size));
  sized.estimated_cf = 1.0;
  sized.estimated_bytes = sized.uncompressed_bytes;
  return sized;
}

EstimationEngine::CacheStats EstimationEngine::cache_stats() const {
  CacheStats stats;
  // Reads the same metrics::Counter objects the registry aggregates, so
  // this compat struct and a MetricRegistry snapshot agree bit for bit.
  stats.samples_drawn = counters_->samples_drawn.Value();
  stats.index_builds = counters_->index_builds.Value();
  stats.index_cache_hits = counters_->index_cache_hits.Value();
  stats.index_extensions = counters_->index_extensions.Value();
  stats.invalidations = counters_->invalidations.Value();
  stats.lock_free_pins = counters_->lock_free_pins.Value();
  stats.locked_pins = counters_->locked_pins.Value();
  stats.epochs_published = counters_->epochs_published.Value();
  stats.epochs_retired = counters_->epochs_retired.Value();
  std::shared_ptr<const SampleEpoch> epoch =
      epoch_.load(std::memory_order_acquire);
  stats.sample_version = epoch == nullptr ? 0 : epoch->version();
  return stats;
}

}  // namespace cfest
