// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// EstimationEngine — one sample, many candidates, many concurrent callers.
//
// The paper's §II-C observes that a single random sample can be reused
// across estimations: a physical-design advisor sizing dozens of candidate
// (index, compression-scheme) pairs does not need a fresh sample per
// candidate. The engine exploits that two ways:
//
//   1. The sample is drawn once per engine (zero-copy TableView, no row
//      bytes copied) and shared by every estimate.
//   2. The sorted sample index is cached per distinct key set, so every
//      compression scheme ranked on the same index reuses one build.
//
// Estimates are bit-identical to single-shot SampleCF under the same seed:
// the engine runs the same draw, build, and compress pipeline, just without
// the redundancy.
//
// The engine is the per-table primitive layer. Batching, parallel fan-out,
// adaptive growth across a batch, and advising all go through the one front
// door, CatalogEstimationService (estimator/service.h); a standalone table
// is a one-table Catalog.
//
// Concurrency is epoch-based (estimator/epoch.h). All read-path state — the
// sample view, the table-size snapshot used for full-index scaling, the
// sample version, the sorted-index cache — lives in an immutable refcounted
// SampleEpoch published through one atomic shared_ptr. Estimates pin the
// current epoch with a single atomic load and never take the engine mutex;
// NotifyAppend and GrowSample build a successor epoch off to the side under
// the writer mutex and publish it with one atomic swap. Refresh therefore
// no longer requires quiescing in-flight estimates: a pinned epoch stays
// fully valid (and its results bit-identical to a quiesced run at that
// epoch) until the last reader drops it.
//
// For long-lived service use, the engine can maintain its sample as a
// fixed-capacity reservoir (options.maintain_reservoir): the initial draw
// is Vitter's Algorithm R over row ids, and NotifyAppend folds newly
// appended base-table rows into the same RNG stream. Because Algorithm R is
// a streaming algorithm, the incrementally maintained reservoir is
// identical to the one a fresh engine would draw over the grown table in
// one pass — re-estimation after growth needs O(delta) RNG work, not O(n).
// Cached sample indexes are carried across a refresh: each is patched at
// just the reservoir slots the append wrote (an append whose rows are all
// rejected costs nothing), so re-estimation after growth needs no index
// rebuild either.

#ifndef CFEST_ESTIMATOR_ENGINE_H_
#define CFEST_ESTIMATOR_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/random.h"
#include "common/result.h"
#include "compression/scheme.h"
#include "estimator/epoch.h"
#include "estimator/sample_cf.h"
#include "index/index.h"
#include "sampling/reservoir.h"
#include "storage/table.h"
#include "storage/table_view.h"

namespace cfest {

/// \brief A candidate physical-design structure for the advisor.
struct CandidateConfiguration {
  /// Table the index would be built on (catalog name, for reporting).
  std::string table_name;
  IndexDescriptor index;
  CompressionScheme scheme;
  /// Workload benefit if this candidate is materialized (supplied by the
  /// caller's cost model; the advisor maximizes the sum).
  double benefit = 0.0;
};

/// \brief A candidate with its estimated storage footprint.
struct SizedCandidate {
  CandidateConfiguration config;
  /// CF' from SampleCF (1.0 for uncompressed candidates).
  double estimated_cf = 1.0;
  /// Estimated on-disk pages * page size for the *full* index.
  uint64_t estimated_bytes = 0;
  /// Size the uncompressed index would have (page-granular).
  uint64_t uncompressed_bytes = 0;
  /// Sample rows the estimate was computed from (0 for uncompressed
  /// candidates, which are sized from schema arithmetic alone).
  uint64_t sample_rows = 0;
};

/// True when `scheme` is an "uncompressed" candidate: no per-column
/// overrides and default kNone. Such candidates are sized from schema
/// arithmetic alone (no sampling). Shared with the adaptive layer so both
/// classify candidates identically.
bool IsUncompressedScheme(const CompressionScheme& scheme);

/// Uncompressed full-index size (page-granular) from schema arithmetic
/// alone — no build needed, mirroring how design tools size uncompressed
/// indexes "in a straightforward manner from the schema" (paper §I).
/// `num_rows_override` supplies the row count n to size for; nullopt reads
/// the table's live count (epoch-pinned callers pass the epoch's snapshot
/// so concurrent appends cannot skew the scaling mid-estimate).
Result<uint64_t> EstimateUncompressedIndexBytes(
    const Table& table, const IndexDescriptor& index,
    size_t page_size = kDefaultPageSize,
    std::optional<uint64_t> num_rows_override = std::nullopt);

/// \brief Configuration of an EstimationEngine.
struct EstimationEngineOptions {
  /// Sampling fraction, sampler, metric, and index-build options shared by
  /// every estimate the engine serves.
  SampleCFOptions base;
  /// Seeds the one-time sample draw (ignored when `rng` is set).
  uint64_t seed = 42;
  /// Optional external generator for the draw; useful when the engine must
  /// consume randomness from a caller-owned stream exactly like single-shot
  /// SampleCF would. Must outlive the draw (first estimate). Incompatible
  /// with maintain_reservoir (the engine must own the stream so appends can
  /// resume it).
  Random* rng = nullptr;
  /// Maintain the sample as a fixed-capacity reservoir over row ids
  /// (Vitter's Algorithm R seeded from `seed`) instead of a frozen draw
  /// from base.sampler. Required for NotifyAppend; base.sampler is ignored
  /// in this mode.
  bool maintain_reservoir = false;
  /// Reservoir capacity r when maintain_reservoir is set. 0 derives
  /// max(1, round(base.fraction * num_rows)) at the first draw — note the
  /// derived value then depends on the table size at that moment, so
  /// callers comparing engines across differently grown tables should pin
  /// an explicit capacity.
  uint64_t reservoir_capacity = 0;
  /// Metric label: when non-empty, the engine's `cfest.engine.*` counters
  /// register as the {table=<table_name>} child of each family (the
  /// service sets this to the catalog name), so snapshots split per table
  /// while the family aggregate stays the engine-wide total. Empty keeps
  /// the unlabeled child (standalone engines).
  std::string table_name;
};

/// \brief Batched, cached CF estimation over one table.
///
/// Thread-safe: estimates pin the current SampleEpoch (one atomic load, no
/// engine mutex) and may run concurrently with each other AND with
/// NotifyAppend/GrowSample — writers publish successor epochs without
/// quiescing readers. The engine holds a reference to the base table; the
/// table must outlive it.
class EstimationEngine {
 public:
  explicit EstimationEngine(const Table& table,
                            EstimationEngineOptions options = {});

  const Table& table() const { return table_; }
  const EstimationEngineOptions& options() const { return options_; }

  // -------------------------------------------------------------------
  // Epoch-pinned read path (steady-state: one atomic load, no mutex)
  // -------------------------------------------------------------------

  /// Pins the current epoch: a refcounted snapshot of the sample state
  /// that stays valid — and keeps producing bit-identical estimates — no
  /// matter how many refreshes are published afterwards. Draws the initial
  /// sample (under the writer mutex) if no epoch exists yet; every later
  /// pin is the lock-free fast path (CacheStats.lock_free_pins counts
  /// them, locked_pins counts first-draw fallthroughs).
  Result<std::shared_ptr<const SampleEpoch>> PinEpoch();

  /// The current epoch without drawing: nullptr before the first sample.
  std::shared_ptr<const SampleEpoch> CurrentEpoch() const {
    return epoch_.load(std::memory_order_acquire);
  }

  /// The sorted sample index for `descriptor` at `epoch`, built at most
  /// once per distinct (key_columns, clustered) pair per epoch.
  Result<std::shared_ptr<const Index>> SampleIndexAt(
      const SampleEpoch& epoch, const IndexDescriptor& descriptor) const;

  /// SampleCF on the epoch's sample under the engine's base metric. At the
  /// initial epoch this equals SampleCF(table, descriptor, scheme,
  /// options.base, Random(seed)) bit for bit.
  Result<SampleCFResult> EstimateCFAt(const SampleEpoch& epoch,
                                      const IndexDescriptor& descriptor,
                                      const CompressionScheme& scheme) const;

  /// SampleCF on the epoch's sample under an explicit metric.
  Result<SampleCFResult> EstimateCFWithMetricAt(
      const SampleEpoch& epoch, const IndexDescriptor& descriptor,
      const CompressionScheme& scheme, SizeMetric metric) const;

  /// Compresses the epoch's cached sample index with `scheme`.
  Result<CompressedIndex> CompressOnSampleAt(
      const SampleEpoch& epoch, const IndexDescriptor& descriptor,
      const CompressionScheme& scheme) const;

  /// What-if sizes one candidate at `epoch` (CF' scaled to the full-index
  /// footprint using the epoch's table-size snapshot). Pure function of
  /// (epoch, candidate): concurrent appends cannot perturb the result.
  Result<SizedCandidate> EstimateAt(
      const SampleEpoch& epoch, const CandidateConfiguration& candidate) const;

  /// Exact schema-formula sizing for an uncompressed candidate: no sample
  /// (and hence no epoch, pin, or draw) is involved, so a purely
  /// uncompressed workload never triggers a draw. InvalidArgument when the
  /// scheme compresses any column.
  Result<SizedCandidate> EstimateExact(
      const CandidateConfiguration& candidate) const;

  /// Rows in the current epoch's sample; 0 before the first draw.
  uint64_t sample_rows() const;

  // -------------------------------------------------------------------
  // Write path (serialized on the writer mutex; never blocks readers)
  // -------------------------------------------------------------------

  /// Grows the sample to at least `target_rows` rows (clamped to the
  /// epoch's table-size snapshot — the fraction-1.0 draw), drawing it
  /// first at the configured base fraction if needed, and returns the
  /// pinned epoch holding the grown sample. A target at or below the
  /// current size returns the current epoch.
  ///
  /// Default (frozen-draw) engines must use the default uniform-with-
  /// replacement sampler and an engine-owned RNG (no options.rng): growth
  /// resumes the seed's draw stream, so the grown sample is bit-identical
  /// to a fresh draw of target_rows ids under the same seed — every
  /// estimate after growth equals a fixed-fraction run at
  /// target_rows / num_rows. Growth is purely additive (the old sample is
  /// a prefix), so the successor epoch carries the predecessor's ready
  /// sample indexes with the appended positions. Growth itself patches
  /// nothing: each carried index is patched (Index::Patched, traced as
  /// `engine.index_patch`; CacheStats.index_extensions) by the first read
  /// of its key at the grown epoch, and a key nobody reads there is not
  /// carried again — a later read builds it.
  ///
  /// maintain_reservoir engines grow by replaying Algorithm R at the larger
  /// capacity over the already-consumed row-id stream (O(items seen) RNG
  /// work, no row bytes touched). The result again equals a fresh draw at
  /// the new capacity, and NotifyAppend keeps composing afterwards; the
  /// successor epoch starts with an empty index cache (reservoir growth
  /// shuffles contents).
  ///
  /// Safe to run concurrently with estimates: in-flight readers keep their
  /// pinned epoch; only callers pinning after the swap see the growth.
  Result<std::shared_ptr<const SampleEpoch>> GrowSampleToEpoch(
      uint64_t target_rows);

  /// GrowSampleToEpoch, reporting just the resulting sample row count.
  Result<uint64_t> GrowSample(uint64_t target_rows);

  /// Folds newly appended base-table rows [range.begin, range.end) into the
  /// maintained reservoir, continuing the Algorithm-R stream from the
  /// initial draw (the resulting reservoir equals a fresh one-pass draw
  /// over the grown table under the same seed and capacity), and publishes
  /// the successor epoch. If the reservoir contents changed,
  /// sample_version bumps and every ready sample index is carried into the
  /// successor the same way growth carries it, but patched here, on the
  /// calling thread, before the successor is published — at just the slots
  /// the append wrote (Index::Patched, traced as `engine.index_patch`;
  /// counted in index_extensions) — so requests after a refresh hit a
  /// warm cache. Entries it cannot carry are dropped and counted in
  /// invalidations: in-flight or failed builds, and clustered indexes with
  /// a replaced slot (their rows carry no __rid to order a replacement
  /// among equal keys). If every row was rejected, the successor keeps the
  /// predecessor's version and its whole index cache — only the table-size
  /// snapshot advances.
  ///
  /// Requires maintain_reservoir; `range` must start exactly where the rows
  /// already offered to the reservoir end (no gaps, no overlaps) and must
  /// not extend past the current table size. If the sample has not been
  /// drawn yet the call is a no-op — the eventual draw sees the full table.
  ///
  /// Safe to run concurrently with estimates (epoch swap; no quiescing).
  Status NotifyAppend(RowRange range);

  /// \brief Work-avoidance and concurrency counters (monotone over the
  /// engine's life; all fields are sampled from shared atomics).
  struct CacheStats {
    uint64_t samples_drawn = 0;
    uint64_t index_builds = 0;
    uint64_t index_cache_hits = 0;
    /// Carried sample indexes patched into a successor epoch — by the
    /// first read after frozen-draw growth, or by a NotifyAppend that
    /// changed the reservoir — each one a from-scratch build avoided.
    uint64_t index_extensions = 0;
    /// Predecessor entries a successor epoch can neither serve nor patch,
    /// one rule on every path: in-flight or failed builds, carried keys
    /// that were never read at the predecessor, and carried indexes whose
    /// patch fails (clustered indexes with a replaced slot). Reservoir
    /// capacity growth carries nothing, so it counts every entry. An
    /// append the reservoir rejects keeps the whole cache and counts none.
    uint64_t invalidations = 0;
    /// Version of the sample contents: 1 after the initial draw, +1 per
    /// refresh or growth that actually changed the sample. Each epoch's
    /// cached indexes are always consistent with its version.
    uint64_t sample_version = 0;
    /// Epoch pins served by the lock-free atomic load — the steady-state
    /// estimate path. After the initial draw, estimates only ever add
    /// here, never to locked_pins (service_test's ConcurrentServiceTest
    /// asserts exactly that; the e2e bench reports the per-request
    /// `engine.locked_pins` reading).
    uint64_t lock_free_pins = 0;
    /// Epoch pins that fell through to the writer mutex (initial draw).
    uint64_t locked_pins = 0;
    uint64_t epochs_published = 0;
    /// Epochs destroyed after their last reader unpinned them.
    uint64_t epochs_retired = 0;
  };
  CacheStats cache_stats() const;

 private:
  /// Draws the initial sample and publishes epoch 1. Caller holds mu_ and
  /// has checked that no epoch exists yet.
  Status DrawInitialLocked() REQUIRES(mu_);
  /// Builds and publishes a successor epoch over `view`. Caller holds mu_.
  std::shared_ptr<SampleEpoch> MakeEpochLocked(
      std::shared_ptr<const TableView> view, uint64_t table_rows)
      REQUIRES(mu_);
  void PublishLocked(std::shared_ptr<SampleEpoch> epoch) REQUIRES(mu_);
  /// The one carry path: records every ready index of `current` in `next`
  /// as patchable at the `changed` sample positions — patched on first
  /// read, or all before publication when `materialize` — and counts the
  /// entries of `current` that `next` cannot serve or patch as
  /// invalidations.
  void CarryIndexesLocked(const SampleEpoch& current, SampleEpoch* next,
                          std::vector<uint64_t> changed, bool materialize)
      REQUIRES(mu_);

  const Table& table_;
  EstimationEngineOptions options_;

  /// Shared with every published epoch (epochs can outlive the engine
  /// while pinned).
  std::shared_ptr<EpochCounters> counters_;

  /// The published epoch — the entire read path. Readers load it with one
  /// atomic operation and never touch mu_.
  std::atomic<std::shared_ptr<const SampleEpoch>> epoch_;

  /// Writer mutex: serializes the initial draw, NotifyAppend, and
  /// GrowSample. Guards the draw-stream state below; never held while an
  /// estimate runs.
  mutable Mutex mu_;
  /// Writer-side handle on the current sample view (== current epoch's).
  std::shared_ptr<const TableView> sample_ GUARDED_BY(mu_);
  /// Sample-contents version behind the current epoch.
  uint64_t version_ GUARDED_BY(mu_) = 0;
  /// Base-table rows the frozen draw was taken over (the n all frozen-mode
  /// epochs scale by; GrowSample resumes the draw stream against it).
  uint64_t draw_table_rows_ GUARDED_BY(mu_) = 0;

  /// Reservoir state (maintain_reservoir mode only): the Algorithm-R slot
  /// core, the RNG stream it consumes (resumed by NotifyAppend), and the
  /// slot storage — the row ids the current sample view is built from.
  std::optional<ReservoirSampler> reservoir_core_ GUARDED_BY(mu_);
  Random reservoir_rng_ GUARDED_BY(mu_){0};
  std::vector<RowId> reservoir_ids_ GUARDED_BY(mu_);

  /// The frozen-draw RNG stream (default mode, engine-owned seed only).
  /// Kept alive past the initial draw so GrowSample can resume it.
  Random draw_rng_ GUARDED_BY(mu_){0};
};

/// The engine's sample-index cache key for `descriptor`: one build per
/// distinct (key_columns, clustered) pair — the cosmetic name is excluded.
/// Shared with the adaptive layer's replicate-index cache and the service's
/// request coalescer so all three key identically.
std::string SampleIndexCacheKey(const IndexDescriptor& descriptor);

/// The order a candidate fan-out starts `members` (indices into
/// `candidates`) in: the first member of every key set — a (table,
/// SampleIndexCacheKey) pair — then each key set's second, and so on, each
/// round in input order (so input order holds within a key set). Members
/// on one key set share one sample-index build and one replicate build per
/// group, and all but one of them wait for it; started adjacently, they
/// block the pool's threads together while one thread builds.
std::vector<size_t> KeySetInterleavedOrder(
    std::span<const CandidateConfiguration> candidates,
    std::span<const size_t> members);
/// KeySetInterleavedOrder over every candidate.
std::vector<size_t> KeySetInterleavedOrder(
    std::span<const CandidateConfiguration> candidates);

}  // namespace cfest

#endif  // CFEST_ESTIMATOR_ENGINE_H_
