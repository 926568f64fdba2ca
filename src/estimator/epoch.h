// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// SampleEpoch — the immutable, refcounted read-path state of one engine
// sample generation.
//
// The engine used to keep one mutable sample (view + cached sorted sample
// indexes) behind its mutex, which forced every refresh (NotifyAppend /
// GrowSample) to quiesce all in-flight estimates. An epoch snapshot breaks
// that coupling, RCU-style:
//
//   - Everything an estimate reads — the sample view, the table-size
//     snapshot the full-index scaling uses, the sample version, and the
//     per-key-set sorted-index cache — lives in one immutable SampleEpoch.
//   - Readers pin the current epoch with a single atomic shared_ptr load
//     (EstimationEngine::PinEpoch) and never touch the engine mutex on the
//     steady-state path.
//   - Writers build the successor epoch off to the side, under the engine's
//     writer mutex, and publish it with one atomic store. The old epoch
//     stays fully valid until its last pinned reader drops it; its
//     destruction is counted in EpochCounters::epochs_retired.
//
// The epoch's index cache is itself lock-free on the hit path: the map of
// built indexes is an immutable snapshot behind an atomic shared_ptr,
// copied-on-insert under a small per-epoch build mutex. Concurrent first
// requests for the same key set share one build through a shared_future —
// the engine-level half of request coalescing (estimator/coalesce.h is the
// service-level half).
//
// A successor epoch starts with its predecessor's ready indexes as a carry
// source: each carried key is patched (Index::Patched) from the
// predecessor's index by its first miss rather than rebuilt, so sample
// growth pays only for the indexes that are read at the grown size.
// NotifyAppend patches every carried key before it publishes.
//
// Estimates are a pure function of the pinned epoch, so any result computed
// while appends stream in is bit-identical to a quiesced run at the same
// epoch (tests/service_test.cc's ConcurrentServiceTest pins exactly this).

#ifndef CFEST_ESTIMATOR_EPOCH_H_
#define CFEST_ESTIMATOR_EPOCH_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/trace.h"
#include "compression/compressed_index.h"
#include "index/index.h"
#include "storage/table_view.h"

namespace cfest {

/// \brief Monotone work/traffic counters shared by an engine and every
/// epoch it ever published (epochs can outlive the engine while pinned, so
/// the counter block is refcounted).
///
/// All fields are sharded metrics::Counter objects: the estimate path
/// increments them without any lock, which is what lets tests assert
/// lock-freedom by counting — a steady-state estimate bumps
/// lock_free_pins, never locked_pins. The constructor registers every
/// field with the process-wide MetricRegistry under `cfest.engine.*` —
/// labeled {table=<name>} when the engine was given a table name, as the
/// unlabeled child otherwise — so CacheStats (which reads these same
/// counters) and the registry's family aggregate agree bit for bit, while
/// per-table dashboards read the labeled children. Estimate counts also
/// register one {table, scheme} child per compression family
/// (`cfest.engine.estimates`), indexed by enum value so the hot path is a
/// plain array increment (label resolution happened at construction). The
/// registration handles are declared last so they retire the block's
/// totals into the registry before the counters die.
struct EpochCounters {
  EpochCounters() : EpochCounters(std::string()) {}

  explicit EpochCounters(const std::string& table_name)
      : registration(metrics::MetricRegistry::Global().RegisterCounters(
            TableLabels(table_name),
            {{"cfest.engine.samples_drawn", &samples_drawn},
             {"cfest.engine.index_builds", &index_builds},
             {"cfest.engine.index_cache_hits", &index_cache_hits},
             {"cfest.engine.index_extensions", &index_extensions},
             {"cfest.engine.invalidations", &invalidations},
             {"cfest.engine.lock_free_pins", &lock_free_pins},
             {"cfest.engine.locked_pins", &locked_pins},
             {"cfest.engine.epochs_published", &epochs_published},
             {"cfest.engine.epochs_retired", &epochs_retired}})) {
    for (size_t i = 0; i < kCompressionTypeCount; ++i) {
      metrics::LabelSet labels = TableLabels(table_name);
      labels.emplace_back(
          "scheme", CompressionTypeName(static_cast<CompressionType>(i)));
      scheme_registrations[i] =
          metrics::MetricRegistry::Global().RegisterCounters(
              labels, {{"cfest.engine.estimates", &estimates_by_scheme[i]}});
    }
  }

  static metrics::LabelSet TableLabels(const std::string& table_name) {
    if (table_name.empty()) return {};
    return {{"table", table_name}};
  }

  metrics::Counter samples_drawn;
  metrics::Counter index_builds;
  metrics::Counter index_cache_hits;
  metrics::Counter index_extensions;
  metrics::Counter invalidations;
  /// Epoch pins served by the lock-free atomic load (steady state).
  metrics::Counter lock_free_pins;
  /// Epoch pins that fell through to the writer mutex (first draw only).
  metrics::Counter locked_pins;
  metrics::Counter epochs_published;
  /// Epochs destroyed after their last reader unpinned them.
  metrics::Counter epochs_retired;
  /// Sampled estimates served, by the candidate scheme's default
  /// compression family (indexed by CompressionType value).
  std::array<metrics::Counter, kCompressionTypeCount> estimates_by_scheme;
  /// Declared after the counters: destruct first, folding their final
  /// values into the registry's retired totals while they still exist.
  metrics::MetricRegistry::Registration registration;
  std::array<metrics::MetricRegistry::Registration, kCompressionTypeCount>
      scheme_registrations;
};

/// Blocks until `build`, a shared index build or patch another thread
/// owns, is ready. A wait that finds it still running is traced as
/// `engine.index_wait`, so time blocked on another thread's build shows in
/// traces instead of in the waiter's self time; a ready hit pays no span.
template <typename Entry>
void WaitForSharedBuild(const std::shared_future<Entry>& build) {
  if (build.wait_for(std::chrono::seconds(0)) == std::future_status::ready) {
    return;
  }
  trace::Span span("engine.index_wait");
  build.wait();
}

/// \brief One immutable sample generation: the view, the sizing snapshot,
/// and the per-key-set sorted-index cache.
///
/// Thread-safe for any number of concurrent readers; nothing observable
/// mutates after publication (the index cache only memoizes pure builds).
/// Epochs are created and published by EstimationEngine only.
class SampleEpoch {
 public:
  ~SampleEpoch();

  SampleEpoch(const SampleEpoch&) = delete;
  SampleEpoch& operator=(const SampleEpoch&) = delete;

  /// The sample this epoch serves (shared with the engine's writer side).
  const TableView& sample() const { return *sample_; }
  std::shared_ptr<const TableView> sample_view() const { return sample_; }

  uint64_t sample_rows() const { return sample_->num_rows(); }

  /// Version of the sample contents: 1 after the initial draw, +1 per
  /// refresh or growth that actually changed the sample.
  uint64_t version() const { return version_; }

  /// Base-table rows this epoch's sample state has consumed — the `n` every
  /// full-index scaling at this epoch uses, so an estimate is deterministic
  /// even while the base table keeps growing underneath.
  uint64_t table_rows() const { return table_rows_; }

  /// The sorted sample index for `descriptor`, built at most once per
  /// distinct (key_columns, clustered) pair for this epoch's sample. The
  /// hit path is lock-free (atomic snapshot load); a miss takes the
  /// epoch-local build mutex only to register the work, and concurrent
  /// missers for the same key share it via a shared_future. A miss on a key
  /// carried from the predecessor epoch patches the predecessor's index
  /// (Index::Patched, traced as `engine.index_patch`, counted in
  /// index_extensions) instead of building; a patch that fails counts one
  /// invalidation and falls back to Build.
  Result<std::shared_ptr<const Index>> SampleIndex(
      const IndexDescriptor& descriptor, const IndexBuildOptions& build) const;

 private:
  friend class EstimationEngine;

  struct IndexEntry {
    Status status = Status::OK();
    std::shared_ptr<const Index> index;
  };
  using IndexMap = std::unordered_map<std::string, std::shared_future<IndexEntry>>;

  /// What this epoch carries from its predecessor: the predecessor's
  /// sample, the positions at which this epoch's sample differs from it,
  /// and the predecessor's index for each carried key nobody has read here
  /// yet.
  struct CarrySource {
    std::shared_ptr<const TableView> sample;
    std::vector<uint64_t> changed;
    std::unordered_map<std::string, std::shared_ptr<const Index>> indexes;
  };

  SampleEpoch(std::shared_ptr<const TableView> sample, uint64_t version,
              uint64_t table_rows, std::shared_ptr<EpochCounters> counters);

  /// Pre-publication: records every ready index of `predecessor` as
  /// patchable into this epoch at the `changed` positions, and returns how
  /// many it recorded. Nothing is patched here: each key is patched by its
  /// first SampleIndex miss, or all at once by MaterializeCarried.
  uint64_t CarryFrom(const SampleEpoch& predecessor,
                     std::vector<uint64_t> changed);

  /// Pre-publication: patches every carried key now and caches the ones
  /// that patch; the rest are dropped, to be built on demand. Releases the
  /// carry source and returns how many keys it cached.
  uint64_t MaterializeCarried(const IndexBuildOptions& build);

  /// Snapshot of the (key, index) pairs whose builds or patches have
  /// completed successfully — what a successor epoch may carry. Carried
  /// keys nobody has read yet are not among them. Never blocks on
  /// in-flight work.
  std::vector<std::pair<std::string, std::shared_ptr<const Index>>>
  ReadyIndexes() const;

  /// Entries this epoch holds — ready, failed or in flight, plus carried
  /// keys not yet read — for the invalidation count when a successor
  /// carries fewer.
  uint64_t CachedIndexCount() const;

  /// Patches `index` (built over the carry source's sample) into this
  /// epoch's sample.
  Result<std::shared_ptr<const Index>> Patch(const Index& index,
                                             const CarrySource& source,
                                             const IndexBuildOptions& build)
      const;

  std::shared_ptr<const TableView> sample_;
  uint64_t version_ = 0;
  uint64_t table_rows_ = 0;
  std::shared_ptr<EpochCounters> counters_;

  /// Immutable snapshot map, copied-on-insert under build_mu_. Atomic
  /// (not GUARDED_BY): the hit path reads it lock-free by design; build_mu_
  /// serializes only the copy-on-write registration of new builds.
  mutable std::atomic<std::shared_ptr<const IndexMap>> indexes_;
  mutable Mutex build_mu_;
  /// The carry source while any carried key is unread. A first miss takes
  /// its key out and patches from a shared reference (sample and changed
  /// never change), so the last one to leave releases the source.
  mutable std::shared_ptr<CarrySource> carry_ GUARDED_BY(build_mu_);
};

}  // namespace cfest

#endif  // CFEST_ESTIMATOR_EPOCH_H_
