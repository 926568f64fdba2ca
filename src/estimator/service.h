// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// CatalogEstimationService — cross-table batched what-if sizing for many
// concurrent clients.
//
// EstimationEngine amortizes one sample across many candidates, but only
// within a single table. A real advisor sizes a candidate set spanning a
// whole schema ("lineitem" *and* "orders") against tables that keep
// growing, and a live DBMS queries it from many threads at once. The
// service lifts the engine to catalog level and is the single sizing front
// door: every batched, parallel, adaptive, or advising entry point takes a
// service, and a standalone table is a one-table Catalog.
//
//   - One lazily created EstimationEngine per catalog table, each seeded by
//     SeedForTable(name) so results are reproducible per table regardless
//     of which candidates arrive first.
//   - EstimateAll groups candidates by table_name (GroupByTable), pins ONE
//     epoch per distinct table (estimator/epoch.h) for the whole batch, and
//     fans the work across the service's ThreadPool — the only pool in the
//     system; engines are serial primitives. Results are positionally
//     aligned with the input and bit-identical to sizing each candidate
//     serially with EstimateAt on a standalone engine seeded
//     SeedForTable(name).
//   - Concurrent EstimateAll calls flow through a RequestCoalescer
//     (estimator/coalesce.h): structurally identical candidates at the same
//     epoch share one computation — the first caller computes, everyone
//     else waits on the same future. Estimates are pure functions of the
//     pinned epoch, so sharing is bit-exact.
//   - NotifyAppend(table, range) forwards a growth delta to exactly that
//     table's engine, which publishes a successor epoch without quiescing
//     in-flight estimates; every other table is untouched.
//
// Work counters live in the metric registry (common/metrics.h): every
// engine labels its cfest.engine.* children with its table name, and the
// coalescer reports cfest.coalescer.*.
//
// The service borrows the catalog; the catalog (and its tables) must
// outlive the service.

#ifndef CFEST_ESTIMATOR_SERVICE_H_
#define CFEST_ESTIMATOR_SERVICE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "estimator/coalesce.h"
#include "estimator/engine.h"
#include "storage/catalog.h"

namespace cfest {

/// \brief Configuration of a CatalogEstimationService.
struct CatalogEstimationServiceOptions {
  /// Sampling fraction, metric, and index-build options shared by every
  /// per-table engine. base.sampler applies to non-reservoir engines.
  SampleCFOptions base;
  /// Default per-table seed; SeedForTable(name) returns this unless
  /// overridden in table_seeds.
  uint64_t seed = 42;
  /// Per-table seed overrides (table name -> seed).
  std::map<std::string, uint64_t> table_seeds;
  /// Workers of the shared cross-table pool. 0 = hardware concurrency;
  /// 1 = serial.
  uint32_t num_threads = 0;
  /// Create per-table engines in reservoir-maintenance mode so
  /// NotifyAppend can refresh them incrementally.
  bool maintain_reservoirs = false;
  /// Reservoir capacity per engine when maintain_reservoirs is set
  /// (0 = derive from base.fraction at each table's first draw).
  uint64_t reservoir_capacity = 0;
};

/// \brief Catalog-level batched CF estimation: one engine per table, one
/// fan-out per workload.
///
/// Fully thread-safe: any number of concurrent EstimateAll callers, and
/// NotifyAppend may run concurrently with them — refresh is an epoch swap,
/// not a quiesce (each in-flight batch keeps estimating against the epoch
/// it pinned).
class CatalogEstimationService {
 public:
  explicit CatalogEstimationService(const Catalog& catalog,
                                    CatalogEstimationServiceOptions options = {});

  const Catalog& catalog() const { return catalog_; }
  const CatalogEstimationServiceOptions& options() const { return options_; }

  /// The seed the table's engine draws from: table_seeds override or the
  /// default seed.
  uint64_t SeedForTable(const std::string& table_name) const;

  /// The table's engine, created on first use (NotFound if the table is not
  /// in the catalog). The pointer is stable while the table stays
  /// registered: if the table is removed from the catalog (or removed and
  /// re-added), the cached engine is dropped and lookups fail or rebuild
  /// against the new table — a removed table's engine is never served.
  Result<EstimationEngine*> Engine(const std::string& table_name);

  /// \brief One table's share of a mixed-table candidate batch.
  struct TableGroup {
    std::string table_name;
    EstimationEngine* engine = nullptr;
    /// Positions of the table's candidates in the input, ascending.
    std::vector<size_t> members;
  };

  /// Groups `candidates` by table_name in first-appearance order and
  /// resolves each distinct table's engine exactly once (Engine() takes
  /// the service mutex, so never once per candidate). A missing table
  /// fails the whole batch up front — NotFound("candidate i (name): ...")
  /// naming its first candidate — before any estimation work starts. The
  /// shared setup of EstimateAll, EstimateAllAdaptive, and
  /// AdviseConfigurationsLazy.
  Result<std::vector<TableGroup>> GroupByTable(
      std::span<const CandidateConfiguration> candidates);

  /// What-if sizes a mixed-table batch: candidates are grouped by
  /// table_name, every group's table engine is resolved (creating engines
  /// as needed), one epoch per distinct table is pinned for the whole
  /// batch, and all candidates fan out across the shared pool — after the
  /// coalescer merges duplicates with identical in-flight requests.
  /// Results are positionally aligned with `candidates` and bit-identical
  /// to a serial PinEpoch + EstimateAt loop on a standalone engine per
  /// table under the same per-table seeds.
  Result<std::vector<SizedCandidate>> EstimateAll(
      std::span<const CandidateConfiguration> candidates);

  /// The service's shared cross-table worker pool (created on first use),
  /// the only pool the estimation stack runs. Exposed so layered consumers
  /// — the adaptive flow, the lazy advisor, the CLI's interval pass — fan
  /// their work across the same workers instead of spinning a second pool.
  ThreadPool* shared_pool() { return Pool(); }

  /// Forwards an append delta to the named table's engine (see
  /// EstimationEngine::NotifyAppend). A table whose engine has not been
  /// created yet is a no-op — its eventual first draw sees the grown
  /// table. Requires maintain_reservoirs for created engines. Safe to run
  /// concurrently with EstimateAll.
  Status NotifyAppend(const std::string& table_name, RowRange range);

 private:
  /// An engine stamped with the catalog's registration version for its
  /// table at creation time; a version mismatch means the name was
  /// re-bound (removed, or removed and re-added) and the engine is stale.
  struct EngineEntry {
    std::unique_ptr<EstimationEngine> engine;
    uint64_t table_version = 0;
  };

  ThreadPool* Pool() EXCLUDES(mu_);

  const Catalog& catalog_;
  CatalogEstimationServiceOptions options_;
  RequestCoalescer coalescer_;

  Mutex mu_;
  std::map<std::string, EngineEntry> engines_ GUARDED_BY(mu_);
  std::unique_ptr<ThreadPool> pool_ GUARDED_BY(mu_);
};

}  // namespace cfest

#endif  // CFEST_ESTIMATOR_SERVICE_H_
