// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// RequestCoalescer — the service's admission layer for concurrent sizing
// requests.
//
// N clients hammering CatalogEstimationService tend to ask for the *same*
// candidates (an advisor's candidate set is shared state; dashboards poll
// the same what-ifs). Per epoch, an estimate is a pure function of
// (table, index key set, scheme), so identical requests landing while one
// is already being computed can share that single computation: the first
// requester is admitted as the owner and computes, everyone else receives
// the same shared_future and just waits. This is the request-level
// complement of the per-epoch index cache: the epoch cache shares the
// *index build* across schemes, the coalescer shares the whole in-flight
// sizing result across callers.
//
// Sharing is deliberately limited to work that is IN FLIGHT: Complete()
// retires the entry as it publishes the outcome, so a request arriving
// after the computation finished is admitted as a fresh owner and
// recomputes through the engine's epoch caches (which make the recompute
// cheap, and whose hit/build counters stay exactly what a coalescer-free
// service would report). Keys embed the epoch identity (sample version +
// table-size snapshot), so a refresh naturally splits concurrent traffic:
// requests pinned to different epochs never merge.
//
// Thread-safe. The one hard protocol rule: whoever is admitted as owner
// MUST eventually call Complete() for that key (with the error status
// inside the outcome if the computation failed) — waiters block on the
// future until then.

#ifndef CFEST_ESTIMATOR_COALESCE_H_
#define CFEST_ESTIMATOR_COALESCE_H_

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/metrics.h"
#include "common/mutex.h"
#include "common/status.h"
#include "estimator/engine.h"
#include "estimator/epoch.h"

namespace cfest {

/// \brief One coalesced sizing computation's outcome: the sized candidate
/// or the status that failed it. `sized.config` carries the *owner's*
/// configuration — sharers must re-stamp their own (coalescing keys ignore
/// the cosmetic index name and the benefit, which differ between callers
/// asking for structurally identical candidates).
struct SizingOutcome {
  Status status = Status::OK();
  SizedCandidate sized;
};

/// The coalescing identity of (table, candidate) at `epoch`: table name,
/// structural index key (SampleIndexCacheKey — name excluded), the full
/// compression scheme, and the epoch identity (version + table-rows
/// snapshot). Two requests with equal keys are guaranteed bit-identical
/// outcomes, because estimates are pure functions of the pinned epoch.
std::string CoalesceKey(const std::string& table_name,
                        const CandidateConfiguration& candidate,
                        const SampleEpoch& epoch);

/// \brief Deduplicating admission map from coalesce keys to in-flight
/// sizing futures.
class RequestCoalescer {
 public:
  struct Ticket {
    /// True when this caller must compute and Complete() the key.
    bool owner = false;
    /// Trace flow id shared by the owner and every merged waiter of this
    /// key (0 when tracing is disabled): the owner stamps it on its
    /// compute span as the flow source, each sharer on its wait span as a
    /// sink, so the exported trace draws an arrow from the merged request
    /// to the computation that served it.
    uint64_t flow_id = 0;
    std::shared_future<SizingOutcome> future;
  };

  /// \brief Per-table labeled child block of the `cfest.coalescer.*`
  /// counter families. Resolved once per table via CountersForTable (label
  /// resolution at admission-site setup); Admit then increments the block
  /// with plain sharded adds. The registration member is declared last so
  /// it retires final values while the counters still exist.
  struct TableCounters {
    explicit TableCounters(const std::string& table_name)
        : registration(metrics::MetricRegistry::Global().RegisterCounters(
              {{"table", table_name}},
              {{"cfest.coalescer.requests", &requests},
               {"cfest.coalescer.admitted", &admitted},
               {"cfest.coalescer.merged", &merged}})) {}
    metrics::Counter requests;
    metrics::Counter admitted;
    metrics::Counter merged;
    metrics::MetricRegistry::Registration registration;
  };

  /// The per-table counter block for `table_name`, created on first use
  /// and stable for the coalescer's lifetime.
  TableCounters* CountersForTable(const std::string& table_name);

  /// Admits a request: the first caller for a key becomes the owner; every
  /// caller landing while the owner's computation is in flight shares the
  /// owner's future (and its flow id). When `table_counters` is given
  /// (from CountersForTable), traffic is attributed to that table's
  /// labeled children; otherwise to the unlabeled child — either way the
  /// family aggregates count every admission exactly once.
  Ticket Admit(const std::string& key,
               TableCounters* table_counters = nullptr);

  /// Publishes the owner's outcome, releasing every waiter, and retires
  /// the entry (later requests for the key recompute). Must be called
  /// exactly once per owning Admit.
  void Complete(const std::string& key, SizingOutcome outcome);

 private:
  struct Entry {
    std::shared_ptr<std::promise<SizingOutcome>> promise;
    std::shared_future<SizingOutcome> future;
    uint64_t flow_id = 0;
  };

  Mutex mu_;
  std::unordered_map<std::string, Entry> entries_ GUARDED_BY(mu_);
  /// Per-table labeled blocks, created lazily by CountersForTable. Block
  /// pointers stay valid for the coalescer's lifetime.
  std::map<std::string, std::unique_ptr<TableCounters>> table_counters_
      GUARDED_BY(mu_);

  /// Unlabeled-child fallback for admissions without a table handle,
  /// registered process-wide under `cfest.coalescer.*`. The registration
  /// member is declared last so it retires the final values into the
  /// registry before the counters destruct.
  metrics::Counter requests_;
  metrics::Counter admitted_;
  metrics::Counter merged_;
  metrics::MetricRegistry::Registration registration_ =
      metrics::MetricRegistry::Global().RegisterCounters(
          {{"cfest.coalescer.requests", &requests_},
           {"cfest.coalescer.admitted", &admitted_},
           {"cfest.coalescer.merged", &merged_}});
};

}  // namespace cfest

#endif  // CFEST_ESTIMATOR_COALESCE_H_
