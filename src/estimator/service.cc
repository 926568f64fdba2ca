#include "estimator/service.h"

#include <utility>

#include "common/metrics.h"
#include "common/trace.h"
#include "estimator/epoch.h"

namespace cfest {

CatalogEstimationService::CatalogEstimationService(
    const Catalog& catalog, CatalogEstimationServiceOptions options)
    : catalog_(catalog), options_(std::move(options)) {}

uint64_t CatalogEstimationService::SeedForTable(
    const std::string& table_name) const {
  auto it = options_.table_seeds.find(table_name);
  return it != options_.table_seeds.end() ? it->second : options_.seed;
}

Result<EstimationEngine*> CatalogEstimationService::Engine(
    const std::string& table_name) {
  MutexLock lock(mu_);
  // Re-validate against the catalog even on a cache hit: a cached engine
  // for a table that was removed (or removed and re-added) must never be
  // served — it borrows the old Table object. The check is by the
  // catalog's per-name registration version, not pointer identity, so a
  // replacement table reusing the freed Table's address is still caught.
  Result<const Table*> table = catalog_.GetTable(table_name);
  if (!table.ok()) {
    engines_.erase(table_name);
    return table.status();
  }
  const uint64_t version = catalog_.TableVersion(table_name);
  auto it = engines_.find(table_name);
  if (it != engines_.end()) {
    if (it->second.table_version == version) return it->second.engine.get();
    engines_.erase(it);  // name re-bound since the engine was created
  }
  EstimationEngineOptions engine_options;
  engine_options.base = options_.base;
  engine_options.seed = SeedForTable(table_name);
  engine_options.maintain_reservoir = options_.maintain_reservoirs;
  engine_options.reservoir_capacity = options_.reservoir_capacity;
  // Per-table metric labels: the engine's cfest.engine.* counters register
  // as this table's children, so snapshots split by table while the
  // family aggregates keep reporting the catalog-wide totals.
  engine_options.table_name = table_name;
  auto engine = std::make_unique<EstimationEngine>(**table, engine_options);
  EstimationEngine* raw = engine.get();
  engines_[table_name] = EngineEntry{std::move(engine), version};
  return raw;
}

ThreadPool* CatalogEstimationService::Pool() {
  MutexLock lock(mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  }
  return pool_.get();
}

Result<std::vector<CatalogEstimationService::TableGroup>>
CatalogEstimationService::GroupByTable(
    std::span<const CandidateConfiguration> candidates) {
  std::vector<TableGroup> groups;
  std::map<std::string, size_t> group_of_table;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::string& name = candidates[i].table_name;
    auto it = group_of_table.find(name);
    if (it == group_of_table.end()) {
      Result<EstimationEngine*> engine = Engine(name);
      if (!engine.ok()) {
        return Status::NotFound("candidate " + std::to_string(i) + " (" +
                                candidates[i].index.name + "): " +
                                engine.status().message());
      }
      it = group_of_table.emplace(name, groups.size()).first;
      groups.push_back(TableGroup{name, *engine, {}});
    }
    groups[it->second].members.push_back(i);
  }
  return groups;
}

Result<std::vector<SizedCandidate>> CatalogEstimationService::EstimateAll(
    std::span<const CandidateConfiguration> candidates) {
  trace::Span batch_span("service.estimate_all");
  CFEST_ASSIGN_OR_RETURN(std::vector<TableGroup> groups,
                         GroupByTable(candidates));

  // Pin ONE epoch per distinct table for the whole batch: every candidate
  // of a table is sized against the same refcounted sample snapshot, so
  // the batch stays internally consistent (and bit-identical to a
  // quiesced run at those epochs) even while appends stream in
  // concurrently. Pinning is the lock-free fast path after each engine's
  // first draw; the draw itself happens here, before fan-out, so worker
  // lambdas never fall through to the writer mutex. Per-table telemetry
  // handles (labeled admission counters and wait histograms) are resolved
  // here too, so admission and collection do no label work per candidate.
  std::vector<std::shared_ptr<const SampleEpoch>> epochs(groups.size());
  std::vector<RequestCoalescer::TableCounters*> group_counters(groups.size());
  std::vector<metrics::Histogram*> group_wait_hists(groups.size());
  std::vector<size_t> group_of(candidates.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    CFEST_ASSIGN_OR_RETURN(epochs[g], groups[g].engine->PinEpoch());
    group_counters[g] = coalescer_.CountersForTable(groups[g].table_name);
    group_wait_hists[g] = metrics::MetricRegistry::Global().GetHistogram(
        "cfest.coalescer.wait_ns", {{"table", groups[g].table_name}});
    for (size_t i : groups[g].members) group_of[i] = g;
  }

  // Coalesced admission: structurally identical candidates at the same
  // epoch — within this batch or racing in from concurrent EstimateAll
  // calls — share one computation. Owners compute; sharers just collect
  // the owner's future below.
  std::vector<std::string> keys(candidates.size());
  std::vector<RequestCoalescer::Ticket> tickets(candidates.size());
  std::vector<size_t> owned;
  owned.reserve(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    const size_t g = group_of[i];
    keys[i] = CoalesceKey(groups[g].table_name, candidates[i], *epochs[g]);
    tickets[i] = coalescer_.Admit(keys[i], group_counters[g]);
    if (tickets[i].owner) owned.push_back(i);
  }

  // Fan only the owned (deduplicated) work across the pool, each key
  // set's first owner before any repeat. Owners ALWAYS Complete their
  // key — a failed estimate travels as the outcome's status, never as a
  // thrown-away promise that would strand waiters (including waiters in
  // other threads' batches).
  const bool serial = options_.num_threads == 1 || owned.size() < 2;
  CFEST_RETURN_NOT_OK(StatusParallelFor(
      serial ? nullptr : Pool(), KeySetInterleavedOrder(candidates, owned),
      [&](size_t i) {
        SizingOutcome outcome;
        {
          // The owner's compute slice carries the ticket's flow id as the
          // flow SOURCE: every sharer of this key — in this batch or a
          // concurrent one — stamps the same id on its wait span, so the
          // exported trace draws an arrow from the computation to each
          // merged waiter.
          trace::Span compute_span("coalescer.compute");
          if (tickets[i].flow_id != 0) {
            compute_span.SetFlow(tickets[i].flow_id, trace::FlowRole::kSource);
          }
          const size_t g = group_of[i];
          Result<SizedCandidate> sized =
              groups[g].engine->EstimateAt(*epochs[g], candidates[i]);
          if (sized.ok()) {
            outcome.sized = std::move(*sized);
          } else {
            outcome.status = sized.status();
          }
        }
        coalescer_.Complete(keys[i], std::move(outcome));
        return Status::OK();
      }));

  // Collect every result in input order — owners and sharers alike read
  // their future (an owner's is already ready). First failure in input
  // order wins.
  std::vector<SizedCandidate> results(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    SizingOutcome outcome;
    if (!tickets[i].owner) {
      // A sharer may block here on an owner racing in another batch (the
      // owners of THIS batch already completed above); the wait histogram
      // is the coalescer's latency cost of deduplication, recorded into
      // the table's labeled child. The wait span is this flow's SINK —
      // flow-linked to the owning compute span by the shared id.
      trace::Span wait_span("coalescer.wait");
      if (tickets[i].flow_id != 0) {
        wait_span.SetFlow(tickets[i].flow_id, trace::FlowRole::kSink);
      }
      if (metrics::TimingEnabled()) {
        const uint64_t t0 = metrics::NowNanos();
        outcome = tickets[i].future.get();
        group_wait_hists[group_of[i]]->Record(metrics::NowNanos() - t0);
      } else {
        outcome = tickets[i].future.get();
      }
    } else {
      outcome = tickets[i].future.get();
    }
    if (!outcome.status.ok()) return outcome.status;
    results[i] = std::move(outcome.sized);
    // The coalesce key ignores the cosmetic index name and the caller's
    // benefit, so a shared result may carry the owner's configuration;
    // re-stamp this caller's own.
    results[i].config = candidates[i];
  }
  return results;
}

Status CatalogEstimationService::NotifyAppend(const std::string& table_name,
                                              RowRange range) {
  EstimationEngine* engine = nullptr;
  {
    MutexLock lock(mu_);
    CFEST_RETURN_NOT_OK(catalog_.GetTable(table_name).status());
    auto it = engines_.find(table_name);
    if (it == engines_.end()) return Status::OK();  // nothing cached yet
    if (it->second.table_version != catalog_.TableVersion(table_name)) {
      // The name was re-bound since the engine was created; drop the
      // stale engine — the replacement's first use draws a fresh sample.
      engines_.erase(it);
      return Status::OK();
    }
    engine = it->second.engine.get();
  }
  return engine->NotifyAppend(range);
}

}  // namespace cfest
