// E-CONC — the estimation service under concurrent fire.
//
// N client threads hammer a 2-table catalog with a shared candidate
// workload while an append thread streams rows into "orders". Three gates:
//
//   (a) Request sharing: the computed (coalescer-admitted) work per
//       delivered estimate at 8 client threads is >= 2.5x lower than the
//       single-client baseline (appends streaming in both phases) —
//       concurrent batches asking for the same (candidate, epoch) merge
//       in the request coalescer, so eight clients' demand costs roughly
//       one client's compute. Wall-clock scaling is reported too, but
//       only informationally: on a loaded single-core host the ratio of
//       two noisy timings cannot carry a hard gate, while the admitted
//       request counts are structural.
//   (b) The coalescer deduplicates >= 50% of the shared-candidate
//       workload's requests (duplicates inside a batch are admitted before
//       any fan-out starts, so this floor is structural, not a race).
//   (c) Every estimate a client produced against a pinned epoch mid-stream
//       is bit-identical to a quiesced replay against the SAME epoch after
//       all writers stop — estimates are pure functions of the epoch.

#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "common/metrics.h"
#include "datagen/table_gen.h"
#include "estimator/engine.h"
#include "estimator/epoch.h"
#include "estimator/service.h"
#include "storage/catalog.h"

namespace cfest {
namespace {

constexpr double kFraction = 0.06;
constexpr int kClients = 8;
constexpr int kRounds = 32;
constexpr uint64_t kAppendBatch = 400;
constexpr std::chrono::milliseconds kAppendPause{25};

std::unique_ptr<Table> GenerateOrders() {
  std::vector<ColumnSpec> specs = {
      ColumnSpec::Integer("o_key", 900, FrequencySpec::Zipf(0.9)),
      ColumnSpec::String("o_status", 24, 8, FrequencySpec::Zipf(1.0),
                         LengthSpec::Uniform(4, 12)),
      ColumnSpec::String("o_city", 32, 400, FrequencySpec::Uniform(),
                         LengthSpec::Uniform(6, 20)),
      ColumnSpec::Integer("o_amount", 50000, FrequencySpec::Uniform())};
  return bench::CheckResult(GenerateTable(specs, 100000, 7), "orders");
}

std::unique_ptr<Table> GenerateLineitem() {
  std::vector<ColumnSpec> specs = {
      ColumnSpec::Integer("l_partkey", 2000, FrequencySpec::Zipf(0.8)),
      ColumnSpec::String("l_shipmode", 24, 7, FrequencySpec::Uniform(),
                         LengthSpec::Uniform(3, 10)),
      ColumnSpec::Integer("l_quantity", 50, FrequencySpec::Uniform())};
  return bench::CheckResult(GenerateTable(specs, 120000, 11), "lineitem");
}

/// The shared-candidate workload: 12 structurally distinct candidates
/// across both tables, each listed 3 times under different cosmetic names
/// and benefits (overlapping advisor enumerations produce exactly this
/// shape). Structural triplicates merge in the coalescer; the cosmetic
/// differences exercise per-caller config re-stamping.
std::vector<CandidateConfiguration> SharedWorkload() {
  struct Spec {
    const char* table;
    const char* column;
    CompressionType type;
  };
  const Spec specs[] = {
      {"orders", "o_status", CompressionType::kDictionaryPage},
      {"orders", "o_status", CompressionType::kRle},
      {"orders", "o_city", CompressionType::kDictionaryPage},
      {"orders", "o_city", CompressionType::kPrefix},
      {"orders", "o_key", CompressionType::kFrameOfReference},
      {"orders", "o_amount", CompressionType::kNullSuppression},
      {"lineitem", "l_shipmode", CompressionType::kDictionaryPage},
      {"lineitem", "l_shipmode", CompressionType::kRle},
      {"lineitem", "l_partkey", CompressionType::kDictionaryGlobal},
      {"lineitem", "l_partkey", CompressionType::kNullSuppression},
      {"lineitem", "l_quantity", CompressionType::kRle},
      {"lineitem", "l_quantity", CompressionType::kFrameOfReference}};
  std::vector<CandidateConfiguration> candidates;
  for (int copy = 0; copy < 3; ++copy) {
    int k = 0;
    for (const Spec& s : specs) {
      CandidateConfiguration c;
      c.table_name = s.table;
      c.index = {"ix_" + std::to_string(copy) + "_" + std::to_string(k++),
                 {s.column},
                 false};
      c.scheme = CompressionScheme::Uniform(s.type);
      c.benefit = 1.0 + copy;  // differs per copy: keys must ignore it
      candidates.push_back(std::move(c));
    }
  }
  return candidates;
}

std::vector<Row> DeltaRows(const Table& source, uint64_t delta) {
  std::vector<Row> rows;
  rows.reserve(delta);
  for (RowId id = 0; id < delta; ++id) {
    rows.push_back(bench::CheckResult(source.DecodeRow(id % source.num_rows()),
                                      "decode"));
  }
  return rows;
}

/// One mid-stream estimate kept together with the epoch it was pinned to,
/// for the quiesced replay.
struct PinnedEstimate {
  std::shared_ptr<const SampleEpoch> epoch;
  size_t candidate = 0;
  SizedCandidate sized;
};

/// Work counters of one phase: metric-registry deltas from the service's
/// construction to the quiesced end of the phase.
struct PhaseCounters {
  uint64_t coalesce_requests = 0;
  uint64_t coalesce_admitted = 0;
  uint64_t coalesce_merged = 0;
  uint64_t locked_pins = 0;
  uint64_t lock_free_pins = 0;
  uint64_t epochs_published = 0;
};

struct PhaseResult {
  double seconds = 0.0;
  uint64_t delivered = 0;
  PhaseCounters stats;
  std::vector<PinnedEstimate> pinned;
};

/// Runs `clients` threads for kRounds barrier-synchronized rounds of
/// EstimateAll over `candidates` while an appender streams rows into
/// "orders". Each client also pins an epoch per round and estimates one
/// orders candidate directly, keeping the pin for the replay gate.
PhaseResult RunPhase(const Catalog& catalog, Catalog& mutable_catalog,
                     const std::vector<CandidateConfiguration>& candidates,
                     int clients) {
  const metrics::MetricsSnapshot before =
      metrics::MetricRegistry::Global().Snapshot();
  CatalogEstimationServiceOptions options;
  options.base.fraction = kFraction;
  options.maintain_reservoirs = true;
  CatalogEstimationService service(catalog, options);

  // Warm-up: first draws + first index builds happen before the clock
  // starts, so both phases measure steady-state estimation.
  bench::CheckResult(service.EstimateAll(candidates), "warm-up");
  EstimationEngine* orders_engine =
      bench::CheckResult(service.Engine("orders"), "orders engine");

  std::vector<size_t> orders_ix;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (candidates[i].table_name == "orders") orders_ix.push_back(i);
  }

  const Table* orders =
      bench::CheckResult(catalog.GetTable("orders"), "orders table");
  const std::vector<Row> delta = DeltaRows(*orders, kAppendBatch);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::thread appender([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto range = mutable_catalog.AppendRows("orders", delta);
      if (!range.ok() || !service.NotifyAppend("orders", *range).ok()) {
        ++failures;
        return;
      }
      std::this_thread::sleep_for(kAppendPause);
    }
  });

  std::barrier sync(clients);
  std::vector<std::vector<PinnedEstimate>> per_client(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  bench::Timer timer;
  for (int id = 0; id < clients; ++id) {
    workers.emplace_back([&, id] {
      for (int round = 0; round < kRounds; ++round) {
        // All clients fire together: concurrent identical batches are the
        // workload the coalescer exists for. A failed round records and
        // keeps arriving at the barrier — an early return would strand the
        // other clients.
        sync.arrive_and_wait();
        auto batch = service.EstimateAll(candidates);
        if (!batch.ok() || batch->size() != candidates.size()) {
          ++failures;
          continue;
        }
        auto epoch = orders_engine->PinEpoch();
        if (!epoch.ok()) {
          ++failures;
          continue;
        }
        const size_t c = orders_ix[(id + round) % orders_ix.size()];
        auto sized = orders_engine->EstimateAt(**epoch, candidates[c]);
        if (!sized.ok()) {
          ++failures;
          continue;
        }
        per_client[id].push_back(PinnedEstimate{*epoch, c, *sized});
      }
    });
  }
  for (std::thread& t : workers) t.join();
  PhaseResult result;
  result.seconds = timer.Seconds();
  stop.store(true, std::memory_order_relaxed);
  appender.join();
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: %llu thread failures during phase\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }

  result.delivered = static_cast<uint64_t>(clients) * kRounds *
                     candidates.size();
  const metrics::MetricsSnapshot after =
      metrics::MetricRegistry::Global().Snapshot();
  auto counted = [&](const char* name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  result.stats.coalesce_requests = counted("cfest.coalescer.requests");
  result.stats.coalesce_admitted = counted("cfest.coalescer.admitted");
  result.stats.coalesce_merged = counted("cfest.coalescer.merged");
  result.stats.locked_pins = counted("cfest.engine.locked_pins");
  result.stats.lock_free_pins = counted("cfest.engine.lock_free_pins");
  result.stats.epochs_published = counted("cfest.engine.epochs_published");
  for (auto& pins : per_client) {
    for (PinnedEstimate& p : pins) result.pinned.push_back(std::move(p));
  }

  // Gate (c): quiesced replay. The same epoch object must reproduce every
  // mid-stream estimate bit for bit, however far the table has grown since.
  uint64_t mismatches = 0;
  for (const PinnedEstimate& p : result.pinned) {
    const SizedCandidate replay = bench::CheckResult(
        orders_engine->EstimateAt(*p.epoch, candidates[p.candidate]),
        "replay");
    if (replay.estimated_cf != p.sized.estimated_cf ||
        replay.estimated_bytes != p.sized.estimated_bytes ||
        replay.uncompressed_bytes != p.sized.uncompressed_bytes ||
        replay.sample_rows != p.sized.sample_rows) {
      ++mismatches;
    }
  }
  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: %llu/%zu pinned estimates diverge from their "
                 "quiesced replay\n",
                 static_cast<unsigned long long>(mismatches),
                 result.pinned.size());
    std::exit(1);
  }
  return result;
}

void Run() {
  bench::PrintHeader(
      "E-CONC / Concurrent estimation service",
      "8 clients + streaming appends: coalesced batches scale aggregate "
      "throughput, estimates stay bit-identical per pinned epoch.");

  Catalog catalog;
  bench::CheckOk(catalog.AddTable("orders", GenerateOrders()), "orders");
  bench::CheckOk(catalog.AddTable("lineitem", GenerateLineitem()),
                 "lineitem");
  const std::vector<CandidateConfiguration> candidates = SharedWorkload();

  const PhaseResult single = RunPhase(catalog, catalog, candidates, 1);
  const PhaseResult multi = RunPhase(catalog, catalog, candidates, kClients);

  const double throughput_1 =
      single.seconds > 0 ? single.delivered / single.seconds : 0.0;
  const double throughput_n =
      multi.seconds > 0 ? multi.delivered / multi.seconds : 0.0;
  const double scaling = throughput_1 > 0 ? throughput_n / throughput_1 : 0.0;
  // Computed estimates per delivered estimate, per phase: the structural
  // measure of coalescer sharing (immune to host-load timing noise).
  const double work_1 =
      single.delivered > 0
          ? static_cast<double>(single.stats.coalesce_admitted) /
                static_cast<double>(single.delivered)
          : 0.0;
  const double work_n =
      multi.delivered > 0
          ? static_cast<double>(multi.stats.coalesce_admitted) /
                static_cast<double>(multi.delivered)
          : 0.0;
  const double sharing = work_n > 0 ? work_1 / work_n : 0.0;
  const uint64_t requests = multi.stats.coalesce_requests;
  const double dedup_rate =
      requests > 0
          ? static_cast<double>(multi.stats.coalesce_merged) / requests
          : 0.0;

  TablePrinter out({"phase", "wall-clock", "estimates", "est/s",
                    "coalesce merged/requests", "locked pins"});
  out.AddRow({"1 client + appends", FormatDouble(single.seconds, 3) + " s",
              std::to_string(single.delivered), FormatDouble(throughput_1, 1),
              std::to_string(single.stats.coalesce_merged) + "/" +
                  std::to_string(single.stats.coalesce_requests),
              std::to_string(single.stats.locked_pins)});
  out.AddRow({std::to_string(kClients) + " clients + appends",
              FormatDouble(multi.seconds, 3) + " s",
              std::to_string(multi.delivered), FormatDouble(throughput_n, 1),
              std::to_string(multi.stats.coalesce_merged) + "/" +
                  std::to_string(multi.stats.coalesce_requests),
              std::to_string(multi.stats.locked_pins)});
  out.Print();
  std::printf(
      "\nsharing %.2fx (gate >= 2.5x); scaling %.2fx (informational); "
      "dedup %.1f%% (gate >= 50%%); "
      "%zu pinned estimates replayed bit-identical; epochs published %llu\n",
      sharing, scaling, 100.0 * dedup_rate, multi.pinned.size(),
      static_cast<unsigned long long>(multi.stats.epochs_published));

  bench::JsonEmitter json("concurrent_service");
  json.AddInt("clients", kClients);
  json.AddInt("rounds", kRounds);
  json.AddInt("batch_candidates", static_cast<int64_t>(candidates.size()));
  json.AddDouble("fraction", kFraction);
  json.AddDouble("single_seconds", single.seconds);
  json.AddDouble("multi_seconds", multi.seconds);
  json.AddDouble("throughput_single", throughput_1);
  json.AddDouble("throughput_multi", throughput_n);
  json.AddDouble("scaling", scaling);
  json.AddDouble("sharing", sharing);
  json.AddDouble("dedup_rate", dedup_rate);
  json.AddInt("coalesce_requests", static_cast<int64_t>(requests));
  json.AddInt("coalesce_admitted",
              static_cast<int64_t>(multi.stats.coalesce_admitted));
  json.AddInt("coalesce_merged",
              static_cast<int64_t>(multi.stats.coalesce_merged));
  json.AddInt("replayed_estimates", static_cast<int64_t>(multi.pinned.size()));
  json.AddInt("replay_mismatches", 0);  // RunPhase aborts on any mismatch
  json.AddInt("locked_pins", static_cast<int64_t>(multi.stats.locked_pins));
  json.AddInt("lock_free_pins",
              static_cast<int64_t>(multi.stats.lock_free_pins));
  json.AddInt("epochs_published",
              static_cast<int64_t>(multi.stats.epochs_published));
  json.Print();

  if (sharing < 2.5) {
    std::fprintf(stderr,
                 "FATAL: admitted-work sharing %.2fx < 2.5x gate\n",
                 sharing);
    std::exit(1);
  }
  if (dedup_rate < 0.5) {
    std::fprintf(stderr, "FATAL: coalescer dedup rate %.1f%% < 50%% gate\n",
                 100.0 * dedup_rate);
    std::exit(1);
  }
}

}  // namespace
}  // namespace cfest

int main() {
  cfest::Run();
  return 0;
}
