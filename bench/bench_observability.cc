// E-OBS — the observability layer's two contracts, gated on an 8-client
// concurrent-service workload (a 2-table catalog, a shared candidate set
// and a streaming appender):
//
//   (a) Accounting: the metric registry — the one source of truth for
//       work counters — accounts for the concurrent workload exactly on a
//       quiesced run: the steady-state reads took lock-free pins
//       (`cfest.engine.lock_free_pins` > 0), and every coalescer request
//       was either admitted or merged (`cfest.coalescer.requests` ==
//       admitted + merged).
//   (b) Overhead: with the full registry live (counters always on) the
//       steady-state concurrent workload with timing + tracing ENABLED
//       runs within 2% of the same workload with them runtime-disabled —
//       the disabled path reads no clocks and records no spans, standing
//       in for the CFEST_METRICS=OFF compiled-out baseline inside one
//       binary (interleaved best-of-N trials; tolerance overridable via
//       CFEST_OBS_TOLERANCE for loaded CI hosts).

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "datagen/table_gen.h"
#include "estimator/engine.h"
#include "estimator/service.h"
#include "storage/catalog.h"

namespace cfest {
namespace {

// The whole harness is moot when the registry is compiled out; the main
// below prints a marker instead.
#ifndef CFEST_METRICS_DISABLED

using metrics::MetricRegistry;
using metrics::MetricsSnapshot;

constexpr double kFraction = 0.06;
constexpr int kClients = 8;
constexpr int kAccountingRounds = 8;
// Each overhead measurement must dwarf scheduler noise: 8 barrier rounds
// is roughly three-quarters of a second of pure read-path CPU per block.
// The gate statistic is the median of per-pair CPU ratios — the two
// blocks of a pair run back to back and share host state, so their ratio
// cancels drift that an absolute best-of comparison cannot.
constexpr int kOverheadRounds = 8;
constexpr int kTrialsPerMode = 13;
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

/// 12 structural candidates across both tables, 3 cosmetic copies each.
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
      c.benefit = 1.0 + copy;
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

/// Whole-process CPU seconds (all threads). The overhead gate compares
/// CPU time, not wall clock: instrumentation cost IS extra CPU work, and
/// CPU time is immune to the scheduler preemption and host drift that
/// swamp a 2% wall-clock comparison on shared runners.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

struct RoundsCost {
  double wall_seconds = 0;
  double cpu_seconds = 0;
};

/// Barrier-synchronized client rounds of EstimateAll against `service`,
/// client `id` submitting `per_client[id]`. Returns wall-clock and
/// process-CPU seconds; aborts on any failed round.
RoundsCost ClientRounds(
    CatalogEstimationService& service,
    const std::vector<std::vector<CandidateConfiguration>>& per_client,
    int rounds) {
  const int clients = static_cast<int>(per_client.size());
  std::atomic<uint64_t> failures{0};
  std::barrier sync(clients);
  std::vector<std::thread> workers;
  workers.reserve(clients);
  bench::Timer timer;
  const double cpu_before = ProcessCpuSeconds();
  for (int id = 0; id < clients; ++id) {
    workers.emplace_back([&, id] {
      const std::vector<CandidateConfiguration>& candidates = per_client[id];
      for (int round = 0; round < rounds; ++round) {
        sync.arrive_and_wait();
        auto batch = service.EstimateAll(candidates);
        if (!batch.ok() || batch->size() != candidates.size()) ++failures;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  RoundsCost cost;
  cost.wall_seconds = timer.Seconds();
  cost.cpu_seconds = ProcessCpuSeconds() - cpu_before;
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: %llu failed client rounds\n",
                 static_cast<unsigned long long>(failures.load()));
    std::exit(1);
  }
  return cost;
}

/// Every client submits the same shared batch (coalescing exercised).
std::vector<std::vector<CandidateConfiguration>> Replicate(
    const std::vector<CandidateConfiguration>& candidates, int clients) {
  return std::vector<std::vector<CandidateConfiguration>>(clients,
                                                          candidates);
}

/// Per-client batches that are STRUCTURALLY unique — coalescing keys
/// ignore index names, so uniqueness has to come from the key-column set.
/// Each client appends a client-determined suffix of orders columns to
/// every index key (9 distinct suffixes cover 8 clients), so no request
/// ever coalesces across clients and every block executes exactly the
/// same estimates: deterministic work content for the overhead
/// comparison. Schemes are dictionary/RLE only — valid on any column
/// type, which the mixed int/string keys require.
std::vector<std::vector<CandidateConfiguration>> DistinctPerClient(
    int clients) {
  const char* const cols[] = {"o_key", "o_status", "o_city", "o_amount"};
  const CompressionType schemes[] = {CompressionType::kDictionaryPage,
                                     CompressionType::kRle};
  std::vector<std::vector<CandidateConfiguration>> per_client;
  per_client.reserve(clients);
  for (int id = 0; id < clients; ++id) {
    std::vector<CandidateConfiguration> own;
    int k = 0;
    for (const char* base : cols) {
      // The other three columns, in a fixed order per base column.
      std::vector<std::string> others;
      for (const char* c : cols) {
        if (c != base) others.push_back(c);
      }
      std::vector<std::string> key = {base};
      if (id < 3) {
        key.push_back(others[id]);
      } else {
        // Ordered pairs (a, b), a != b, enumerated for ids 3..8.
        const int pair = id - 3;
        const int a = pair / 2;
        int b = pair % 2;
        if (b >= a) ++b;
        key.push_back(others[a]);
        key.push_back(others[b]);
      }
      for (const CompressionType type : schemes) {
        CandidateConfiguration c;
        c.table_name = "orders";
        c.index = {"ov_" + std::to_string(id) + "_" + std::to_string(k++),
                   key, false};
        c.scheme = CompressionScheme::Uniform(type);
        c.benefit = 1.0;
        own.push_back(std::move(c));
      }
    }
    per_client.push_back(std::move(own));
  }
  return per_client;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

uint64_t Delta(const MetricsSnapshot& after, const MetricsSnapshot& before,
               const char* name) {
  return after.CounterValue(name) - before.CounterValue(name);
}

/// Gate (a): run the concurrent workload with streaming appends on a fresh
/// service; the registry deltas must account for it exactly.
void RunAccountingPhase(const Catalog& catalog, Catalog& mutable_catalog,
                    const std::vector<CandidateConfiguration>& candidates,
                    bench::JsonEmitter* json) {
  const MetricsSnapshot before = MetricRegistry::Global().Snapshot();

  CatalogEstimationServiceOptions options;
  options.base.fraction = kFraction;
  options.maintain_reservoirs = true;
  CatalogEstimationService service(catalog, options);
  bench::CheckResult(service.EstimateAll(candidates), "warm-up");

  const Table* orders =
      bench::CheckResult(catalog.GetTable("orders"), "orders table");
  const std::vector<Row> delta_rows = DeltaRows(*orders, kAppendBatch);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};
  std::thread appender([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      auto range = mutable_catalog.AppendRows("orders", delta_rows);
      if (!range.ok() || !service.NotifyAppend("orders", *range).ok()) {
        ++failures;
        return;
      }
      std::this_thread::sleep_for(kAppendPause);
    }
  });
  ClientRounds(service, Replicate(candidates, kClients), kAccountingRounds);
  stop.store(true, std::memory_order_relaxed);
  appender.join();
  if (failures.load() != 0) {
    std::fprintf(stderr, "FATAL: appender failed\n");
    std::exit(1);
  }

  // Quiesced: every writer joined, so the deltas are final.
  const MetricsSnapshot after = MetricRegistry::Global().Snapshot();
  const uint64_t lock_free_pins =
      Delta(after, before, "cfest.engine.lock_free_pins");
  const uint64_t requests = Delta(after, before, "cfest.coalescer.requests");
  const uint64_t admitted = Delta(after, before, "cfest.coalescer.admitted");
  const uint64_t merged = Delta(after, before, "cfest.coalescer.merged");
  std::printf("accounting: %llu lock-free pins; coalescer %llu requests = "
              "%llu admitted + %llu merged\n",
              static_cast<unsigned long long>(lock_free_pins),
              static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(admitted),
              static_cast<unsigned long long>(merged));
  json->AddInt("lock_free_pins", static_cast<int64_t>(lock_free_pins));
  if (requests != admitted + merged) {
    std::fprintf(stderr, "FATAL: coalescer requests not fully accounted\n");
    std::exit(1);
  }
  if (lock_free_pins == 0) {
    std::fprintf(stderr, "FATAL: workload exercised no lock-free pins\n");
    std::exit(1);
  }
}

/// Gate (b): interleaved best-of-N trials of the steady-state workload
/// (one warm service, no appender: the pure read path the overhead policy
/// protects) with timing+tracing enabled vs runtime-disabled.
void RunOverheadPhase(const Catalog& catalog, bench::JsonEmitter* json) {
  CatalogEstimationServiceOptions options;
  options.base.fraction = kFraction;
  CatalogEstimationService service(catalog, options);
  const std::vector<std::vector<CandidateConfiguration>> per_client =
      DistinctPerClient(kClients);
  // Untimed warm pass with full instrumentation on, so index builds,
  // trace-ring allocation, and CPU frequency ramp all land before
  // anything is timed.
  metrics::SetTimingEnabled(true);
  trace::SetEnabled(true);
  ClientRounds(service, per_client, 4);

  std::vector<double> pair_ratios;
  std::vector<double> enabled_cpu, baseline_cpu;
  std::vector<double> enabled_wall, baseline_wall;
  for (int trial = 0; trial < kTrialsPerMode; ++trial) {
    // The two legs of a pair run back to back (alternating which mode
    // leads), so each pair's ratio is taken under near-identical host
    // conditions; client-unique candidates make the work per block
    // identical, so the ratio is pure instrumentation cost + noise.
    double pair_enabled = 0, pair_baseline = 0;
    for (int leg = 0; leg < 2; ++leg) {
      const bool enabled_mode = (leg == 0) == (trial % 2 == 0);
      metrics::SetTimingEnabled(enabled_mode);
      trace::SetEnabled(enabled_mode);
      const RoundsCost cost =
          ClientRounds(service, per_client, kOverheadRounds);
      (enabled_mode ? pair_enabled : pair_baseline) = cost.cpu_seconds;
      (enabled_mode ? enabled_cpu : baseline_cpu).push_back(cost.cpu_seconds);
      (enabled_mode ? enabled_wall : baseline_wall)
          .push_back(cost.wall_seconds);
    }
    pair_ratios.push_back(pair_baseline > 0 ? pair_enabled / pair_baseline
                                            : 1.0);
  }
  metrics::SetTimingEnabled(true);
  trace::Reset();

  double tolerance = 1.02;
  if (const char* env = std::getenv("CFEST_OBS_TOLERANCE")) {
    tolerance = std::atof(env);
    if (!(tolerance > 1.0)) tolerance = 1.02;
  }
  const double ratio = Median(pair_ratios);
  std::printf("overhead: enabled %.3f cpu-s vs disabled %.3f cpu-s -> "
              "%.4fx (gate <= %.2fx, median pair ratio over %d pairs; "
              "wall %.3fs vs %.3fs)\n",
              Median(enabled_cpu), Median(baseline_cpu), ratio, tolerance,
              kTrialsPerMode, Median(enabled_wall), Median(baseline_wall));
  json->AddDouble("enabled_cpu_seconds", Median(enabled_cpu));
  json->AddDouble("baseline_cpu_seconds", Median(baseline_cpu));
  json->AddDouble("enabled_wall_seconds", Median(enabled_wall));
  json->AddDouble("baseline_wall_seconds", Median(baseline_wall));
  json->AddDouble("overhead_ratio", ratio);
  json->AddDouble("overhead_tolerance", tolerance);
  if (ratio > tolerance) {
    std::fprintf(stderr,
                 "FATAL: observability overhead %.4fx exceeds %.2fx gate\n",
                 ratio, tolerance);
    std::exit(1);
  }
}

#endif  // CFEST_METRICS_DISABLED

void Run() {
  bench::PrintHeader(
      "E-OBS / Observability layer",
      "Registry accounting on the concurrent workload; "
      "timing+tracing overhead within 2% of the disabled baseline.");

#ifdef CFEST_METRICS_DISABLED
  // The compiled-out build has no registry to compare against; the gates
  // are vacuous by construction.
  std::printf("CFEST_METRICS_DISABLED build: registry compiled out, "
              "nothing to gate\n");
  bench::JsonEmitter json("observability");
  json.AddBool("metrics_compiled_out", true);
  json.Print();
#else
  Catalog catalog;
  bench::CheckOk(catalog.AddTable("orders", GenerateOrders()), "orders");
  bench::CheckOk(catalog.AddTable("lineitem", GenerateLineitem()),
                 "lineitem");
  const std::vector<CandidateConfiguration> candidates = SharedWorkload();

  bench::JsonEmitter json("observability");
  json.AddInt("clients", kClients);
  json.AddInt("batch_candidates", static_cast<int64_t>(candidates.size()));
  json.AddDouble("fraction", kFraction);
  RunAccountingPhase(catalog, catalog, candidates, &json);
  RunOverheadPhase(catalog, &json);
  json.AddBool("metrics_compiled_out", false);
  json.Print();
#endif
}

}  // namespace
}  // namespace cfest

int main() {
  cfest::Run();
  return 0;
}
