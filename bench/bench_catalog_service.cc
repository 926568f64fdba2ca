// E-SVC — cross-table batched sizing and streaming delta refresh through
// the CatalogEstimationService.
//
// (a) A 2-table / 40-candidate advisor workload: the naive per-table loop
//     runs one full SampleCF pipeline per candidate (fresh draw,
//     materialized sample, fresh sample-index build — what a pre-engine
//     advisor does table by table); the service resolves one engine per
//     table and sizes the whole mixed workload in a single fan-out with one
//     sample and one index build per distinct key set per table. Estimates
//     must be identical — the service removes redundancy, not fidelity.
//
// (b) Streaming refresh: after the base table grows 10%, an engine that
//     maintains its sample as a reservoir folds the delta in with O(delta)
//     RNG work (NotifyAppend) instead of a full O(n) re-draw, and lands on
//     the exact same reservoir a fresh engine would draw — measured here as
//     refresh cost vs full re-draw cost for the same estimate.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "common/metrics.h"
#include "common/random.h"
#include "datagen/table_gen.h"
#include "estimator/engine.h"
#include "estimator/sample_cf.h"
#include "estimator/service.h"
#include "storage/catalog.h"

namespace cfest {
namespace {

constexpr double kFraction = 0.04;
constexpr uint64_t kSeed = 42;

/// "orders": a wide denormalized fact table — the advisor's candidates are
/// narrow secondary indexes, so the naive loop's full-width per-candidate
/// sample materialization is pure waste the service's TableView avoids.
std::unique_ptr<Table> GenerateOrders() {
  std::vector<ColumnSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ColumnSpec::Integer(
        "o_id" + std::to_string(i), 400 + i * 300,
        i % 2 ? FrequencySpec::Zipf(0.9) : FrequencySpec::Uniform()));
  }
  for (int i = 0; i < 24; ++i) {
    specs.push_back(ColumnSpec::String("o_payload" + std::to_string(i), 72, 0,
                                       FrequencySpec::Uniform(),
                                       LengthSpec::Uniform(24, 64)));
  }
  return bench::CheckResult(GenerateTable(specs, 100000, 7), "orders");
}

/// "lineitem": more rows, narrower.
std::unique_ptr<Table> GenerateLineitem() {
  std::vector<ColumnSpec> specs;
  for (int i = 0; i < 4; ++i) {
    specs.push_back(ColumnSpec::Integer(
        "l_id" + std::to_string(i), 600 + i * 250,
        i % 2 ? FrequencySpec::Uniform() : FrequencySpec::Zipf(0.8)));
  }
  for (int i = 0; i < 14; ++i) {
    specs.push_back(ColumnSpec::String("l_payload" + std::to_string(i), 56, 0,
                                       FrequencySpec::Uniform(),
                                       LengthSpec::Uniform(16, 48)));
  }
  return bench::CheckResult(GenerateTable(specs, 150000, 11), "lineitem");
}

/// 40 candidates: 20 per table (4 key sets — two single-column and two
/// composite — x 5 schemes), interleaved so the service has to regroup
/// them. Composite keys make the per-key-set sample index build the
/// expensive step the service's cache amortizes across schemes.
std::vector<CandidateConfiguration> BuildWorkload() {
  const std::vector<CompressionType> schemes = {
      CompressionType::kNullSuppression, CompressionType::kRle,
      CompressionType::kDelta, CompressionType::kPrefix,
      CompressionType::kDictionaryPage};
  const std::vector<std::vector<int>> key_sets = {
      {0}, {1}, {0, 1}, {0, 1, 2, 3}};
  std::vector<CandidateConfiguration> candidates;
  for (const std::vector<int>& key_set : key_sets) {
    for (CompressionType type : schemes) {
      for (const char* table : {"orders", "lineitem"}) {
        const std::string prefix = table[0] == 'o' ? "o_id" : "l_id";
        CandidateConfiguration c;
        c.table_name = table;
        std::string name = "ix";
        for (int col : key_set) {
          c.index.key_columns.push_back(prefix + std::to_string(col));
          name += '_';
          name += std::to_string(col);
        }
        name += '_';
        name += CompressionTypeName(type);
        c.index.name = name;
        c.index.clustered = false;
        c.scheme = CompressionScheme::Uniform(type);
        c.benefit = 1.0;
        candidates.push_back(std::move(c));
      }
    }
  }
  return candidates;
}

void RunCrossTableBatch(const Catalog& catalog, bench::JsonEmitter* json) {
  const std::vector<CandidateConfiguration> candidates = BuildWorkload();

  SampleCFOptions options;
  options.fraction = kFraction;
  options.metric = SizeMetric::kPageBytes;

  constexpr int kReps = 5;

  // Naive per-table loop: iterate tables, size each table's candidates with
  // one full SampleCF pipeline per candidate.
  std::vector<double> baseline_cf(candidates.size());
  double baseline_seconds = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::Timer timer;
    for (const std::string& name : catalog.TableNames()) {
      const Table& table =
          *bench::CheckResult(catalog.GetTable(name), "GetTable");
      for (size_t i = 0; i < candidates.size(); ++i) {
        if (candidates[i].table_name != name) continue;
        Random rng(kSeed);
        SampleCFResult r = bench::CheckResult(
            SampleCF(table, candidates[i].index, candidates[i].scheme,
                     options, &rng),
            "SampleCF");
        baseline_cf[i] = r.cf.value;
      }
    }
    baseline_seconds = std::min(baseline_seconds, timer.Seconds());
  }

  // Service: one mixed-table fan-out. Fresh service per repetition so
  // nothing is cached across reps.
  double service_seconds = 1e30;
  std::vector<SizedCandidate> sized;
  // Work counters of one repetition, read as metric-registry deltas.
  uint64_t tables = 0;
  uint64_t samples_drawn = 0;
  uint64_t index_builds = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const metrics::MetricsSnapshot before =
        metrics::MetricRegistry::Global().Snapshot();
    CatalogEstimationServiceOptions service_options;
    service_options.base = options;
    service_options.seed = kSeed;
    CatalogEstimationService service(catalog, service_options);
    bench::Timer timer;
    sized =
        bench::CheckResult(service.EstimateAll(candidates), "EstimateAll");
    service_seconds = std::min(service_seconds, timer.Seconds());
    const metrics::MetricsSnapshot after =
        metrics::MetricRegistry::Global().Snapshot();
    const char* const kDrawn = "cfest.engine.samples_drawn";
    tables = 0;
    for (const std::string& name : catalog.TableNames()) {
      const metrics::LabelSet labels = {{"table", name}};
      if (after.LabeledCounterValue(kDrawn, labels) >
          before.LabeledCounterValue(kDrawn, labels)) {
        ++tables;
      }
    }
    samples_drawn = after.CounterValue(kDrawn) - before.CounterValue(kDrawn);
    index_builds = after.CounterValue("cfest.engine.index_builds") -
                   before.CounterValue("cfest.engine.index_builds");
  }

  size_t mismatches = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (baseline_cf[i] != sized[i].estimated_cf) ++mismatches;
  }
  const double speedup =
      service_seconds > 0 ? baseline_seconds / service_seconds : 0.0;

  TablePrinter out({"path", "wall-clock", "samples drawn", "index builds"});
  out.AddRow({"naive per-table loop", FormatDouble(baseline_seconds, 4) + " s",
              std::to_string(candidates.size()),
              std::to_string(candidates.size())});
  out.AddRow({"CatalogEstimationService",
              FormatDouble(service_seconds, 4) + " s",
              std::to_string(samples_drawn), std::to_string(index_builds)});
  out.Print();
  std::printf("\nspeedup %.2fx; %zu/%zu estimates differ (must be 0)\n",
              speedup, mismatches, candidates.size());

  json->AddInt("candidates", static_cast<int64_t>(candidates.size()));
  json->AddInt("tables", static_cast<int64_t>(tables));
  json->AddDouble("fraction", kFraction);
  json->AddDouble("baseline_seconds", baseline_seconds);
  json->AddDouble("service_seconds", service_seconds);
  json->AddDouble("speedup", speedup);
  json->AddInt("samples_drawn", static_cast<int64_t>(samples_drawn));
  json->AddInt("index_builds", static_cast<int64_t>(index_builds));
  json->AddInt("mismatches", static_cast<int64_t>(mismatches));

  if (mismatches != 0) {
    std::fprintf(stderr,
                 "FATAL: service estimates diverge from per-table loop\n");
    std::exit(1);
  }
}

void RunDeltaRefresh(bench::JsonEmitter* json) {
  // One growing table: base n, then +10%.
  const uint64_t base_rows = 200000;
  const uint64_t delta = base_rows / 10;
  std::vector<ColumnSpec> specs = {
      ColumnSpec::Integer("id", 900, FrequencySpec::Zipf(0.9)),
      ColumnSpec::String("payload", 48, 0, FrequencySpec::Uniform(),
                         LengthSpec::Uniform(12, 40))};
  std::unique_ptr<Table> table =
      bench::CheckResult(GenerateTable(specs, base_rows + delta, 13), "table");

  // The incremental engine starts from a prefix-sized table; materialize
  // that prefix as its own table so both engines see identical bytes.
  TableBuilder prefix_builder(table->schema());
  prefix_builder.Reserve(base_rows);
  for (RowId id = 0; id < base_rows; ++id) {
    bench::CheckOk(prefix_builder.AppendEncoded(table->row(id)),
                   "prefix append");
  }
  std::unique_ptr<Table> growing = prefix_builder.Finish();

  EstimationEngineOptions options;
  options.base.fraction = kFraction;
  options.base.metric = SizeMetric::kPageBytes;
  options.seed = kSeed;
  options.maintain_reservoir = true;
  options.reservoir_capacity = base_rows / 100;  // pin across growth

  const IndexDescriptor desc{"ix_id", {"id"}, false};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kDictionaryPage);

  // Incremental: draw on the base, grow, NotifyAppend, re-estimate.
  EstimationEngine incremental(*growing, options);
  const std::shared_ptr<const SampleEpoch> initial =
      bench::CheckResult(incremental.PinEpoch(), "initial draw");
  bench::CheckResult(incremental.EstimateCFAt(*initial, desc, scheme),
                     "initial");
  for (RowId id = base_rows; id < base_rows + delta; ++id) {
    bench::CheckOk(growing->AppendEncodedRow(table->row(id)), "append");
  }
  bench::Timer refresh_timer;
  bench::CheckOk(incremental.NotifyAppend({base_rows, base_rows + delta}),
                 "NotifyAppend");
  const std::shared_ptr<const SampleEpoch> refreshed_epoch =
      bench::CheckResult(incremental.PinEpoch(), "refreshed pin");
  const SampleCFResult refreshed = bench::CheckResult(
      incremental.EstimateCFAt(*refreshed_epoch, desc, scheme),
      "re-estimate");
  const double refresh_seconds = refresh_timer.Seconds();

  // Full re-draw: a fresh engine over the grown table scans all n + delta
  // rows to draw the (identical) reservoir, then estimates.
  EstimationEngine fresh(*table, options);
  bench::Timer redraw_timer;
  const std::shared_ptr<const SampleEpoch> fresh_epoch =
      bench::CheckResult(fresh.PinEpoch(), "fresh draw");
  const SampleCFResult redrawn = bench::CheckResult(
      fresh.EstimateCFAt(*fresh_epoch, desc, scheme), "fresh estimate");
  const double redraw_seconds = redraw_timer.Seconds();

  const bool equal = refreshed.cf.value == redrawn.cf.value;
  const double ratio =
      refresh_seconds > 0 ? redraw_seconds / refresh_seconds : 0.0;

  TablePrinter out({"path", "wall-clock", "estimate CF'"});
  out.AddRow({"NotifyAppend + re-estimate",
              FormatDouble(refresh_seconds, 4) + " s",
              FormatDouble(refreshed.cf.value)});
  out.AddRow({"full re-draw + estimate", FormatDouble(redraw_seconds, 4) + " s",
              FormatDouble(redrawn.cf.value)});
  out.Print();
  std::printf("\nincremental refresh is %.2fx the re-draw path; estimates "
              "%s (version %llu, %llu invalidation(s))\n",
              ratio, equal ? "equal" : "DIVERGE",
              static_cast<unsigned long long>(
                  incremental.cache_stats().sample_version),
              static_cast<unsigned long long>(
                  incremental.cache_stats().invalidations));

  json->AddInt("grow_base_rows", static_cast<int64_t>(base_rows));
  json->AddInt("grow_delta_rows", static_cast<int64_t>(delta));
  json->AddDouble("refresh_seconds", refresh_seconds);
  json->AddDouble("redraw_seconds", redraw_seconds);
  json->AddDouble("refresh_speedup", ratio);
  json->AddBool("refresh_estimate_equal", equal);

  if (!equal) {
    std::fprintf(stderr,
                 "FATAL: incremental refresh diverges from full re-draw\n");
    std::exit(1);
  }
}

void Run() {
  bench::PrintHeader(
      "E-SVC / Catalog service — cross-table batching + delta refresh",
      "2 tables, 40 candidates, f = 0.04: one fan-out, one sample and one "
      "index build per key set per table; growth refreshes in O(delta).");

  Catalog catalog;
  bench::CheckOk(catalog.AddTable("orders", GenerateOrders()), "orders");
  bench::CheckOk(catalog.AddTable("lineitem", GenerateLineitem()),
                 "lineitem");

  bench::JsonEmitter json("catalog_service");
  RunCrossTableBatch(catalog, &json);
  std::printf("\n");
  RunDeltaRefresh(&json);
  json.Print();
}

}  // namespace
}  // namespace cfest

int main() { cfest::Run(); }
