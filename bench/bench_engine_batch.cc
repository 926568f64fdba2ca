// E-ENG — one sample, many candidates: per-candidate SampleCF vs the
// EstimationEngine on an advisor-sized workload.
//
// A physical-design advisor sizes dozens of (index, scheme) candidates per
// request. The per-candidate baseline re-draws the sample, re-materializes
// it, and re-sorts the sample index for every candidate; the engine draws
// one zero-copy sample and builds each distinct key set's sample index
// once, while the one-table catalog service in front of it fans candidates
// across its thread pool (§II-C: "a single random sample can be reused
// across estimations"). Estimates must be identical — the engine removes
// redundancy, not fidelity.

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "common/random.h"
#include "datagen/table_gen.h"
#include "estimator/engine.h"
#include "estimator/sample_cf.h"
#include "estimator/service.h"
#include "storage/catalog.h"

namespace cfest {
namespace {

constexpr double kFraction = 0.01;
constexpr uint64_t kSeed = 42;

/// A wide denormalized fact table (13 foreign-key id columns + 24 payload
/// columns, ~1.4 KB rows) — the advisor's candidates are narrow secondary
/// indexes on the id columns, so the per-candidate baseline's full-width
/// sample materialization is pure waste the engine's TableView avoids.
std::unique_ptr<Table> GenerateFactTable() {
  std::vector<ColumnSpec> specs;
  for (int i = 0; i < 13; ++i) {
    specs.push_back(ColumnSpec::Integer(
        "id" + std::to_string(i), 500 + i * 400,
        i % 2 ? FrequencySpec::Zipf(0.8) : FrequencySpec::Uniform()));
  }
  for (int i = 0; i < 24; ++i) {
    specs.push_back(ColumnSpec::String("payload" + std::to_string(i), 64, 0,
                                       FrequencySpec::Uniform(),
                                       LengthSpec::Uniform(20, 60)));
  }
  return bench::CheckResult(GenerateTable(specs, 150000, 7), "generate");
}

std::vector<CandidateConfiguration> BuildWorkload() {
  // 13 key columns x 4 schemes = 52 pairs; the first 50 form the workload.
  const std::vector<CompressionType> schemes = {
      CompressionType::kNullSuppression, CompressionType::kRle,
      CompressionType::kDelta, CompressionType::kPrefix};

  std::vector<CandidateConfiguration> candidates;
  for (int col = 0; col < 13; ++col) {
    const std::string key = "id" + std::to_string(col);
    for (CompressionType type : schemes) {
      if (candidates.size() == 50) break;
      CandidateConfiguration c;
      c.table_name = "fact";
      c.index = {"ix_" + key + "_" + CompressionTypeName(type), {key},
                 /*clustered=*/false};
      c.scheme = CompressionScheme::Uniform(type);
      c.benefit = 1.0;
      candidates.push_back(std::move(c));
    }
  }
  return candidates;
}

void Run() {
  bench::PrintHeader(
      "E-ENG / Batched estimation — per-candidate SampleCF vs "
      "EstimationEngine",
      "50 candidates, 4 schemes, f = 0.01: same estimates, one sample, "
      "one index build per key set.");

  // A standalone table is a one-table catalog.
  Catalog catalog;
  bench::CheckOk(catalog.AddTable("fact", GenerateFactTable()), "fact");
  const Table* table = bench::CheckResult(catalog.GetTable("fact"), "fact");
  const std::vector<CandidateConfiguration> candidates = BuildWorkload();

  SampleCFOptions options;
  options.fraction = kFraction;
  options.metric = SizeMetric::kPageBytes;

  // Best of kReps timed repetitions per path, to keep the comparison stable
  // on a noisy machine. Estimates are checked on every repetition.
  constexpr int kReps = 3;

  // Baseline: one full SampleCF pipeline per candidate (fresh sample draw,
  // materialized sample table, fresh sample index build).
  std::vector<double> baseline_cf(candidates.size());
  double baseline_seconds = 1e30;
  for (int rep = 0; rep < kReps; ++rep) {
    bench::Timer timer;
    for (size_t i = 0; i < candidates.size(); ++i) {
      Random rng(kSeed);
      SampleCFResult r = bench::CheckResult(
          SampleCF(*table, candidates[i].index, candidates[i].scheme, options,
                   &rng),
          "SampleCF");
      baseline_cf[i] = r.cf.value;
    }
    baseline_seconds = std::min(baseline_seconds, timer.Seconds());
  }

  // Engine: one shared sample, cached per-key-set index builds, pooled
  // fan-out through the service. A fresh service (and so a fresh engine)
  // per repetition so nothing is cached across reps.
  double engine_seconds = 1e30;
  std::vector<SizedCandidate> sized;
  EstimationEngine::CacheStats stats;
  for (int rep = 0; rep < kReps; ++rep) {
    CatalogEstimationServiceOptions service_options;
    service_options.base = options;
    service_options.seed = kSeed;
    CatalogEstimationService service(catalog, service_options);
    bench::Timer timer;
    sized = bench::CheckResult(service.EstimateAll(candidates), "EstimateAll");
    engine_seconds = std::min(engine_seconds, timer.Seconds());
    stats = bench::CheckResult(service.Engine("fact"), "engine")->cache_stats();
  }

  size_t mismatches = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if (baseline_cf[i] != sized[i].estimated_cf) ++mismatches;
  }
  const double speedup =
      engine_seconds > 0 ? baseline_seconds / engine_seconds : 0.0;

  TablePrinter out({"path", "wall-clock", "samples drawn", "index builds"});
  out.AddRow({"per-candidate SampleCF",
              FormatDouble(baseline_seconds, 4) + " s",
              std::to_string(candidates.size()),
              std::to_string(candidates.size())});
  out.AddRow({"EstimationEngine", FormatDouble(engine_seconds, 4) + " s",
              std::to_string(stats.samples_drawn),
              std::to_string(stats.index_builds)});
  out.Print();
  std::printf("\nspeedup %.2fx; %zu/%zu estimates differ (must be 0)\n",
              speedup, mismatches, candidates.size());

  bench::JsonEmitter json("engine_batch");
  json.AddInt("candidates", static_cast<int64_t>(candidates.size()));
  json.AddDouble("fraction", kFraction);
  json.AddDouble("baseline_seconds", baseline_seconds);
  json.AddDouble("engine_seconds", engine_seconds);
  json.AddDouble("speedup", speedup);
  json.AddInt("samples_drawn", static_cast<int64_t>(stats.samples_drawn));
  json.AddInt("index_builds", static_cast<int64_t>(stats.index_builds));
  json.AddInt("index_cache_hits",
              static_cast<int64_t>(stats.index_cache_hits));
  json.AddInt("mismatches", static_cast<int64_t>(mismatches));
  json.Print();

  if (mismatches != 0) {
    std::fprintf(stderr, "FATAL: engine estimates diverge from SampleCF\n");
    std::exit(1);
  }
}

}  // namespace
}  // namespace cfest

int main() { cfest::Run(); }
