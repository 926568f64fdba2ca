// A3 — per-column scheme recommendation from samples (extension): does a 2%
// sample pick the same per-column compression a full scan would pick, and
// how close is the recommended scheme's size to the per-column optimum?

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/format.h"
#include "datagen/tpch/tables.h"
#include "estimator/compression_fraction.h"
#include "estimator/scheme_advisor.h"
#include "index/index.h"

namespace cfest {
namespace {

/// Full-data per-column optimum: compress the whole index under each
/// candidate and pick the smallest per column (the oracle the sample-based
/// recommender approximates).
CompressionScheme OracleScheme(const Table& table,
                               const IndexDescriptor& desc) {
  IndexBuildOptions build;
  build.keep_pages = false;
  Index index =
      bench::CheckResult(Index::Build(table, desc, build), "index");
  const Schema& schema = index.schema();
  std::vector<double> best(schema.num_columns(),
                           std::numeric_limits<double>::infinity());
  CompressionScheme oracle;
  oracle.per_column.resize(schema.num_columns(), CompressionType::kNone);
  for (CompressionType type : AllCompressionTypes()) {
    CompressionScheme scheme = CompressionScheme::Uniform(type);
    bool any = false;
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      const bool fits = MakeColumnCompressor(type, schema.column(c).type).ok();
      scheme.per_column.push_back(fits ? type : CompressionType::kNone);
      any = any || fits;
    }
    if (!any) continue;
    CompressedIndex compressed =
        bench::CheckResult(index.Compress(scheme, build), "compress");
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      if (scheme.per_column[c] != type) continue;
      const auto& col = compressed.stats().columns[c];
      const double bytes =
          static_cast<double>(col.chunk_bytes + col.aux_bytes);
      if (bytes < best[c]) {
        best[c] = bytes;
        oracle.per_column[c] = type;
      }
    }
  }
  return oracle;
}

void Run() {
  bench::PrintHeader(
      "A3 / Scheme recommendation from a sample vs the full-data oracle",
      "Extension: per-column best-scheme choice, TPC-H sf = 0.01, f = 2%.");

  tpch::TpchOptions tpch_options;
  tpch_options.scale_factor = 0.01;
  auto catalog = bench::CheckResult(tpch::GenerateCatalog(tpch_options),
                                    "generate catalog");

  TablePrinter table({"index", "columns agreeing with oracle",
                      "recommended CF (true)", "oracle CF (true)",
                      "best uniform CF (true)"});
  bench::Timer timer;
  struct Target {
    const char* table_name;
    const char* key;
  };
  for (const Target& target : std::vector<Target>{
           {"lineitem", "l_orderkey"}, {"orders", "o_orderkey"},
           {"part", "p_partkey"}, {"customer", "c_custkey"}}) {
    const Table& t = *bench::CheckResult(
        catalog->GetTable(target.table_name), "lookup");
    IndexDescriptor desc{"cx", {target.key}, /*clustered=*/true};

    SampleCFOptions options;
    options.fraction = 0.02;
    Random rng(4242);
    SchemeRecommendation rec = bench::CheckResult(
        RecommendScheme(t, desc, {}, options, &rng), "recommend");
    CompressionScheme oracle = OracleScheme(t, desc);

    size_t agree = 0;
    for (size_t c = 0; c < oracle.per_column.size(); ++c) {
      if (rec.scheme.per_column[c] == oracle.per_column[c]) ++agree;
    }
    const double rec_cf =
        bench::CheckResult(ComputeTrueCF(t, desc, rec.scheme), "rec cf")
            .value;
    const double oracle_cf =
        bench::CheckResult(ComputeTrueCF(t, desc, oracle), "oracle cf")
            .value;
    double best_uniform = std::numeric_limits<double>::infinity();
    for (CompressionType type :
         {CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
          CompressionType::kPrefixDictionary, CompressionType::kRle}) {
      best_uniform = std::min(
          best_uniform,
          bench::CheckResult(
              ComputeTrueCF(t, desc, CompressionScheme::Uniform(type)),
              "uniform cf")
              .value);
    }
    table.AddRow({std::string(target.table_name) + "." + target.key,
                  std::to_string(agree) + "/" +
                      std::to_string(oracle.per_column.size()),
                  FormatDouble(rec_cf), FormatDouble(oracle_cf),
                  FormatDouble(best_uniform)});
  }
  table.Print();
  std::printf(
      "\nShape: the 2%% sample recovers (nearly) the oracle's per-column "
      "choices, and the mixed\nscheme beats every uniform scheme — the "
      "practical payoff of cheap CF estimation.\nelapsed %.1fs\n",
      timer.Seconds());
}

}  // namespace
}  // namespace cfest

int main() {
  cfest::Run();
  return 0;
}
