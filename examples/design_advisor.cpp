// Physical design with compression under a storage bound — the scenario the
// paper's introduction uses to motivate the estimator: "automated physical
// design tools ... take as input a query workload and a storage bound to
// produce a set of indexes that can fit the storage bound".
//
// Each candidate index comes in an uncompressed and a compressed variant;
// the advisor sizes every variant with SampleCF and picks the best feasible
// set. Compression lets more indexes fit the bound.
//
// Build & run:  ./build/examples/design_advisor

#include <cstdio>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/what_if.h"
#include "common/format.h"
#include "datagen/tpch/tables.h"
#include "repro/cost_model.h"

using namespace cfest;

int main() {
  std::printf("=== compression-aware index advisor ===\n\n");
  tpch::TpchOptions tpch_options;
  tpch_options.scale_factor = 0.01;
  auto catalog_result = tpch::GenerateCatalog(tpch_options);
  if (!catalog_result.ok()) {
    std::fprintf(stderr, "dbgen failed: %s\n",
                 catalog_result.status().ToString().c_str());
    return 1;
  }
  auto catalog = std::move(catalog_result).ValueOrDie();
  const Table& lineitem =
      *std::move(catalog->GetTable("lineitem")).ValueOrDie();
  const Table& orders = *std::move(catalog->GetTable("orders")).ValueOrDie();

  // The query workload: range scans with selectivities and frequencies.
  // Candidate benefits are *derived* from the cost model (paper §I: the
  // design tool must "reason about the I/O costs of query execution").
  const std::vector<Query> workload = {
      {"lineitem", "l_shipdate", 0.02, 10.0},
      {"lineitem", "l_shipmode", 0.14, 4.0},
      {"lineitem", "l_partkey", 0.001, 6.0},
      {"orders", "o_orderdate", 0.03, 8.0},
      {"orders", "o_clerk", 0.01, 2.0},
  };
  struct Spec {
    const Table* table;
    const char* table_name;
    IndexDescriptor index;
  };
  const std::vector<Spec> specs = {
      {&lineitem, "lineitem", {"ix_l_shipdate", {"l_shipdate"}, false}},
      {&lineitem, "lineitem", {"ix_l_shipmode", {"l_shipmode"}, false}},
      {&lineitem, "lineitem", {"ix_l_partkey", {"l_partkey"}, false}},
      {&orders, "orders", {"ix_o_orderdate", {"o_orderdate"}, false}},
      {&orders, "orders", {"ix_o_clerk", {"o_clerk"}, false}},
  };

  // Baseline physical design: just the two table heaps.
  CostModelParams cost_params;
  const std::vector<PhysicalOption> heaps = {
      {"lineitem", "", lineitem.data_bytes(), lineitem.num_rows(), false},
      {"orders", "", orders.data_bytes(), orders.num_rows(), false},
  };

  // Two variants per index: uncompressed and page-dictionary compressed.
  // Sizes come from SampleCF; benefits from the cost model on those sizes.
  std::vector<SizedCandidate> sized;
  SampleCFOptions options;
  options.fraction = 0.02;
  Random rng(99);
  for (const Spec& spec : specs) {
    for (bool compressed : {false, true}) {
      CandidateConfiguration config;
      config.table_name = spec.table_name;
      config.index = spec.index;
      config.scheme = CompressionScheme::Uniform(
          compressed ? CompressionType::kDictionaryPage
                     : CompressionType::kNone);
      auto result = EstimateCandidateSize(*spec.table, config, options, &rng);
      if (!result.ok()) {
        std::fprintf(stderr, "sizing failed: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      PhysicalOption option{spec.table_name, spec.index.key_columns[0],
                            result->estimated_bytes, spec.table->num_rows(),
                            compressed};
      auto benefit = CandidateBenefit(workload, heaps, option, cost_params);
      if (!benefit.ok()) {
        std::fprintf(stderr, "costing failed: %s\n",
                     benefit.status().ToString().c_str());
        return 1;
      }
      result->config.benefit = *benefit;
      sized.push_back(std::move(*result));
    }
  }

  TablePrinter candidates({"candidate", "scheme", "benefit", "est. CF'",
                           "est. size"});
  for (const SizedCandidate& c : sized) {
    candidates.AddRow({c.config.table_name + "." + c.config.index.name,
                       c.config.scheme.ToString(),
                       FormatDouble(c.config.benefit, 1),
                       FormatDouble(c.estimated_cf, 3),
                       HumanBytes(c.estimated_bytes)});
  }
  candidates.Print();

  // Pick configurations under a bound that cannot hold everything.
  uint64_t all_uncompressed = 0;
  for (const SizedCandidate& c : sized) {
    if (c.config.scheme.default_type == CompressionType::kNone) {
      all_uncompressed += c.estimated_bytes;
    }
  }
  const uint64_t bound = all_uncompressed / 2;
  std::printf("\nstorage bound: %s (all-uncompressed would need %s)\n\n",
              HumanBytes(bound).c_str(), HumanBytes(all_uncompressed).c_str());

  for (AdvisorStrategy strategy :
       {AdvisorStrategy::kGreedy, AdvisorStrategy::kOptimal}) {
    auto rec = SelectConfigurations(sized, bound, strategy);
    if (!rec.ok()) {
      std::fprintf(stderr, "selection failed: %s\n",
                   rec.status().ToString().c_str());
      return 1;
    }
    std::printf("%s: benefit %.1f using %s\n",
                strategy == AdvisorStrategy::kGreedy ? "greedy " : "optimal",
                rec->total_benefit, HumanBytes(rec->total_bytes).c_str());
    for (const SizedCandidate& c : rec->selected) {
      std::printf("    %-28s %-18s %s\n",
                  (c.config.table_name + "." + c.config.index.name).c_str(),
                  c.config.scheme.ToString().c_str(),
                  HumanBytes(c.estimated_bytes).c_str());
    }
  }
  std::printf(
      "\nWithout compressed variants the same bound would fit fewer, less "
      "useful indexes —\nwhich is exactly why design tools need cheap, "
      "accurate CF estimates.\n");
  return 0;
}
