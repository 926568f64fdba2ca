// Streaming compression monitoring: keep a live compression-fraction
// estimate while rows stream in (e.g. during a bulk load), using an
// estimation engine in reservoir mode — no second scan of the data.
//
// The load appends batches to a growing table. After each batch the engine
// folds the new rows into its fixed-capacity reservoir (Vitter's Algorithm
// R, resumed by NotifyAppend), so the estimate at any point equals a fresh
// draw over everything loaded so far. The monitor prints the evolving
// estimate at checkpoints and compares the final one against the exact CF.
//
// Build & run:  ./build/example_streaming_monitor

#include <algorithm>
#include <cstdio>
#include <memory>

#include "common/format.h"
#include "common/stats.h"
#include "datagen/tpch/tables.h"
#include "estimator/compression_fraction.h"
#include "estimator/engine.h"

using namespace cfest;

int main() {
  std::printf("=== streaming CF monitor (reservoir SampleCF) ===\n\n");

  // The "incoming load": TPC-H orders rows.
  tpch::TpchOptions options;
  options.scale_factor = 0.02;  // 30k orders
  auto orders_result = tpch::GenerateOrders(options);
  if (!orders_result.ok()) {
    std::fprintf(stderr, "dbgen failed: %s\n",
                 orders_result.status().ToString().c_str());
    return 1;
  }
  auto orders = std::move(orders_result).ValueOrDie();

  IndexDescriptor index{"cx_orders", {"o_orderkey"}, /*clustered=*/true};
  const CompressionScheme scheme =
      CompressionScheme::Uniform(CompressionType::kPrefixDictionary);

  // The table being loaded, and the engine watching it.
  std::unique_ptr<Table> loaded = TableBuilder(orders->schema()).Finish();
  EstimationEngineOptions engine_options;
  engine_options.maintain_reservoir = true;
  engine_options.reservoir_capacity = 1500;
  EstimationEngine monitor(*loaded, engine_options);

  TablePrinter progress(
      {"rows streamed", "reservoir", "CF' estimate", "projected size"});
  constexpr uint64_t kBatchRows = 1000;
  const uint64_t checkpoint = orders->num_rows() / 5;
  SampleCFResult last;  // the estimate at the latest checkpoint
  for (RowId begin = 0; begin < orders->num_rows(); begin += kBatchRows) {
    const RowRange batch{begin,
                         std::min(begin + kBatchRows, orders->num_rows())};
    for (RowId id = batch.begin; id < batch.end; ++id) {
      if (!loaded->AppendEncodedRow(orders->row(id)).ok()) {
        std::fprintf(stderr, "stream append failed\n");
        return 1;
      }
    }
    // Before the first estimate draws the sample, this is a no-op.
    if (!monitor.NotifyAppend(batch).ok()) {
      std::fprintf(stderr, "reservoir refresh failed\n");
      return 1;
    }
    const bool last_batch = batch.end == orders->num_rows();
    if (batch.end / checkpoint == batch.begin / checkpoint && !last_batch) {
      continue;
    }
    auto epoch = monitor.PinEpoch();
    if (!epoch.ok()) {
      std::fprintf(stderr, "sample draw failed: %s\n",
                   epoch.status().ToString().c_str());
      return 1;
    }
    auto estimate = monitor.EstimateCFAt(**epoch, index, scheme);
    if (!estimate.ok()) {
      std::fprintf(stderr, "estimate failed: %s\n",
                   estimate.status().ToString().c_str());
      return 1;
    }
    last = *estimate;
    const uint64_t projected = static_cast<uint64_t>(
        last.cf.value * static_cast<double>(loaded->data_bytes()));
    progress.AddRow({std::to_string(loaded->num_rows()),
                     std::to_string(last.sample_rows),
                     FormatDouble(last.cf.value), HumanBytes(projected)});
  }
  progress.Print();

  // The last batch is always a checkpoint, so `last` covers the whole load.
  auto truth = ComputeTrueCF(*loaded, index, scheme);
  if (!truth.ok()) {
    std::fprintf(stderr, "exact CF failed: %s\n",
                 truth.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "\nfinal estimate CF' = %.4f from a %llu-row reservoir over %llu "
      "streamed rows; exact CF = %.4f (ratio error %.4f).\n",
      last.cf.value, static_cast<unsigned long long>(last.sample_rows),
      static_cast<unsigned long long>(loaded->num_rows()), truth->value,
      RatioError(truth->value, last.cf.value));
  return 0;
}
