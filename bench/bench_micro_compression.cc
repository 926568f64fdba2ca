// M1 — google-benchmark micro suite: per-compressor chunk throughput and
// end-to-end compressed index build rates.

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "compression/compressed_index.h"
#include "compression/compressor.h"
#include "compression/scheme.h"
#include "datagen/table_gen.h"

namespace cfest {
namespace {

std::vector<std::string> MakeCells(size_t count, uint32_t k, uint64_t d) {
  Random rng(1234);
  std::vector<std::string> cells;
  cells.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::string value = "v";
    value += std::to_string(rng.NextBounded(d));
    value.append(k - value.size(), ' ');
    cells.push_back(std::move(value));
  }
  return cells;
}

void BM_ChunkCompress(benchmark::State& state) {
  const auto type = static_cast<CompressionType>(state.range(0));
  const uint32_t k = 20;
  const auto cells = MakeCells(1000, k, 64);
  auto compressor =
      std::move(MakeColumnCompressor(type, CharType(k))).ValueOrDie();
  for (auto _ : state) {
    auto chunk = compressor->NewChunk();
    for (const auto& cell : cells) {
      benchmark::DoNotOptimize(chunk->CostWith(Slice(cell)));
      chunk->Add(Slice(cell));
    }
    std::string wire = chunk->Finish();
    benchmark::DoNotOptimize(wire);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cells.size()) * k);
  state.SetLabel(CompressionTypeName(type));
}
BENCHMARK(BM_ChunkCompress)
    ->Arg(static_cast<int>(CompressionType::kNone))
    ->Arg(static_cast<int>(CompressionType::kNullSuppression))
    ->Arg(static_cast<int>(CompressionType::kDictionaryPage))
    ->Arg(static_cast<int>(CompressionType::kDictionaryGlobal))
    ->Arg(static_cast<int>(CompressionType::kRle))
    ->Arg(static_cast<int>(CompressionType::kPrefix));

void BM_ChunkDecode(benchmark::State& state) {
  const auto type = static_cast<CompressionType>(state.range(0));
  const uint32_t k = 20;
  const auto cells = MakeCells(1000, k, 64);
  auto compressor =
      std::move(MakeColumnCompressor(type, CharType(k))).ValueOrDie();
  auto chunk = compressor->NewChunk();
  for (const auto& cell : cells) chunk->Add(Slice(cell));
  const std::string wire = chunk->Finish();
  for (auto _ : state) {
    std::vector<std::string> decoded;
    benchmark::DoNotOptimize(compressor->DecodeChunk(Slice(wire), &decoded));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(cells.size()) * k);
  state.SetLabel(CompressionTypeName(type));
}
BENCHMARK(BM_ChunkDecode)
    ->Arg(static_cast<int>(CompressionType::kNullSuppression))
    ->Arg(static_cast<int>(CompressionType::kDictionaryPage))
    ->Arg(static_cast<int>(CompressionType::kDictionaryGlobal))
    ->Arg(static_cast<int>(CompressionType::kRle))
    ->Arg(static_cast<int>(CompressionType::kPrefix));

void BM_CompressedIndexBuild(benchmark::State& state) {
  const auto type = static_cast<CompressionType>(state.range(0));
  auto table = std::move(GenerateTable(
                             {ColumnSpec::String("a", 20, 500,
                                                 FrequencySpec::Uniform(),
                                                 LengthSpec::Uniform(1, 16)),
                              ColumnSpec::Integer("b", 100)},
                             20000, 9))
                   .ValueOrDie();
  std::vector<Slice> rows;
  rows.reserve(table->num_rows());
  for (RowId id = 0; id < table->num_rows(); ++id) {
    rows.push_back(table->row(id));
  }
  IndexBuildOptions options;
  options.keep_pages = false;
  for (auto _ : state) {
    auto compressed = CompressRows(
        table->schema(), CompressionScheme::Uniform(type), rows, options);
    benchmark::DoNotOptimize(compressed);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(table->data_bytes()));
  state.SetLabel(CompressionTypeName(type));
}
BENCHMARK(BM_CompressedIndexBuild)
    ->Arg(static_cast<int>(CompressionType::kNullSuppression))
    ->Arg(static_cast<int>(CompressionType::kDictionaryPage))
    ->Arg(static_cast<int>(CompressionType::kDictionaryGlobal));

}  // namespace
}  // namespace cfest

BENCHMARK_MAIN();
