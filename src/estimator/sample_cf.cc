#include "estimator/sample_cf.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "compression/kernels.h"

namespace cfest {

Result<SampleCFResult> SampleCF(const Table& table,
                                const IndexDescriptor& descriptor,
                                const CompressionScheme& scheme,
                                const SampleCFOptions& options, Random* rng) {
  std::unique_ptr<RowSampler> default_sampler;
  const RowSampler* sampler = options.sampler;
  if (sampler == nullptr) {
    default_sampler = MakeUniformWithReplacementSampler();
    sampler = default_sampler.get();
  }

  // Step 1: T' = sample of f*n rows from T.
  CFEST_ASSIGN_OR_RETURN(std::unique_ptr<Table> sample,
                         sampler->Sample(table, options.fraction, rng));

  // Step 2: build index I'(S) on T'.
  CFEST_ASSIGN_OR_RETURN(Index index,
                         Index::Build(*sample, descriptor, options.build));

  // Step 3: compress I' using C.
  CFEST_ASSIGN_OR_RETURN(CompressedIndex compressed,
                         index.Compress(scheme, options.build));

  // Step 4: return the CF observed on the sample.
  SampleCFResult result;
  result.cf = MeasureCF(index.stats(), compressed.stats(), options.metric);
  result.sample_rows = sample->num_rows();
  result.sample_dictionary_entries = compressed.stats().dictionary_entries;
  result.sample_uncompressed = index.stats();
  result.sample_compressed = compressed.stats();
  return result;
}

Result<SampleCFResult> SampleCFFromIndex(const Index& index,
                                         const CompressionScheme& scheme,
                                         const SampleCFOptions& options,
                                         Random* rng) {
  CFEST_RETURN_NOT_OK(CheckFraction(options.fraction));
  if (index.num_rows() == 0) {
    return Status::InvalidArgument("cannot sample an empty index");
  }
  // Uniform with replacement over index positions; sorting the positions
  // restores key order for free (the index rows already are key-ordered)
  // and keeps a position drawn twice adjacent, so the index's grouped
  // columns stay grouped.
  const uint64_t r = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             options.fraction * static_cast<double>(index.num_rows()))));
  std::vector<uint64_t> positions;
  positions.reserve(r);
  for (uint64_t i = 0; i < r; ++i) {
    positions.push_back(rng->NextBounded(index.num_rows()));
  }
  std::sort(positions.begin(), positions.end());

  const uint32_t w = index.schema().row_width();
  std::string rows(r * w, '\0');
  kernels::GatherRows(index.row(0).data(), w, positions.data(), r,
                      rows.data());
  CFEST_ASSIGN_OR_RETURN(
      auto builder,
      CompressedIndexBuilder::Make(index.schema(), scheme, options.build,
                                   index.GroupedColumns()));
  CFEST_RETURN_NOT_OK(builder->AddRows(rows.data(), r));
  CFEST_ASSIGN_OR_RETURN(CompressedIndex compressed, builder->Finish());

  // Uncompressed accounting for the sample, by packing arithmetic (exact:
  // leaves fill greedily with fixed-width rows).
  IndexStats uncompressed;
  uncompressed.page_size = options.build.page_size;
  uncompressed.row_count = r;
  uncompressed.row_data_bytes = r * w;
  const uint64_t per_page = std::max<uint64_t>(
      1, (options.build.page_size - kPageHeaderSize) / (w + kSlotSize));
  uncompressed.leaf_pages = (r + per_page - 1) / per_page;
  uncompressed.leaf_used_bytes =
      uncompressed.leaf_pages * kPageHeaderSize + r * (w + kSlotSize);
  uncompressed.internal_pages =
      InternalPageCount(uncompressed.leaf_pages, index.fanout());

  SampleCFResult result;
  result.cf = MeasureCF(uncompressed, compressed.stats(), options.metric);
  result.sample_rows = r;
  result.sample_dictionary_entries = compressed.stats().dictionary_entries;
  result.sample_uncompressed = uncompressed;
  result.sample_compressed = compressed.stats();
  return result;
}

}  // namespace cfest
