// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Monte-Carlo evaluation of SampleCF against exact ground truth: the engine
// behind every accuracy experiment in bench/. Runs m independent trials,
// reports bias, spread, and the paper's expected ratio error.

#ifndef CFEST_REPRO_EVALUATION_H_
#define CFEST_REPRO_EVALUATION_H_

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "estimator/sample_cf.h"

namespace cfest {

/// \brief Monte-Carlo evaluation parameters.
struct EvaluationOptions {
  double fraction = 0.01;
  uint32_t trials = 100;
  uint64_t seed = 42;
  const RowSampler* sampler = nullptr;  // null = uniform with replacement
  SizeMetric metric = SizeMetric::kDataBytes;
  IndexBuildOptions build = {kDefaultPageSize, /*keep_pages=*/false};
};

/// \brief Aggregated accuracy of SampleCF over the trials.
struct EvaluationResult {
  CompressionFraction truth;
  /// Per-trial estimates CF'.
  std::vector<double> estimates;
  Summary estimate_summary;
  /// mean(CF') - CF: zero for unbiased estimators (Theorem 1).
  double bias = 0.0;
  /// E[max(CF/CF', CF'/CF)] over trials — the paper's expected ratio error.
  double mean_ratio_error = 1.0;
  double max_ratio_error = 1.0;
  /// Theorem 1's bound 1/(2 sqrt(r)) on the stddev (NS; informational
  /// otherwise).
  double theorem1_bound = 0.0;
  double mean_sample_rows = 0.0;
};

/// Computes ground truth once, then runs `trials` SampleCF draws.
Result<EvaluationResult> EvaluateSampleCF(const Table& table,
                                          const IndexDescriptor& descriptor,
                                          const CompressionScheme& scheme,
                                          const EvaluationOptions& options);

}  // namespace cfest

#endif  // CFEST_REPRO_EVALUATION_H_
