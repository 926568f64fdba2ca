#include "repro/evaluation.h"

#include "estimator/analytic_model.h"

namespace cfest {

Result<EvaluationResult> EvaluateSampleCF(const Table& table,
                                          const IndexDescriptor& descriptor,
                                          const CompressionScheme& scheme,
                                          const EvaluationOptions& options) {
  if (options.trials == 0) {
    return Status::InvalidArgument("need at least one trial");
  }
  EvaluationResult result;
  CFEST_ASSIGN_OR_RETURN(
      result.truth, ComputeTrueCF(table, descriptor, scheme, options.metric,
                                  options.build));

  SampleCFOptions sample_options;
  sample_options.fraction = options.fraction;
  sample_options.sampler = options.sampler;
  sample_options.metric = options.metric;
  sample_options.build = options.build;

  Random master(options.seed);
  RunningStats ratio_errors;
  RunningStats sample_rows;
  result.estimates.reserve(options.trials);
  for (uint32_t t = 0; t < options.trials; ++t) {
    Random trial_rng = master.Fork();
    CFEST_ASSIGN_OR_RETURN(
        SampleCFResult trial,
        SampleCF(table, descriptor, scheme, sample_options, &trial_rng));
    result.estimates.push_back(trial.cf.value);
    ratio_errors.Add(RatioError(result.truth.value, trial.cf.value));
    sample_rows.Add(static_cast<double>(trial.sample_rows));
  }
  result.estimate_summary = Summarize(result.estimates);
  result.bias = result.estimate_summary.mean - result.truth.value;
  result.mean_ratio_error = ratio_errors.mean();
  result.max_ratio_error = ratio_errors.max();
  result.mean_sample_rows = sample_rows.mean();
  result.theorem1_bound = Theorem1StdDevBound(
      static_cast<uint64_t>(sample_rows.mean() + 0.5));
  return result;
}

}  // namespace cfest
