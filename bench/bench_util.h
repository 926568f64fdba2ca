// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// Shared helpers for the bench binaries: `repro` (every paper experiment,
// each printing rows through TablePrinter and checking its claims), the
// gated system benches, and the end-to-end benchmark in bench/e2e/.

#ifndef CFEST_BENCH_BENCH_UTIL_H_
#define CFEST_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "common/format.h"
#include "common/json_writer.h"
#include "common/metrics.h"
#include "common/result.h"
#include "common/status.h"

namespace cfest {
namespace bench {

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& experiment,
                        const std::string& claim) {
  std::printf("=============================================================\n");
  std::printf("%s\n", experiment.c_str());
  std::printf("%s\n", claim.c_str());
  std::printf("=============================================================\n");
}

/// Aborts the binary with a readable message if a Status is not OK. The
/// experiment binaries are straight-line programs; failing fast is correct.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL [%s]: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

template <typename T>
T CheckResult(Result<T> result, const char* what) {
  CheckOk(result.status(), what);
  return std::move(result).ValueOrDie();
}

/// Machine-readable result line alongside the human tables — the shared
/// one-object writer from common/json_writer.h, extended so every bench
/// artifact carries the process's metric-registry snapshot: Print()
/// appends a "metrics" object (counters/gauges/histograms at print time)
/// to the emitted line without touching the bench's own fields. Benches
/// that emit several lines get a snapshot per line — each reflects the
/// registry at that emission, which is exactly the timeline a scraper
/// wants.
class JsonEmitter : public ::cfest::JsonWriter {
 public:
  using ::cfest::JsonWriter::JsonWriter;

  /// Nested emitters are plain objects (only the top-level Print carries
  /// the snapshot), so arrays of them slice down to the base writer.
  using ::cfest::JsonWriter::AddObjectArray;
  void AddObjectArray(const std::string& key,
                      const std::vector<JsonEmitter>& values) {
    const std::vector<::cfest::JsonWriter> base(values.begin(), values.end());
    ::cfest::JsonWriter::AddObjectArray(key, base);
  }

  void Print() const {
    JsonWriter with_metrics = *this;
    with_metrics.AddObject(
        "metrics",
        metrics::MetricRegistry::Global().Snapshot().ToJsonWriter());
    with_metrics.Print();
  }
};

}  // namespace bench
}  // namespace cfest

#endif  // CFEST_BENCH_BENCH_UTIL_H_
