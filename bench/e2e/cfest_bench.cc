// cfest_bench — the end-to-end sizing benchmark's program (bench/e2e).
//
// One process runs one workload against a seeded TPC-H catalog and prints
// its result as plain lines, one value per line (see PrintResult). run.py
// builds cfest_bench, runs it once per workload, and turns those lines into
// the benchmark's JSON result; README.md explains the workloads, metrics
// and bounds.
//
// cfest_bench reaches the library only through the surfaces the sizing
// front door keeps: the catalog service (EstimateAll, NotifyAppend,
// Engine), the epoch-pinned engine calls (PinEpoch, SampleIndexAt,
// CompressOnSampleAt, EstimateAt, GrowSampleToEpoch), the lazy advisor and
// SearchSizedCandidates, Catalog::AppendRows, the TPC-H generator,
// ComputeTrueCF, and the metric registry and trace API. Every count comes
// from MetricRegistry snapshot deltas, never from a stats struct.
//
// Untraced runs (--trace 0) run the window in slices and report the
// end-to-end metrics, times scaled to a reference speed (see
// ReferenceKernel). Traced runs
// (--trace 1) alternate untraced and traced slices of half the window,
// then run a layer probe, and report the per-layer metrics.

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "advisor/search.h"
#include "bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/simd.h"
#include "common/trace.h"
#include "datagen/tpch/tables.h"
#include "estimator/adaptive.h"
#include "estimator/compression_fraction.h"
#include "estimator/engine.h"
#include "estimator/epoch.h"
#include "estimator/service.h"
#include "storage/catalog.h"

#ifndef CFEST_BENCH_BUILD_TYPE
#define CFEST_BENCH_BUILD_TYPE "unknown"
#endif

namespace cfest {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;
using bench::CheckResult;

// ---------------------------------------------------------------------------
// The benchmark's fixed shape. Changing any of these changes what it
// measures; measure the baseline again after doing so.
// ---------------------------------------------------------------------------

constexpr double kScaleFactor = 0.2;  // lineitem 1.2M rows, about 230 MB
constexpr double kQuickScaleFactor = 0.02;
constexpr double kFraction = 0.02;
constexpr uint32_t kPoolThreads = 2;
constexpr size_t kBatchSize = 32;
constexpr int kSetupPasses = 5;
constexpr size_t kAppendRows = 1000;
constexpr std::chrono::milliseconds kAppendPeriod{50};
/// Distinct pre-generated append batches, cycled by the appender.
constexpr size_t kAppendBatches = 16;
/// One batch in kRecordEvery is kept for the serial replay.
constexpr uint64_t kRecordEvery = 16;
constexpr size_t kMaxRecorded = 48;
/// Quiesced re-runs checked after the ingest window.
constexpr size_t kIngestReplays = 8;
/// The advisor's storage bound as a share of the pool's uncompressed bytes.
constexpr double kBoundShare = 0.05;
/// The "stages add up" gate: probe stages within 10% of EstimateAll.
constexpr double kCoverageTolerance = 0.10;
/// Per-thread span ring: large enough that a traced run drops no span.
constexpr size_t kTraceRingRecords = size_t{1} << 20;
constexpr int kTraceSlices = 4;  // untraced, traced, untraced, traced
constexpr size_t kCoverageBatches = 8;
constexpr size_t kColdCoverageBatches = 6;
constexpr int kCoverageReps = 3;
constexpr int kFanoutBatches = 4;
constexpr int kProbeAppends = 8;
constexpr size_t kAuditPerTable = 6;
/// Seed of the fixed candidate-benefit stream (see BuildPool): the first
/// one, not a picked one.
constexpr uint64_t kBenefitStream = 1;
/// Steady and ingest run their untraced window in slices of this length,
/// with the reference kernel timed between them (see RunWindow).
constexpr double kSliceSeconds = 2.0;
/// The reference kernel sorts this many keys from a fixed stream...
constexpr size_t kReferenceKeys = size_t{1} << 20;
constexpr uint64_t kReferenceStream = 2;
/// ...and end-to-end times are scaled to a host on which it takes this long.
constexpr double kReferenceMs = 100.0;

const char* const kTables[] = {"lineitem", "orders", "part", "customer",
                               "supplier"};

PrecisionTarget SessionTarget() {
  PrecisionTarget target;
  target.rel_error = 0.02;
  target.confidence = 0.95;
  return target;
}

enum class Workload { kSteady, kIngest, kAdvise };

/// Load shape of a workload. The main thread is client 0 (or runs the
/// advisor sessions), so busy threads = max(clients, 1) + appender + pool.
struct Shape {
  const char* name;
  int clients;  // closed-loop EstimateAll clients; 0 = advisor sessions
  bool appender;
  bool reservoirs;
};

constexpr Shape kShapes[] = {
    {"steady", 2, false, false},
    {"ingest", 1, true, true},
    {"advise", 0, false, false},
};

int BusyThreads(const Shape& shape) {
  return std::max(shape.clients, 1) + (shape.appender ? 1 : 0) +
         static_cast<int>(kPoolThreads);
}

struct Options {
  Workload workload = Workload::kSteady;
  uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  bool quick = false;
  std::string trace_out;
};

// ---------------------------------------------------------------------------
// Small utilities.
// ---------------------------------------------------------------------------

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
Clock::duration FromSeconds(double seconds) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds));
}

/// Linear interpolation between closest ranks; 0 for no values.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}
double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Sum(const std::vector<double>& values) {
  double total = 0.0;
  for (double v : values) total += v;
  return total;
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "cfest_bench: %s\n", what.c_str());
  std::exit(2);
}

/// An independent, reproducible stream seed for (seed, a, b).
uint64_t StreamSeed(uint64_t seed, uint64_t a, uint64_t b) {
  Random rng(seed ^ (a * 0x9E3779B97F4A7C15ull) ^ (b * 0xC2B2AE3D27D4EB4Full));
  return rng.NextU64();
}

/// Operations attempted and failed. One per thread, merged after join.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    if (failed < 8) std::fprintf(stderr, "FAILED: %s\n", what.c_str());
    ++failed;
  }
  void Merge(const Tally& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
};

/// Host speed, measured with code the library cannot change: one
/// single-threaded std::sort of kReferenceKeys fixed keys. The development
/// host's speed drifts by 30% within a minute (neighbours on a shared
/// machine), and sorts timed right before and right after a stretch of work
/// track that drift where the median sort of a whole run does not. So every
/// end-to-end time is multiplied by kReferenceMs over the mean of the sorts
/// around it (ScaleSince), which gives the time on a host where the sort
/// takes kReferenceMs.
class ReferenceKernel {
 public:
  ReferenceKernel() : keys_(kReferenceKeys), work_(kReferenceKeys) {
    Random rng(kReferenceStream);
    for (uint64_t& key : keys_) key = rng.NextU64();
  }

  /// Times one sort, in ms.
  double TimeMs() {
    std::copy(keys_.begin(), keys_.end(), work_.begin());
    const Clock::time_point start = Clock::now();
    std::sort(work_.begin(), work_.end());
    const double ms = Millis(Clock::now() - start);
    ms_.push_back(ms);
    return ms;
  }

  /// Times one sort and returns the scale for the work done since the sort
  /// `*before_ms` timed; `*before_ms` becomes this sort's time.
  double ScaleSince(double* before_ms) {
    const double after_ms = TimeMs();
    const double scale = 2.0 * kReferenceMs / (*before_ms + after_ms);
    *before_ms = after_ms;
    return scale;
  }

  /// Every time TimeMs measured, in ms.
  const std::vector<double>& ms() const { return ms_; }

 private:
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> work_;  // sorted in place; allocated once
  std::vector<double> ms_;
};

/// Resets VmHWM to the current RSS (Linux clear_refs "5").
void ResetPeakRss() { std::ofstream("/proc/self/clear_refs") << "5"; }

/// A /proc/self/status field ("VmRSS", "VmHWM") in MB; 0 if absent.
double StatusMb(const std::string& field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, field.size() + 1, field + ":") == 0) {
      return std::strtod(line.c_str() + field.size() + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Heap bytes allocated and not yet freed, mmapped blocks included, in MB.
/// Unlike RSS, this leaves out free memory that malloc keeps in its
/// per-thread arenas: how much it keeps depends on thread timing, and the
/// peak RSS of the same advise run moved by 14 MB between runs because of it.
double HeapInUseMb() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd) / (1024.0 * 1024.0);
}

int CpuCount() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) {
    return static_cast<int>(std::thread::hardware_concurrency());
  }
  return CPU_COUNT(&set);
}

/// Registry deltas accumulated over one or more measured intervals.
class Deltas {
 public:
  void Add(const metrics::MetricsSnapshot& before,
           const metrics::MetricsSnapshot& after) {
    for (const auto& [name, value] : after.counters) {
      counters_[name] += value - before.CounterValue(name);
    }
    for (const auto& [name, data] : after.histograms) {
      metrics::HistogramData delta = data;
      auto it = before.histograms.find(name);
      if (it != before.histograms.end()) {
        delta.count -= it->second.count;
        delta.sum -= it->second.sum;
        for (size_t b = 0; b < delta.buckets.size(); ++b) {
          delta.buckets[b] -= it->second.buckets[b];
        }
      }
      histograms_[name].Merge(delta);
    }
  }

  uint64_t Counter(const std::string& name) const {
    auto it = counters_.find(name);
    return it == counters_.end() ? 0 : it->second;
  }
  metrics::HistogramData Histogram(const std::string& name) const {
    auto it = histograms_.find(name);
    return it == histograms_.end() ? metrics::HistogramData{} : it->second;
  }

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, metrics::HistogramData> histograms_;
};

metrics::MetricsSnapshot Snapshot() {
  return metrics::MetricRegistry::Global().Snapshot();
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

// ---------------------------------------------------------------------------
// Result reporting.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The metrics the run reports (`metrics`: BENCHMARK.json's list for the
/// mode), informational values (`extras`), and deterministic outputs that
/// must equal their recorded values exactly (`checks`, as text).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
  std::vector<std::pair<std::string, std::string>> checks;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Extra(std::string name, double value, std::string unit) {
    extras.push_back({std::move(name), value, std::move(unit)});
  }
  void Check(std::string name, std::string text) {
    checks.emplace_back(std::move(name), std::move(text));
  }
};

/// Every digit of a double, so printed values round-trip exactly.
std::string Digits(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// ---------------------------------------------------------------------------
// Inputs: all derive from --seed except the benefits (see BuildPool).
// ---------------------------------------------------------------------------

struct Inputs {
  std::unique_ptr<Catalog> catalog;
  /// 310 candidates over five tables.
  std::vector<CandidateConfiguration> pool;
  /// Pre-generated lineitem rows for the appender and the append probe.
  std::vector<std::vector<Row>> appends;
  /// The advisor's storage bound (schema arithmetic only, so it does not
  /// depend on the estimates under test).
  uint64_t bound = 0;
};

/// Every column x {NS, page dict, global dict, RLE, prefix}; delta and FOR
/// on integer-typed columns; a clustered index on the first column x {NS,
/// page dict, prefix dict}.
///
/// The benefits are synthetic, a choice rather than a model of any measured
/// workload: a fifth of the candidates carry 5-30, the rest 0.05-0.5. The
/// heavy tail is there so the exact search finishes: with uniform benefits
/// its fractional bound, which counts every scheme of an index, prunes too
/// little and a session ran for minutes. The benefits come from one fixed
/// stream, not from the seed, because the draw alone moves session time by
/// up to 2.8x (README.md), which would bury regressions in seed-to-seed
/// spread. The seed still varies the data, and with it every size the
/// advisor deliberates over.
std::vector<CandidateConfiguration> BuildPool(const Catalog& catalog) {
  const CompressionType kEveryColumn[] = {
      CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
      CompressionType::kDictionaryGlobal, CompressionType::kRle,
      CompressionType::kPrefix};
  const CompressionType kIntegerOnly[] = {CompressionType::kDelta,
                                          CompressionType::kFrameOfReference};
  const CompressionType kClustered[] = {CompressionType::kNullSuppression,
                                        CompressionType::kDictionaryPage,
                                        CompressionType::kPrefixDictionary};
  Random rng(kBenefitStream);
  std::vector<CandidateConfiguration> pool;
  auto add = [&](const char* table, const IndexDescriptor& index,
                 CompressionType type) {
    CandidateConfiguration c;
    c.table_name = table;
    c.index = index;
    c.scheme = CompressionScheme::Uniform(type);
    const bool winner = rng.NextDouble() < 0.2;
    c.benefit = winner ? 5.0 * std::pow(6.0, rng.NextDouble())
                       : 0.05 * std::pow(10.0, rng.NextDouble());
    pool.push_back(std::move(c));
  };
  for (const char* table_name : kTables) {
    const Table* table = CheckResult(catalog.GetTable(table_name), table_name);
    const Schema& schema = table->schema();
    for (const Column& column : schema.columns()) {
      const IndexDescriptor index{"ix_" + column.name, {column.name}, false};
      for (CompressionType type : kEveryColumn) add(table_name, index, type);
      if (column.type.IsInteger()) {
        for (CompressionType type : kIntegerOnly) add(table_name, index, type);
      }
    }
    const std::string& first = schema.column(0).name;
    const IndexDescriptor clustered{"cx_" + first, {first}, true};
    for (CompressionType type : kClustered) add(table_name, clustered, type);
  }
  return pool;
}

/// kBoundShare of the uncompressed bytes of the pool's distinct indexes.
uint64_t StorageBound(const Catalog& catalog,
                      const std::vector<CandidateConfiguration>& pool) {
  std::set<std::string> seen;
  double total = 0.0;
  for (const CandidateConfiguration& c : pool) {
    if (!seen.insert(CandidateSelectionKey(c)).second) continue;
    const Table* table =
        CheckResult(catalog.GetTable(c.table_name), c.table_name.c_str());
    total += static_cast<double>(
        CheckResult(EstimateUncompressedIndexBytes(*table, c.index),
                    "uncompressed size"));
  }
  return static_cast<uint64_t>(total * kBoundShare);
}

/// kAppendBatches batches of kAppendRows rows copied from seeded random
/// positions of lineitem, so appended rows follow the table's distribution.
std::vector<std::vector<Row>> MakeAppendBatches(const Catalog& catalog,
                                                uint64_t seed) {
  const Table* lineitem =
      CheckResult(catalog.GetTable("lineitem"), "lineitem");
  Random rng(StreamSeed(seed, 2, 0));
  std::vector<std::vector<Row>> batches(kAppendBatches);
  for (std::vector<Row>& batch : batches) {
    batch.reserve(kAppendRows);
    for (size_t r = 0; r < kAppendRows; ++r) {
      batch.push_back(CheckResult(
          lineitem->DecodeRow(rng.NextBounded(lineitem->num_rows())),
          "decode append row"));
    }
  }
  return batches;
}

Inputs MakeInputs(const Options& options) {
  Inputs in;
  tpch::TpchOptions tpch_options;
  tpch_options.scale_factor = options.quick ? kQuickScaleFactor : kScaleFactor;
  tpch_options.seed = options.seed;
  in.catalog =
      CheckResult(tpch::GenerateCatalog(tpch_options), "generate TPC-H");
  in.pool = BuildPool(*in.catalog);
  in.appends = MakeAppendBatches(*in.catalog, options.seed);
  in.bound = StorageBound(*in.catalog, in.pool);
  return in;
}

CatalogEstimationServiceOptions ServiceOptions(uint64_t seed, uint32_t threads,
                                               bool reservoirs) {
  CatalogEstimationServiceOptions options;
  options.base.fraction = kFraction;
  options.seed = seed;
  options.num_threads = threads;
  options.maintain_reservoirs = reservoirs;
  return options;
}

/// Bit-for-bit equality of everything a sizing reports.
bool SameSizing(const SizedCandidate& a, const SizedCandidate& b) {
  return std::bit_cast<uint64_t>(a.estimated_cf) ==
             std::bit_cast<uint64_t>(b.estimated_cf) &&
         a.estimated_bytes == b.estimated_bytes &&
         a.uncompressed_bytes == b.uncompressed_bytes &&
         a.sample_rows == b.sample_rows;
}

bool SameSizings(const std::vector<SizedCandidate>& a,
                 const std::vector<SizedCandidate>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!SameSizing(a[i], b[i])) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Set-up: kSetupPasses cold passes, each a fresh service sizing the whole
// pool once (sample draws and first index builds included; data generation
// excluded). Every pass must reproduce the first bit for bit.
// ---------------------------------------------------------------------------

struct SetupResult {
  std::vector<double> pass_s;
  /// pass_s at the reference host speed.
  std::vector<double> scaled_s;
  /// The last pass's service: the warm service steady and ingest run on.
  std::unique_ptr<CatalogEstimationService> warm;
};

SetupResult RunSetup(const Inputs& in, const Options& options,
                     const Shape& shape, ReferenceKernel* reference,
                     Tally* tally) {
  SetupResult out;
  std::vector<SizedCandidate> first;
  double reference_ms = reference->TimeMs();
  for (int pass = 0; pass < kSetupPasses; ++pass) {
    out.warm.reset();
    const Clock::time_point start = Clock::now();
    auto service = std::make_unique<CatalogEstimationService>(
        *in.catalog,
        ServiceOptions(options.seed, kPoolThreads, shape.reservoirs));
    Result<std::vector<SizedCandidate>> sized = service->EstimateAll(in.pool);
    out.pass_s.push_back(Seconds(Clock::now() - start));
    out.scaled_s.push_back(reference->ScaleSince(&reference_ms) *
                           out.pass_s.back());
    tally->Record(sized.ok() && sized->size() == in.pool.size(),
                  "set-up pass: " + sized.status().ToString());
    if (!sized.ok()) continue;
    if (pass == 0) {
      first = std::move(*sized);
    } else {
      tally->Record(SameSizings(first, *sized),
                    "set-up pass " + std::to_string(pass) +
                        " differs from pass 0");
    }
    out.warm = std::move(service);
  }
  if (out.warm == nullptr) Fatal("every set-up pass failed");
  return out;
}

// ---------------------------------------------------------------------------
// Load generators.
// ---------------------------------------------------------------------------

/// A batch kept for the serial replay, with what EstimateAll returned.
struct Recorded {
  std::vector<CandidateConfiguration> batch;
  std::vector<SizedCandidate> sized;
};

struct ClientLog {
  std::vector<double> latency_ms;
  uint64_t estimates = 0;
  std::vector<Recorded> recorded;
  Tally tally;
};

std::vector<CandidateConfiguration> DrawBatch(
    const std::vector<CandidateConfiguration>& pool, Random* rng) {
  std::vector<CandidateConfiguration> batch;
  batch.reserve(kBatchSize);
  for (size_t i = 0; i < kBatchSize; ++i) {
    batch.push_back(pool[rng->NextBounded(pool.size())]);
  }
  return batch;
}

/// Closed loop: the next batch is sent when the previous one returns.
void RunClient(CatalogEstimationService& service,
               const std::vector<CandidateConfiguration>& pool,
               uint64_t stream_seed, size_t max_recorded,
               Clock::time_point deadline, ClientLog* log) {
  Random rng(stream_seed);
  for (uint64_t n = 0; Clock::now() < deadline; ++n) {
    std::vector<CandidateConfiguration> batch = DrawBatch(pool, &rng);
    const Clock::time_point start = Clock::now();
    Result<std::vector<SizedCandidate>> sized = [&] {
      trace::Span span("bench.batch");
      return service.EstimateAll(batch);
    }();
    const double ms = Millis(Clock::now() - start);
    const bool ok = sized.ok() && sized->size() == batch.size();
    log->tally.Record(ok, "EstimateAll: " + sized.status().ToString());
    if (!ok) continue;
    log->latency_ms.push_back(ms);
    log->estimates += batch.size();
    if (n % kRecordEvery == 0 && log->recorded.size() < max_recorded) {
      log->recorded.push_back({std::move(batch), std::move(*sized)});
    }
  }
}

struct AppendLog {
  /// AppendRows + NotifyAppend, timed from when the append was due.
  std::vector<double> from_due_ms;
  /// How late the generator sent each append.
  std::vector<double> late_ms;
  size_t next_batch = 0;
  Tally tally;
};

/// Open loop: one kAppendRows-row lineitem append due every kAppendPeriod,
/// whether or not the previous one finished.
void RunAppender(Catalog& catalog, CatalogEstimationService& service,
                 const std::vector<std::vector<Row>>& batches,
                 Clock::time_point start, Clock::time_point deadline,
                 AppendLog* log) {
  for (uint64_t k = 0;; ++k) {
    const Clock::time_point due = start + k * kAppendPeriod;
    if (due >= deadline) break;
    std::this_thread::sleep_until(due);
    const Clock::time_point sent = Clock::now();
    const std::vector<Row>& rows = batches[log->next_batch++ % batches.size()];
    Result<RowRange> range = [&] {
      trace::Span span("bench.append");
      return catalog.AppendRows("lineitem", rows);
    }();
    Status status = range.status();
    if (range.ok()) {
      trace::Span span("bench.notify");
      status = service.NotifyAppend("lineitem", *range);
    }
    const Clock::time_point done = Clock::now();
    log->tally.Record(status.ok(), "append: " + status.ToString());
    if (!status.ok()) continue;
    log->from_due_ms.push_back(Millis(done - due));
    log->late_ms.push_back(Millis(sent - due));
  }
}

struct SessionLog {
  std::vector<double> seconds;
  std::vector<std::string> selections;
  std::vector<double> benefits;
  std::vector<uint64_t> bytes;
  Tally tally;
  /// The last session's service, kept for the layer probe.
  std::unique_ptr<CatalogEstimationService> last;
};

/// Canonical text of a selection: sorted (selection key, scheme) pairs.
std::string SelectionText(const AdvisorRecommendation& rec) {
  std::vector<std::string> items;
  for (const SizedCandidate& s : rec.selected) {
    items.push_back(CandidateSelectionKey(s.config) + "=" +
                    s.config.scheme.ToString());
  }
  std::sort(items.begin(), items.end());
  std::string out;
  for (const std::string& item : items) out += item + ";";
  return out;
}

/// Back-to-back cold advisor sessions, each on a fresh service: at least
/// one, then more while the window lasts (exactly one with --quick).
void RunSessions(const Inputs& in, const Options& options,
                 Clock::time_point deadline, SessionLog* log) {
  do {
    log->last.reset();
    const Clock::time_point start = Clock::now();
    auto service = std::make_unique<CatalogEstimationService>(
        *in.catalog, ServiceOptions(options.seed, kPoolThreads, false));
    Result<AdvisorRecommendation> rec = [&] {
      trace::Span span("bench.session");
      return AdviseConfigurationsLazy(*service, in.pool, in.bound,
                                      SessionTarget());
    }();
    const double seconds = Seconds(Clock::now() - start);
    log->tally.Record(rec.ok(), "advisor session: " + rec.status().ToString());
    if (rec.ok()) {
      log->seconds.push_back(seconds);
      log->selections.push_back(SelectionText(*rec));
      log->benefits.push_back(rec->total_benefit);
      log->bytes.push_back(rec->total_bytes);
    }
    log->last = std::move(service);
  } while (!options.quick && Clock::now() < deadline);
}

/// Everything one or more slices of the workload produced.
struct WindowLog {
  std::vector<double> latency_ms;  // batches, or sessions in ms
  uint64_t estimates = 0;
  std::vector<Recorded> recorded;
  AppendLog appends;
  SessionLog sessions;
  double elapsed_s = 0.0;
  /// latency_ms at the reference host speed, and estimates per second at
  /// that speed, one rate per slice.
  std::vector<double> scaled_ms;
  std::vector<double> slice_rates;
  Tally tally;
};

/// Runs one slice of `seconds` of the workload, adding to `log`.
void RunSlice(const Shape& shape, Inputs& in, const Options& options,
              CatalogEstimationService& live, double seconds, uint64_t slice,
              WindowLog* log) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + FromSeconds(seconds);
  if (shape.clients == 0) {
    const size_t before = log->sessions.seconds.size();
    RunSessions(in, options, deadline, &log->sessions);
    for (size_t i = before; i < log->sessions.seconds.size(); ++i) {
      log->latency_ms.push_back(1000.0 * log->sessions.seconds[i]);
      log->estimates += in.pool.size();
    }
  } else {
    std::vector<ClientLog> clients(static_cast<size_t>(shape.clients));
    const size_t max_recorded =
        kMaxRecorded / static_cast<size_t>(shape.clients);
    std::vector<std::thread> threads;
    if (shape.appender) {
      threads.emplace_back(RunAppender, std::ref(*in.catalog), std::ref(live),
                           std::cref(in.appends), start, deadline,
                           &log->appends);
    }
    for (int c = 1; c < shape.clients; ++c) {
      threads.emplace_back(RunClient, std::ref(live), std::cref(in.pool),
                           StreamSeed(options.seed, 10 + slice, c),
                           max_recorded, deadline, &clients[c]);
    }
    RunClient(live, in.pool, StreamSeed(options.seed, 10 + slice, 0),
              max_recorded, deadline, &clients[0]);
    for (std::thread& t : threads) t.join();
    for (ClientLog& c : clients) {
      log->latency_ms.insert(log->latency_ms.end(), c.latency_ms.begin(),
                             c.latency_ms.end());
      log->estimates += c.estimates;
      for (Recorded& r : c.recorded) log->recorded.push_back(std::move(r));
      log->tally.Merge(c.tally);
    }
  }
  log->elapsed_s += Seconds(Clock::now() - start);
}

/// The untraced window: slices until `seconds` of them have run, with the
/// reference kernel timed between them, each slice's times scaled by the
/// sorts before and after it. Steady and ingest split the window into equal
/// slices of about kSliceSeconds of batches; on advise a slice is one
/// session (a zero-length slice runs exactly one).
void RunWindow(const Shape& shape, Inputs& in, const Options& options,
               CatalogEstimationService& live, ReferenceKernel* reference,
               WindowLog* log) {
  const double slice_s =
      shape.clients == 0
          ? 0.0
          : options.seconds / std::ceil(options.seconds / kSliceSeconds);
  double reference_ms = reference->TimeMs();
  for (uint64_t slice = 0; log->elapsed_s < options.seconds; ++slice) {
    const size_t first = log->latency_ms.size();
    const double elapsed_s = log->elapsed_s;
    const uint64_t estimates = log->estimates;
    RunSlice(shape, in, options, live, slice_s, slice, log);
    const double scale = reference->ScaleSince(&reference_ms);
    log->slice_rates.push_back(
        Ratio(static_cast<double>(log->estimates - estimates),
              scale * (log->elapsed_s - elapsed_s)));
    for (size_t i = first; i < log->latency_ms.size(); ++i) {
      log->scaled_ms.push_back(scale * log->latency_ms[i]);
    }
  }
}

/// The heap the sizing holds once the window is over: the live service
/// sizes the whole pool first, so its current epoch's index cache is full
/// however many key sets the window's last batches happened to build
/// (ingest drops the cache on every append).
double HeldHeapMb(const Inputs& in, CatalogEstimationService& live,
                  Tally* tally) {
  Result<std::vector<SizedCandidate>> sized = live.EstimateAll(in.pool);
  tally->Record(sized.ok(), "post-window sizing: " + sized.status().ToString());
  return HeapInUseMb();
}

// ---------------------------------------------------------------------------
// Serial replay: the correctness gate and, with `stages`, the layer probe.
// ---------------------------------------------------------------------------

/// Where a serial replay's time went, summed over the candidates replayed.
struct StageTimes {
  double pin_ms = 0.0;       // PinEpoch, once per table (draws when cold)
  double index_ms = 0.0;     // SampleIndexAt (builds when cold)
  double compress_ms = 0.0;  // CompressOnSampleAt, on caches EstimateAt warmed
  double estimate_ms = 0.0;  // EstimateAt
  uint64_t compressed_rows = 0;
  std::map<std::string, std::vector<double>> compress_us;  // by scheme
  std::vector<double> estimate_us;
  std::vector<double> build_ms;  // first SampleIndexAt per key set

  /// Stage sum: pin + index + compress + scale, where scale is EstimateAt
  /// minus CompressOnSampleAt.
  double Sum() const { return pin_ms + index_ms + estimate_ms; }
};

/// Replays `batch` serially: PinEpoch once per table, then EstimateAt per
/// candidate (with `stages`, preceded by SampleIndexAt and followed by
/// CompressOnSampleAt), checking each result bit for bit against
/// `expected`. A null `expected` skips the check.
void ReplaySerial(CatalogEstimationService& service,
                  const std::vector<CandidateConfiguration>& batch,
                  const std::vector<SizedCandidate>* expected, bool stages,
                  StageTimes* times, Tally* tally,
                  std::vector<SizedCandidate>* replayed = nullptr) {
  struct Pinned {
    EstimationEngine* engine = nullptr;
    std::shared_ptr<const SampleEpoch> epoch;
  };
  std::map<std::string, Pinned> pins;
  std::set<std::string> built;
  for (size_t i = 0; i < batch.size(); ++i) {
    const CandidateConfiguration& c = batch[i];
    auto it = pins.find(c.table_name);
    if (it == pins.end()) {
      EstimationEngine* engine =
          CheckResult(service.Engine(c.table_name), c.table_name.c_str());
      const Clock::time_point t0 = Clock::now();
      Result<std::shared_ptr<const SampleEpoch>> epoch = [&] {
        trace::Span span("probe.pin");
        return engine->PinEpoch();
      }();
      times->pin_ms += Millis(Clock::now() - t0);
      tally->Record(epoch.ok(), "PinEpoch: " + epoch.status().ToString());
      if (!epoch.ok()) continue;
      it = pins.emplace(c.table_name, Pinned{engine, *epoch}).first;
    }
    const Pinned& pin = it->second;
    if (stages) {
      const Clock::time_point t0 = Clock::now();
      Result<std::shared_ptr<const Index>> index = [&] {
        trace::Span span("probe.index");
        return pin.engine->SampleIndexAt(*pin.epoch, c.index);
      }();
      const double index_ms = Millis(Clock::now() - t0);
      times->index_ms += index_ms;
      if (built.insert(c.table_name + "/" + SampleIndexCacheKey(c.index))
              .second) {
        times->build_ms.push_back(index_ms);
      }
      tally->Record(index.ok(), "SampleIndexAt: " + index.status().ToString());
    }
    Clock::time_point t0 = Clock::now();
    Result<SizedCandidate> sized = [&] {
      trace::Span span("probe.estimate");
      return pin.engine->EstimateAt(*pin.epoch, c);
    }();
    const double estimate_ms = Millis(Clock::now() - t0);
    times->estimate_ms += estimate_ms;
    times->estimate_us.push_back(1000.0 * estimate_ms);
    const bool ok = sized.ok() && (expected == nullptr ||
                                   SameSizing(*sized, (*expected)[i]));
    tally->Record(ok, "replay of " + c.table_name + "." + c.index.name + " " +
                          c.scheme.ToString() + " differs from EstimateAll");
    if (replayed != nullptr && sized.ok()) replayed->push_back(*sized);
    if (!stages) continue;
    // After EstimateAt, so that EstimateAt meets the caches as EstimateAll
    // does: run first, this compression warmed them for EstimateAt and made
    // the stages sum about 5% short of EstimateAll.
    t0 = Clock::now();
    Result<CompressedIndex> compressed = [&] {
      trace::Span span("probe.compress");
      return pin.engine->CompressOnSampleAt(*pin.epoch, c.index, c.scheme);
    }();
    const double compress_ms = Millis(Clock::now() - t0);
    times->compress_ms += compress_ms;
    times->compress_us[CompressionTypeName(c.scheme.default_type)].push_back(
        1000.0 * compress_ms);
    times->compressed_rows += pin.epoch->sample_rows();
    tally->Record(compressed.ok(),
                  "CompressOnSampleAt: " + compressed.status().ToString());
  }
}

/// Candidates of `batch` with duplicates (same table, key set, scheme)
/// removed, so a serial replay does the same work as a coalesced batch.
std::vector<CandidateConfiguration> Distinct(
    const std::vector<CandidateConfiguration>& batch) {
  std::set<std::string> seen;
  std::vector<CandidateConfiguration> out;
  for (const CandidateConfiguration& c : batch) {
    if (seen.insert(c.table_name + "/" + SampleIndexCacheKey(c.index) + "/" +
                    c.scheme.ToString())
            .second) {
      out.push_back(c);
    }
  }
  return out;
}

/// Batches for probes that need some: the recorded ones, topped up with
/// seeded draws (advise records none).
std::vector<std::vector<CandidateConfiguration>> ProbeBatches(
    const Inputs& in, const std::vector<Recorded>& recorded, uint64_t seed,
    size_t count) {
  std::vector<std::vector<CandidateConfiguration>> out;
  for (const Recorded& r : recorded) {
    if (out.size() == count) break;
    out.push_back(Distinct(r.batch));
  }
  Random rng(StreamSeed(seed, 3, 0));
  while (out.size() < count) out.push_back(Distinct(DrawBatch(in.pool, &rng)));
  return out;
}

/// The post-window correctness gate. steady: every recorded batch replays
/// bit for bit at the (unchanged) current epoch. ingest: with the appender
/// stopped, recorded batches run through EstimateAll again and replay.
/// advise: every session returned the same selection and benefit within
/// the bound.
void RunGates(const Workload workload, const Inputs& in,
              CatalogEstimationService& live, const WindowLog& window,
              Tally* tally) {
  if (workload == Workload::kAdvise) {
    const SessionLog& s = window.sessions;
    for (size_t i = 0; i < s.seconds.size(); ++i) {
      tally->Record(s.selections[i] == s.selections[0] &&
                        s.benefits[i] == s.benefits[0],
                    "advisor session " + std::to_string(i) +
                        " selection differs from session 0");
      tally->Record(s.bytes[i] <= in.bound,
                    "advisor session exceeds the storage bound");
    }
    return;
  }
  StageTimes ignored;
  size_t replays = 0;
  for (const Recorded& r : window.recorded) {
    if (workload == Workload::kSteady) {
      ReplaySerial(live, r.batch, &r.sized, false, &ignored, tally);
      continue;
    }
    if (replays++ == kIngestReplays) break;
    Result<std::vector<SizedCandidate>> again = live.EstimateAll(r.batch);
    tally->Record(again.ok() && again->size() == r.batch.size(),
                  "quiesced EstimateAll: " + again.status().ToString());
    if (again.ok()) {
      ReplaySerial(live, r.batch, &*again, false, &ignored, tally);
    }
  }
}

// ---------------------------------------------------------------------------
// Layer probe (traced runs): the same isolated measurements after every
// workload's window, so each per-layer metric exists on every workload.
// ---------------------------------------------------------------------------

const CompressionType kPoolSchemes[] = {
    CompressionType::kNullSuppression, CompressionType::kDictionaryPage,
    CompressionType::kDictionaryGlobal, CompressionType::kRle,
    CompressionType::kPrefix,          CompressionType::kDelta,
    CompressionType::kFrameOfReference, CompressionType::kPrefixDictionary};

/// Stage sum over EstimateAll for the same batch, on a 1-thread service:
/// warm (the probe service, caches full) and cold (fresh services with the
/// same seed, so both sides draw and build the same samples and indexes).
/// Each batch is timed kCoverageReps times per side, back to back,
/// alternating which side runs first, and the coverage is the median of
/// these paired ratios: host slowdowns are as large as the 10% being
/// checked, and only timings taken next to each other share one.
void ProbeCoverage(const Inputs& in, const Options& options,
                   CatalogEstimationService& warm,
                   const std::vector<Recorded>& recorded, Report* report,
                   Tally* tally) {
  auto time_all = [&](CatalogEstimationService& service,
                      const std::vector<CandidateConfiguration>& batch,
                      double* ms) {
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<SizedCandidate>> all = [&] {
      trace::Span span("probe.estimate_all");
      return service.EstimateAll(batch);
    }();
    *ms = Millis(Clock::now() - t0);
    tally->Record(all.ok(), "probe EstimateAll: " + all.status().ToString());
    return all.ok() ? std::move(*all) : std::vector<SizedCandidate>{};
  };
  auto time_stages = [&](CatalogEstimationService& service,
                         const std::vector<CandidateConfiguration>& batch,
                         double* ms) {
    StageTimes stages;
    std::vector<SizedCandidate> replayed;
    ReplaySerial(service, batch, nullptr, true, &stages, tally, &replayed);
    *ms = stages.Sum();
    return replayed;
  };
  auto fresh = [&] {
    return std::make_unique<CatalogEstimationService>(
        *in.catalog, ServiceOptions(options.seed, 1, false));
  };
  std::vector<double> warm_ratios;
  std::vector<double> cold_ratios;
  const auto batches =
      ProbeBatches(in, recorded, options.seed, kCoverageBatches);
  for (size_t k = 0; k < batches.size(); ++k) {
    for (int rep = 0; rep < kCoverageReps; ++rep) {
      const bool all_first = (k + rep) % 2 == 0;
      double all_ms = 0.0;
      double stage_ms = 0.0;
      std::vector<SizedCandidate> all;
      std::vector<SizedCandidate> replayed;
      if (all_first) all = time_all(warm, batches[k], &all_ms);
      replayed = time_stages(warm, batches[k], &stage_ms);
      if (!all_first) all = time_all(warm, batches[k], &all_ms);
      tally->Record(SameSizings(all, replayed),
                    "warm replay differs from EstimateAll");
      warm_ratios.push_back(Ratio(stage_ms, all_ms));
      if (k >= kColdCoverageBatches) continue;
      if (all_first) all = time_all(*fresh(), batches[k], &all_ms);
      replayed = time_stages(*fresh(), batches[k], &stage_ms);
      if (!all_first) all = time_all(*fresh(), batches[k], &all_ms);
      tally->Record(SameSizings(all, replayed),
                    "cold replay differs from EstimateAll");
      cold_ratios.push_back(Ratio(stage_ms, all_ms));
    }
  }
  const double coverage = Median(warm_ratios);
  const double cold_coverage = Median(cold_ratios);
  tally->Record(std::abs(coverage - 1.0) <= kCoverageTolerance,
                "warm stage coverage " + std::to_string(coverage));
  tally->Record(std::abs(cold_coverage - 1.0) <= kCoverageTolerance,
                "cold stage coverage " + std::to_string(cold_coverage));
  report->Add("trace.stage_coverage", coverage, "ratio");
  report->Add("trace.stage_coverage_cold", cold_coverage, "ratio");
}

/// Serial replay time over EstimateAll wall time on the live service (its
/// pool threads), for the same warm, duplicate-free batches.
void ProbeFanout(const Inputs& in, const Options& options,
                 CatalogEstimationService& live,
                 const std::vector<Recorded>& recorded, Report* report,
                 Tally* tally) {
  double parallel_ms = 0.0;
  double serial_ms = 0.0;
  for (const auto& batch :
       ProbeBatches(in, recorded, options.seed, kFanoutBatches)) {
    Result<std::vector<SizedCandidate>> warmup = live.EstimateAll(batch);
    tally->Record(warmup.ok(),
                  "fan-out warm-up: " + warmup.status().ToString());
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<SizedCandidate>> all = [&] {
      trace::Span span("probe.estimate_all");
      return live.EstimateAll(batch);
    }();
    parallel_ms += Millis(Clock::now() - t0);
    tally->Record(all.ok(), "fan-out EstimateAll: " + all.status().ToString());
    if (!all.ok()) continue;
    StageTimes stages;
    ReplaySerial(live, batch, &*all, false, &stages, tally);
    serial_ms += stages.pin_ms + stages.estimate_ms;
  }
  report->Add("service.fanout_speedup", Ratio(serial_ms, parallel_ms), "ratio");
}

/// Page-metric estimates at the base fraction against ComputeTrueCF on a
/// fixed audit set: kAuditPerTable non-clustered candidates, evenly spaced
/// through each of the four large tables' pool entries. With `as_generated`
/// (no rows appended yet) the errors depend on the seed alone and are also
/// reported as checks.
void ProbeAudit(const Inputs& in, const std::vector<SizedCandidate>& sizes,
                bool as_generated, Report* report, Tally* tally) {
  std::vector<double> errors;
  for (const char* table_name : {"lineitem", "orders", "part", "customer"}) {
    std::vector<size_t> members;
    for (size_t i = 0; i < in.pool.size(); ++i) {
      if (in.pool[i].table_name == table_name && !in.pool[i].index.clustered) {
        members.push_back(i);
      }
    }
    const Table* table =
        CheckResult(in.catalog->GetTable(table_name), table_name);
    const size_t stride = std::max<size_t>(1, members.size() / kAuditPerTable);
    for (size_t k = 0; k < kAuditPerTable && k * stride < members.size();
         ++k) {
      const CandidateConfiguration& c = in.pool[members[k * stride]];
      Result<CompressionFraction> truth = [&] {
        trace::Span span("probe.audit");
        return ComputeTrueCF(*table, c.index, c.scheme, SizeMetric::kPageBytes);
      }();
      tally->Record(truth.ok() && truth->value > 0.0,
                    "ComputeTrueCF: " + truth.status().ToString());
      if (!truth.ok() || truth->value <= 0.0) continue;
      const double estimate = sizes[members[k * stride]].estimated_cf;
      errors.push_back(std::max(estimate / truth->value,
                                truth->value / estimate));
    }
  }
  const double mean =
      Sum(errors) / static_cast<double>(std::max<size_t>(1, errors.size()));
  const double max =
      errors.empty() ? 0.0 : *std::max_element(errors.begin(), errors.end());
  report->Add("audit.ratio_error_mean", mean, "ratio");
  report->Add("audit.ratio_error_max", max, "ratio");
  if (as_generated) {
    report->Check("audit.ratio_error_mean", Digits(mean));
    report->Check("audit.ratio_error_max", Digits(max));
  }
}

/// kProbeAppends lineitem appends into a fresh 1-thread reservoir service:
/// AppendRows and NotifyAppend timed separately. Runs last: it grows
/// lineitem.
void ProbeAppends(Inputs& in, const Options& options, Report* report,
                  Tally* tally) {
  CatalogEstimationService service(*in.catalog,
                                   ServiceOptions(options.seed, 1, true));
  EstimationEngine* engine =
      CheckResult(service.Engine("lineitem"), "lineitem");
  tally->Record(engine->PinEpoch().ok(), "reservoir draw");
  std::vector<double> append_ms;
  std::vector<double> notify_ms;
  for (int k = 0; k < kProbeAppends; ++k) {
    const Clock::time_point t0 = Clock::now();
    Result<RowRange> range = [&] {
      trace::Span span("probe.append");
      return in.catalog->AppendRows("lineitem",
                                    in.appends[k % in.appends.size()]);
    }();
    const Clock::time_point t1 = Clock::now();
    Status status = range.status();
    if (range.ok()) {
      trace::Span span("probe.notify");
      status = service.NotifyAppend("lineitem", *range);
    }
    const Clock::time_point t2 = Clock::now();
    tally->Record(status.ok(), "probe append: " + status.ToString());
    append_ms.push_back(Millis(t1 - t0));
    notify_ms.push_back(Millis(t2 - t1));
  }
  report->Add("storage.append_ms_p50", Median(append_ms), "ms");
  report->Add("sampling.notify_ms_p50", Median(notify_ms), "ms");
}

void RunLayerProbe(Inputs& in, const Options& options,
                   CatalogEstimationService& live,
                   const std::vector<Recorded>& recorded, Report* report,
                   Tally* tally) {
  // Cold pass over the whole pool on a fresh 1-thread service: the first
  // pin per table draws, the first SampleIndexAt per key set builds.
  CatalogEstimationService probe(*in.catalog,
                                 ServiceOptions(options.seed, 1, false));
  StageTimes cold;
  std::vector<SizedCandidate> sizes;
  ReplaySerial(probe, in.pool, nullptr, true, &cold, tally, &sizes);
  if (sizes.size() != in.pool.size()) Fatal("layer probe: pool sizing failed");
  Result<std::vector<SizedCandidate>> all = probe.EstimateAll(in.pool);
  tally->Record(all.ok() && SameSizings(*all, sizes),
                "service EstimateAll differs from per-table engines");
  report->Add("sampling.draw_ms", cold.pin_ms, "ms");
  report->Add("index.build_ms_p50", Median(cold.build_ms), "ms");
  for (CompressionType type : kPoolSchemes) {
    const std::string scheme = CompressionTypeName(type);
    report->Add("compression." + scheme + ".compress_us_p50",
                Median(cold.compress_us[scheme]), "us");
  }
  report->Add("compression.rows_per_s",
              Ratio(static_cast<double>(cold.compressed_rows),
                    cold.compress_ms / 1000.0),
              "1/s");
  report->Add("engine.estimate_us_p50", Median(cold.estimate_us), "us");

  ProbeCoverage(in, options, probe, recorded, report, tally);

  // Coarse intervals at the base fraction, as the lazy advisor's first pass.
  const double sigmas = CheckResult(NumSigmasForConfidence(0.95), "sigmas");
  double coarse_ms = 0.0;
  for (const char* table_name : kTables) {
    std::vector<CandidateConfiguration> members;
    for (const CandidateConfiguration& c : in.pool) {
      if (c.table_name == table_name) members.push_back(c);
    }
    EstimationEngine* engine =
        CheckResult(probe.Engine(table_name), table_name);
    const Clock::time_point t0 = Clock::now();
    Result<std::vector<CandidateIntervalResult>> intervals = [&] {
      trace::Span span("probe.intervals");
      return EstimateCandidateIntervals(*engine, members, sigmas);
    }();
    coarse_ms += Millis(Clock::now() - t0);
    tally->Record(intervals.ok() && intervals->size() == members.size(),
                  "intervals: " + intervals.status().ToString());
  }
  report->Add("adaptive.coarse_ms", coarse_ms, "ms");

  // Growth to twice the base sample; cached lineitem indexes extend.
  EstimationEngine* lineitem =
      CheckResult(probe.Engine("lineitem"), "lineitem");
  const uint64_t rows = lineitem->CurrentEpoch()->sample_rows();
  Clock::time_point t0 = Clock::now();
  Result<std::shared_ptr<const SampleEpoch>> grown = [&] {
    trace::Span span("probe.grow");
    return lineitem->GrowSampleToEpoch(2 * rows);
  }();
  report->Add("sampling.grow_ms", Millis(Clock::now() - t0), "ms");
  tally->Record(grown.ok() && (*grown)->sample_rows() > rows,
                "GrowSampleToEpoch: " + grown.status().ToString());

  // Exact search over the base-fraction sizes at the session bound.
  const metrics::MetricsSnapshot before = Snapshot();
  t0 = Clock::now();
  AdvisorRecommendation rec = [&] {
    trace::Span span("probe.search");
    return SearchSizedCandidates(sizes, OrderCandidatesForSelection(sizes),
                                 in.bound);
  }();
  report->Add("search.ms", Millis(Clock::now() - t0), "ms");
  Deltas search;
  search.Add(before, Snapshot());
  report->Add("search.nodes_visited",
              static_cast<double>(search.Counter("cfest.lazy.nodes_visited")),
              "count");
  report->Add("search.nodes_pruned",
              static_cast<double>(search.Counter("cfest.lazy.nodes_pruned")),
              "count");
  tally->Record(rec.total_bytes <= in.bound, "search exceeds the bound");

  ProbeFanout(in, options, live, recorded, report, tally);
  ProbeAudit(in, sizes, options.workload != Workload::kIngest, report, tally);
  ProbeAppends(in, options, report, tally);
}

// ---------------------------------------------------------------------------
// Per-layer metrics of the traced slices, from registry deltas. Counts are
// per request (a batch, or a session on advise) so they do not scale with
// how many requests fit in the window.
// ---------------------------------------------------------------------------

void AddLiveMetrics(const Deltas& d, const WindowLog& traced,
                    const WindowLog& untraced, Report* report) {
  const double requests =
      std::max<double>(1.0, static_cast<double>(traced.latency_ms.size()));
  auto per_request = [&](const char* name) {
    return static_cast<double>(d.Counter(name)) / requests;
  };
  auto count = [&](const char* name) {
    return static_cast<double>(d.Counter(name));
  };
  report->Add("sampling.refreshes",
              per_request("cfest.engine.epochs_published"), "count");
  report->Add("sampling.rows_sized",
              per_request("cfest.lazy.total_rows_sized"), "count");
  report->Add("index.builds_per_request",
              per_request("cfest.engine.index_builds"), "count");
  report->Add("index.hit_ratio",
              Ratio(count("cfest.engine.index_cache_hits"),
                    count("cfest.engine.index_cache_hits") +
                        count("cfest.engine.index_builds")),
              "ratio");
  report->Add("index.extensions", per_request("cfest.engine.index_extensions"),
              "count");
  const double vector_calls = count("cfest.kernels.dispatch_sse42") +
                              count("cfest.kernels.dispatch_avx2");
  report->Add("compression.simd_share",
              Ratio(vector_calls,
                    vector_calls + count("cfest.kernels.dispatch_scalar")),
              "ratio");
  report->Add("engine.locked_pins", per_request("cfest.engine.locked_pins"),
              "count");
  report->Add("service.merged_share",
              Ratio(count("cfest.coalescer.merged"),
                    count("cfest.coalescer.requests")),
              "ratio");
  report->Add("service.wait_share",
              Ratio(static_cast<double>(
                        d.Histogram("cfest.coalescer.wait_ns").sum) /
                        1e6,
                    Sum(traced.latency_ms)),
              "ratio");
  report->Add("threadpool.task_us_p50",
              d.Histogram("cfest.threadpool.task_ns").Quantile(0.5) / 1000.0,
              "us");
  report->Add("adaptive.growth_steps",
              per_request("cfest.adaptive.growth_steps"), "count");
  report->Add("search.refined", per_request("cfest.lazy.refined"), "count");
  report->Add("search.refine_rounds", per_request("cfest.lazy.refine_rounds"),
              "count");
  report->Add("trace.overhead_ratio",
              Ratio(Median(traced.latency_ms), Median(untraced.latency_ms)),
              "ratio");
}

/// Self time per span name (span minus the part its direct children on the
/// same thread cover), in ms, over every retained record.
std::map<std::string, double> SelfTimes(
    const std::vector<trace::SpanRecord>& records) {
  std::map<uint32_t, std::vector<const trace::SpanRecord*>> by_thread;
  for (const trace::SpanRecord& r : records) {
    by_thread[r.thread_id].push_back(&r);
  }
  std::map<std::string, double> self_ms;
  for (auto& [thread, spans] : by_thread) {
    (void)thread;
    std::sort(spans.begin(), spans.end(), [](const auto* a, const auto* b) {
      return a->start_ns != b->start_ns ? a->start_ns < b->start_ns
                                        : a->depth < b->depth;
    });
    std::vector<const trace::SpanRecord*> open;
    for (const trace::SpanRecord* r : spans) {
      while (!open.empty() &&
             open.back()->start_ns + open.back()->duration_ns <= r->start_ns) {
        open.pop_back();
      }
      self_ms[r->name] += static_cast<double>(r->duration_ns) / 1e6;
      if (!open.empty()) {
        self_ms[open.back()->name] -= static_cast<double>(r->duration_ns) / 1e6;
      }
      open.push_back(r);
    }
  }
  return self_ms;
}

// ---------------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------------

/// The end-to-end metrics, times at the reference host speed; the times as
/// measured are extras named raw_<metric>. The throughput is the median of
/// the slices' rates, so a stretch of slow host does not drag it.
void AddEndToEnd(const Shape& shape, const Inputs& in,
                 const SetupResult& setup, const WindowLog& window,
                 const ReferenceKernel& reference, double heap_mb,
                 double rss_mb, Report* report) {
  // A tail percentile needs at least ten requests beyond it. An advise
  // window holds about a dozen sessions, which repeat the same
  // deterministic work, so no tail percentile is supported there and their
  // spread is host noise: advise reports its median session as p95 too.
  const bool sessions = shape.clients == 0;
  const double tail = sessions ? 0.5 : 0.95;
  const double estimates = static_cast<double>(window.estimates);
  report->Add("setup_s", Median(setup.scaled_s), "s");
  report->Add("candidates_per_s", Median(window.slice_rates), "1/s");
  report->Add("latency_p50_ms", Quantile(window.scaled_ms, 0.5), "ms");
  report->Add("latency_p95_ms", Quantile(window.scaled_ms, tail), "ms");
  report->Add("mem_live_mb", heap_mb, "MB");

  report->Extra("rss_peak_mb", rss_mb, "MB");
  report->Extra("raw_setup_s", Median(setup.pass_s), "s");
  report->Extra("raw_candidates_per_s", Ratio(estimates, window.elapsed_s),
                "1/s");
  report->Extra("raw_latency_p50_ms", Quantile(window.latency_ms, 0.5), "ms");
  report->Extra("raw_latency_p95_ms", Quantile(window.latency_ms, tail), "ms");
  report->Extra("reference_ms", Median(reference.ms()), "ms");
  report->Extra("latency_samples",
                static_cast<double>(window.latency_ms.size()), "count");
  report->Extra("setup_min_s",
                *std::min_element(setup.scaled_s.begin(), setup.scaled_s.end()),
                "s");
  report->Extra("setup_max_s",
                *std::max_element(setup.scaled_s.begin(), setup.scaled_s.end()),
                "s");
  if (shape.appender) {
    const AppendLog& a = window.appends;
    report->Extra("appends", static_cast<double>(a.from_due_ms.size()),
                  "count");
    report->Extra("append_p95_ms", Quantile(a.from_due_ms, 0.95), "ms");
    report->Extra("append_p50_ms", Quantile(a.from_due_ms, 0.5), "ms");
    report->Extra("append_late_p95_ms", Quantile(a.late_ms, 0.95), "ms");
  }
  if (sessions && !window.sessions.seconds.empty()) {
    const SessionLog& s = window.sessions;
    const std::vector<double>& ms = window.scaled_ms;
    report->Extra("session_min_s",
                  *std::min_element(ms.begin(), ms.end()) / 1000.0, "s");
    report->Extra("session_max_s",
                  *std::max_element(ms.begin(), ms.end()) / 1000.0, "s");
    report->Extra("selected_bytes", static_cast<double>(s.bytes[0]), "B");
    report->Extra("bound_bytes", static_cast<double>(in.bound), "B");
  }
}

/// FNV-1a 64 of `text`, in hex.
std::string Digest(const std::string& text) {
  uint64_t hash = 0xCBF29CE484222325ull;
  for (char c : text) {
    hash = (hash ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  char buffer[20];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(hash));
  return buffer;
}

/// The advisor's answer, for the exact comparison with recorded outputs.
void AddSessionChecks(const SessionLog& sessions, Report* report) {
  if (sessions.selections.empty()) return;
  report->Check("benefit", Digits(sessions.benefits[0]));
  report->Check("selection", Digest(sessions.selections[0]));
}

/// The run's result as plain lines, one value per line, for run.py:
///   metric <name> <value> <unit>   BENCHMARK.json's metrics for the mode
///   extra <name> <value> <unit>    informational values
///   check <name> <text>            deterministic outputs, compared exactly
///   self_ms <name> <value>         self time per span name (traced runs)
///   meta <key> <value>             how the run was made
///   tally <attempted> <failed>     always the last line
void PrintResult(const Report& report,
                 const std::map<std::string, double>& self_ms,
                 const std::vector<std::pair<std::string, std::string>>& meta,
                 const Tally& tally) {
  for (const Metric& m : report.metrics) {
    std::printf("metric %s %s %s\n", m.name.c_str(), Digits(m.value).c_str(),
                m.unit.c_str());
  }
  for (const Metric& m : report.extras) {
    std::printf("extra %s %s %s\n", m.name.c_str(), Digits(m.value).c_str(),
                m.unit.c_str());
  }
  for (const auto& [name, text] : report.checks) {
    std::printf("check %s %s\n", name.c_str(), text.c_str());
  }
  for (const auto& [name, ms] : self_ms) {
    std::printf("self_ms %s %s\n", name.c_str(), Digits(ms).c_str());
  }
  for (const auto& [key, value] : meta) {
    std::printf("meta %s %s\n", key.c_str(), value.c_str());
  }
  std::printf("tally %llu %llu\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  std::fflush(stdout);
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  if (!out) Fatal("cannot write " + path);
}

int Run(const Options& options) {
  const Shape& shape = kShapes[static_cast<int>(options.workload)];
  const int nproc = CpuCount();
  if (BusyThreads(shape) > nproc) {
    Fatal(std::string("refusing to run: workload ") + shape.name + " keeps " +
          std::to_string(BusyThreads(shape)) + " threads busy but nproc is " +
          std::to_string(nproc));
  }
  if (std::strcmp(CFEST_BENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "cfest_bench: warning: %s build; timings are not comparable "
                 "to a Release build\n",
                 CFEST_BENCH_BUILD_TYPE);
  }
  if (options.trace) trace::SetRingCapacity(kTraceRingRecords);

  Inputs in = MakeInputs(options);
  ReferenceKernel reference;  // in the memory baselines
  ResetPeakRss();
  const double baseline_mb = StatusMb("VmRSS");
  const double baseline_heap_mb = HeapInUseMb();
  Tally tally;
  SetupResult setup = RunSetup(in, options, shape, &reference, &tally);
  const bool metrics_compiled = !Snapshot().counters.empty();

  Report report;
  std::map<std::string, double> self_ms;
  if (!options.trace) {
    WindowLog window;
    RunWindow(shape, in, options, *setup.warm, &reference, &window);
    const double rss_mb = StatusMb("VmHWM") - baseline_mb;
    const double heap_mb =
        HeldHeapMb(in, *setup.warm, &tally) - baseline_heap_mb;
    RunGates(options.workload, in, *setup.warm, window, &tally);
    tally.Merge(window.tally);
    tally.Merge(window.appends.tally);
    tally.Merge(window.sessions.tally);
    AddEndToEnd(shape, in, setup, window, reference, heap_mb, rss_mb, &report);
    AddSessionChecks(window.sessions, &report);
  } else {
    if (!metrics_compiled) {
      Fatal("--trace 1 needs the metric registry (build with CFEST_METRICS)");
    }
    const metrics::MetricsSnapshot run_start = Snapshot();
    WindowLog untraced;
    WindowLog traced;
    Deltas live;
    const double slice_s = options.seconds / (2.0 * kTraceSlices);
    for (int slice = 0; slice < kTraceSlices; ++slice) {
      const bool on = slice % 2 == 1;
      const metrics::MetricsSnapshot before = Snapshot();
      trace::SetEnabled(on);
      metrics::SetTimingEnabled(on);
      RunSlice(shape, in, options, *setup.warm, slice_s,
               static_cast<uint64_t>(slice), on ? &traced : &untraced);
      metrics::SetTimingEnabled(false);
      trace::SetEnabled(false);
      if (on) live.Add(before, Snapshot());
    }
    trace::SetEnabled(true);
    RunGates(options.workload, in, *setup.warm, untraced, &tally);
    RunGates(options.workload, in, *setup.warm, traced, &tally);
    if (options.workload == Workload::kAdvise) {
      tally.Record(!traced.sessions.selections.empty() &&
                       traced.sessions.selections[0] ==
                           untraced.sessions.selections[0],
                   "traced and untraced sessions select differently");
    }
    for (WindowLog* log : {&untraced, &traced}) {
      tally.Merge(log->tally);
      tally.Merge(log->appends.tally);
      tally.Merge(log->sessions.tally);
    }
    std::vector<Recorded> recorded = std::move(untraced.recorded);
    for (Recorded& r : traced.recorded) recorded.push_back(std::move(r));
    CatalogEstimationService& live_service =
        options.workload == Workload::kAdvise ? *traced.sessions.last
                                              : *setup.warm;
    RunLayerProbe(in, options, live_service, recorded, &report, &tally);
    trace::SetEnabled(false);
    AddLiveMetrics(live, traced, untraced, &report);
    const uint64_t dropped =
        Snapshot().CounterValue("cfest.trace.dropped_spans") -
        run_start.CounterValue("cfest.trace.dropped_spans");
    tally.Record(dropped == 0, "trace ring dropped " +
                                   std::to_string(dropped) + " spans");
    report.Add("trace.dropped_spans", static_cast<double>(dropped), "count");
    AddSessionChecks(traced.sessions, &report);
    self_ms = SelfTimes(trace::CollectRecords());
    if (!options.trace_out.empty()) {
      WriteFile(options.trace_out, trace::ExportChromeTraceJson());
    }
  }

  const char* simd_env = std::getenv("CFEST_SIMD");
#ifdef NDEBUG
  const bool assertions = false;
#else
  const bool assertions = true;
#endif
  auto flag = [](bool b) { return std::string(b ? "true" : "false"); };
  const std::vector<std::pair<std::string, std::string>> meta = {
      {"seconds", Digits(options.seconds)},
      {"quick", flag(options.quick)},
      {"scale_factor",
       Digits(options.quick ? kQuickScaleFactor : kScaleFactor)},
      {"pool_candidates", std::to_string(in.pool.size())},
      {"nproc", std::to_string(nproc)},
      {"busy_threads", std::to_string(BusyThreads(shape))},
      {"simd_level", SimdLevelName(ActiveSimdLevel())},
      {"cfest_simd", simd_env != nullptr ? simd_env : "null"},
      {"metrics_compiled", flag(metrics_compiled)},
      {"build_type", CFEST_BENCH_BUILD_TYPE},
      {"assertions", flag(assertions)},
  };
  PrintResult(report, self_ms, meta, tally);
  return tally.failed == 0 ? 0 : 1;
}

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: cfest_bench --workload steady|ingest|advise "
               "[--seed N] [--seconds S] [--trace 0|1] [--quick] "
               "[--trace-out FILE]\n");
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage();
      return argv[++i];
    };
    char* end = nullptr;
    if (arg == "--workload") {
      const std::string name = value();
      bool found = false;
      for (size_t w = 0; w < std::size(kShapes); ++w) {
        if (name == kShapes[w].name) {
          options.workload = static_cast<Workload>(w);
          found = true;
        }
      }
      if (!found) Usage();
      have_workload = true;
    } else if (arg == "--seed") {
      const std::string v = value();
      options.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') Usage();
    } else if (arg == "--seconds") {
      const std::string v = value();
      options.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(options.seconds > 0.0) ||
          options.seconds > 3600.0) {
        Usage();
      }
    } else if (arg == "--trace") {
      const std::string v = value();
      if (v != "0" && v != "1") Usage();
      options.trace = v == "1";
    } else if (arg == "--quick") {
      options.quick = true;
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else {
      Usage();
    }
  }
  if (!have_workload) Usage();
  return options;
}

}  // namespace
}  // namespace e2e
}  // namespace cfest

int main(int argc, char** argv) {
  return cfest::e2e::Run(cfest::e2e::ParseArgs(argc, argv));
}
