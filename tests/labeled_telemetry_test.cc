// Tests for the labeled-telemetry layer: metric families keyed by label
// sets (canonicalization, unlabeled-child equivalence, aggregate = sum of
// children), Prometheus text-exposition edge cases (escaping of quotes,
// backslashes, and newlines in label values; labeled _p50/_p99 and _bucket
// series), and the PR's end-to-end acceptance scenario — a two-table
// coalesced EstimateAll whose per-table children sum to the family
// aggregates and whose exported Chrome trace flow-links every merged wait
// span to its owner's compute span.

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "common/trace.h"
#include "datagen/table_gen.h"
#include "estimator/service.h"
#include "storage/catalog.h"

namespace cfest {
namespace {

using metrics::LabelSet;
using metrics::MetricRegistry;
using metrics::MetricsSnapshot;

#ifndef CFEST_METRICS_DISABLED

TEST(LabeledMetricsTest, EmptyLabelSetIsTheUnlabeledChild) {
  metrics::Counter* plain =
      MetricRegistry::Global().GetCounter("cfest.test.empty_labels");
  metrics::Counter* empty =
      MetricRegistry::Global().GetCounter("cfest.test.empty_labels", {});
  EXPECT_EQ(plain, empty);
  plain->Add(2);
  const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("cfest.test.empty_labels"), 2u);
  // No labeled children -> the family does not appear in labeled_counters.
  EXPECT_EQ(snapshot.labeled_counters.count("cfest.test.empty_labels"), 0u);
}

TEST(LabeledMetricsTest, LabelOrderIsCanonicalized) {
  metrics::Counter* ab = MetricRegistry::Global().GetCounter(
      "cfest.test.canonical", {{"a", "1"}, {"b", "2"}});
  metrics::Counter* ba = MetricRegistry::Global().GetCounter(
      "cfest.test.canonical", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
  ab->Add(3);
  const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  // The lookup helper accepts either order too.
  EXPECT_EQ(snapshot.LabeledCounterValue("cfest.test.canonical",
                                         {{"b", "2"}, {"a", "1"}}),
            3u);
  EXPECT_EQ(snapshot.LabeledCounterValue("cfest.test.canonical",
                                         {{"a", "1"}, {"b", "2"}}),
            3u);
}

TEST(LabeledMetricsTest, AggregateSumsLabeledAndUnlabeledChildren) {
  metrics::Counter* unlabeled =
      MetricRegistry::Global().GetCounter("cfest.test.agg");
  metrics::Counter* t1 =
      MetricRegistry::Global().GetCounter("cfest.test.agg", {{"table", "t1"}});
  metrics::Counter* t2 =
      MetricRegistry::Global().GetCounter("cfest.test.agg", {{"table", "t2"}});
  unlabeled->Add(1);
  t1->Add(10);
  t2->Add(100);
  const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.CounterValue("cfest.test.agg"), 111u);
  const auto& children = snapshot.labeled_counters.at("cfest.test.agg");
  ASSERT_EQ(children.size(), 2u);
  uint64_t child_sum = 0;
  for (const auto& child : children) child_sum += child.value;
  EXPECT_EQ(child_sum, 110u);  // the unlabeled child is not re-listed
}

TEST(LabeledMetricsTest, RetiredLabeledInstancesStayInTheChild) {
  {
    metrics::Counter instance;
    auto registration = MetricRegistry::Global().RegisterCounters(
        {{"table", "retire_t"}}, {{"cfest.test.retire", &instance}});
    instance.Add(7);
  }  // registration dies; the child keeps the total
  const MetricsSnapshot snapshot = MetricRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.LabeledCounterValue("cfest.test.retire",
                                         {{"table", "retire_t"}}),
            7u);
  EXPECT_EQ(snapshot.CounterValue("cfest.test.retire"), 7u);
}

TEST(PrometheusTextTest, EscapesQuotesBackslashesAndNewlines) {
  MetricRegistry::Global()
      .GetCounter("cfest.test.escape",
                  {{"table", "we\"ird\\path\nx"}})
      ->Add(4);
  const std::string text =
      MetricRegistry::Global().Snapshot().ToPrometheusText();
  // Exposition-format escapes in label values: \" for quote, \\ for
  // backslash, \n (two characters) for newline.
  EXPECT_NE(
      text.find("cfest_test_escape{table=\"we\\\"ird\\\\path\\nx\"} 4"),
      std::string::npos)
      << text;
  // The raw newline must not leak into the exposition (one sample = one
  // line).
  EXPECT_EQ(text.find("we\"ird"), std::string::npos);
}

TEST(PrometheusTextTest, HelpAndTypePrecedeEveryFamily) {
  MetricRegistry::Global().GetCounter("cfest.test.helped")->Add(1);
  const std::string text =
      MetricRegistry::Global().Snapshot().ToPrometheusText();
  const size_t help = text.find("# HELP cfest_test_helped ");
  const size_t type = text.find("# TYPE cfest_test_helped counter");
  const size_t sample = text.find("\ncfest_test_helped 1");
  ASSERT_NE(help, std::string::npos);
  ASSERT_NE(type, std::string::npos);
  ASSERT_NE(sample, std::string::npos);
  EXPECT_LT(help, type);
  EXPECT_LT(type, sample);
}

TEST(PrometheusTextTest, LabeledHistogramChildrenGetQuantileSeries) {
  metrics::Histogram* hist = MetricRegistry::Global().GetHistogram(
      "cfest.test.lat_ns", {{"table", "t_hist"}});
  for (uint64_t v : {100u, 200u, 400u, 800u, 1600u}) hist->Record(v);
  const std::string text =
      MetricRegistry::Global().Snapshot().ToPrometheusText();
  // The aggregate histogram exports label-less series; the labeled child
  // gets its own _bucket/_sum/_count plus _p50/_p99 gauges with the label
  // set (labels before the le bucket bound).
  EXPECT_NE(text.find("cfest_test_lat_ns_count{table=\"t_hist\"} 5"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("cfest_test_lat_ns_sum{table=\"t_hist\"} 3100"),
            std::string::npos);
  EXPECT_NE(text.find("cfest_test_lat_ns_bucket{table=\"t_hist\",le="),
            std::string::npos);
  EXPECT_NE(text.find("cfest_test_lat_ns_bucket{table=\"t_hist\",le=\"+Inf\"} 5"),
            std::string::npos);
  EXPECT_NE(text.find("cfest_test_lat_ns_p50{table=\"t_hist\"}"),
            std::string::npos);
  EXPECT_NE(text.find("cfest_test_lat_ns_p99{table=\"t_hist\"}"),
            std::string::npos);
  // Aggregate quantile series stay label-less.
  EXPECT_NE(text.find("\ncfest_test_lat_ns_p50 "), std::string::npos);
  EXPECT_NE(text.find("\ncfest_test_lat_ns_p99 "), std::string::npos);
}

TEST(JsonSnapshotTest, LabeledFamiliesExportLabelsAndValues) {
  MetricRegistry::Global()
      .GetCounter("cfest.test.json_labels", {{"table", "jt"}})
      ->Add(9);
  MetricRegistry::Global()
      .GetHistogram("cfest.test.json_lat_ns", {{"table", "jt"}})
      ->Record(1000);
  const std::string json = MetricRegistry::Global().Snapshot().ToJson();
  EXPECT_NE(json.find("\"labeled_counters\""), std::string::npos);
  EXPECT_NE(json.find("\"labeled_gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"labeled_histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"cfest.test.json_labels\""), std::string::npos);
  EXPECT_NE(json.find("\"jt\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end acceptance: a two-table coalesced EstimateAll run.

std::unique_ptr<Catalog> TwoTableCatalog() {
  auto catalog = std::make_unique<Catalog>();
  auto orders = GenerateTable(
      {ColumnSpec::String("status", 12, 6, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(4, 10)),
       ColumnSpec::Integer("amount", 400)},
      8000, 7);
  auto lineitem = GenerateTable(
      {ColumnSpec::String("shipmode", 8, 7, FrequencySpec::Uniform(),
                          LengthSpec::Uniform(3, 8)),
       ColumnSpec::Integer("quantity", 50)},
      9000, 11);
  EXPECT_TRUE(orders.ok());
  EXPECT_TRUE(lineitem.ok());
  EXPECT_TRUE(
      catalog->AddTable("orders", std::move(orders).ValueOrDie()).ok());
  EXPECT_TRUE(
      catalog->AddTable("lineitem", std::move(lineitem).ValueOrDie()).ok());
  return catalog;
}

CandidateConfiguration Candidate(const std::string& table,
                                 const std::string& col,
                                 CompressionType type) {
  CandidateConfiguration c;
  c.table_name = table;
  c.index = {"ix_" + table + "_" + col, {col}, /*clustered=*/false};
  c.scheme = CompressionScheme::Uniform(type);
  c.benefit = 1.0;
  return c;
}

/// Splits the `traceEvents` array of an exported Chrome trace into one
/// string per event object (balanced-brace scan; event objects nest at
/// most one level, for "args").
std::vector<std::string> TraceEvents(const std::string& json) {
  std::vector<std::string> events;
  const size_t open = json.find('[');
  EXPECT_NE(open, std::string::npos);
  size_t depth = 0;
  size_t start = 0;
  for (size_t i = open; i < json.size(); ++i) {
    if (json[i] == '{') {
      if (depth == 0) start = i;
      ++depth;
    } else if (json[i] == '}') {
      --depth;
      if (depth == 0) events.push_back(json.substr(start, i - start + 1));
    } else if (json[i] == ']' && depth == 0) {
      break;
    }
  }
  return events;
}

uint64_t EventId(const std::string& event) {
  const size_t pos = event.find("\"id\":");
  EXPECT_NE(pos, std::string::npos) << event;
  return std::strtoull(event.c_str() + pos + 5, nullptr, 10);
}

TEST(LabeledTelemetryEndToEndTest, TwoTableEstimateAllChildrenAndFlows) {
  const MetricsSnapshot before = MetricRegistry::Global().Snapshot();
  trace::Reset();
  trace::SetEnabled(true);

  auto catalog = TwoTableCatalog();
  CatalogEstimationServiceOptions options;
  options.base.fraction = 0.05;
  options.num_threads = 4;
  CatalogEstimationService service(*catalog, options);

  // Each distinct candidate three times: one owner + two merged sharers
  // per (table, column, scheme) at the shared epoch.
  std::vector<CandidateConfiguration> candidates;
  for (int copy = 0; copy < 3; ++copy) {
    candidates.push_back(
        Candidate("orders", "status", CompressionType::kDictionaryPage));
    candidates.push_back(
        Candidate("lineitem", "shipmode", CompressionType::kRle));
    candidates.push_back(
        Candidate("orders", "amount", CompressionType::kNullSuppression));
  }
  auto sized = service.EstimateAll(candidates);
  ASSERT_TRUE(sized.ok());
  ASSERT_EQ(sized->size(), candidates.size());

  trace::SetEnabled(false);
  const MetricsSnapshot after = MetricRegistry::Global().Snapshot();

  // (a) Per-table children sum to the family aggregate: for each coalescer
  // counter, the run's aggregate delta must equal the sum of the two
  // tables' child deltas (this run touched no unlabeled child).
  const auto child_delta = [&](const std::string& name,
                               const std::string& table) {
    return after.LabeledCounterValue(name, {{"table", table}}) -
           before.LabeledCounterValue(name, {{"table", table}});
  };
  const auto aggregate_delta = [&](const std::string& name) {
    return after.CounterValue(name) - before.CounterValue(name);
  };
  for (const std::string name :
       {"cfest.coalescer.requests", "cfest.coalescer.admitted",
        "cfest.coalescer.merged"}) {
    EXPECT_EQ(aggregate_delta(name),
              child_delta(name, "orders") + child_delta(name, "lineitem"))
        << name;
  }
  EXPECT_EQ(aggregate_delta("cfest.coalescer.requests"), 9u);
  EXPECT_EQ(aggregate_delta("cfest.coalescer.admitted"), 3u);
  EXPECT_EQ(aggregate_delta("cfest.coalescer.merged"), 6u);
  EXPECT_EQ(child_delta("cfest.coalescer.requests", "orders"), 6u);
  EXPECT_EQ(child_delta("cfest.coalescer.requests", "lineitem"), 3u);
  // The engines registered per-table children too (one engine per table).
  EXPECT_EQ(aggregate_delta("cfest.engine.samples_drawn"),
            child_delta("cfest.engine.samples_drawn", "orders") +
                child_delta("cfest.engine.samples_drawn", "lineitem"));
  EXPECT_EQ(child_delta("cfest.engine.samples_drawn", "orders"), 1u);

  // (b) Every merged wait span is flow-linked to its owner compute span in
  // the exported Chrome trace: each sink (`ph:"f"`) id has a matching
  // source (`ph:"s"`) id, and there are exactly as many sinks as merged
  // requests.
  const std::string json = trace::ExportChromeTraceJson();
  std::set<uint64_t> source_ids;
  std::vector<uint64_t> sink_ids;
  size_t wait_spans = 0;
  size_t compute_spans = 0;
  for (const std::string& event : TraceEvents(json)) {
    if (event.find("\"ph\":\"s\"") != std::string::npos) {
      source_ids.insert(EventId(event));
    } else if (event.find("\"ph\":\"f\"") != std::string::npos) {
      sink_ids.push_back(EventId(event));
      EXPECT_NE(event.find("\"bp\":\"e\""), std::string::npos) << event;
    } else if (event.find("\"name\":\"coalescer.wait\"") !=
               std::string::npos) {
      ++wait_spans;
    } else if (event.find("\"name\":\"coalescer.compute\"") !=
               std::string::npos) {
      ++compute_spans;
    }
  }
  EXPECT_EQ(compute_spans, 3u);
  EXPECT_EQ(wait_spans, 6u);
  ASSERT_EQ(sink_ids.size(), 6u);
  EXPECT_EQ(source_ids.size(), 3u);
  for (uint64_t id : sink_ids) {
    EXPECT_TRUE(source_ids.count(id)) << "sink flow id " << id
                                      << " has no source";
  }
}

#endif  // CFEST_METRICS_DISABLED

}  // namespace
}  // namespace cfest
