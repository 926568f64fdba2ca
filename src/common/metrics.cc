#include "common/metrics.h"

#include <algorithm>
#include <bit>
#include <thread>

namespace cfest {
namespace metrics {
namespace {

size_t ComputeShardCount() {
#ifdef CFEST_METRICS_DISABLED
  return 1;
#else
  const unsigned hw = std::thread::hardware_concurrency();
  size_t shards = 1;
  while (shards < hw && shards < 32) shards *= 2;
  return std::max<size_t>(4, shards);
#endif
}

std::atomic<bool>& TimingFlag() {
  static std::atomic<bool> enabled{true};
  return enabled;
}

/// Canonical child identity: labels sorted by key (ties by value), so the
/// same set in any order resolves to the same child.
LabelSet CanonicalLabels(const LabelSet& labels) {
  LabelSet sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

/// Length-prefixed encoding of a canonical label set — the child map key.
/// Prefixes make adjacent fields unambiguous ("ab"+"c" vs "a"+"bc"); the
/// empty set encodes to "" (the unlabeled child).
std::string EncodeLabels(const LabelSet& canonical) {
  std::string out;
  for (const auto& [key, value] : canonical) {
    for (const std::string* part : {&key, &value}) {
      uint64_t n = part->size();
      for (int shift = 56; shift >= 0; shift -= 8) {
        out.push_back(static_cast<char>((n >> shift) & 0xFF));
      }
      out += *part;
    }
  }
  return out;
}

/// `cfest.engine.lock_free_pins` → `cfest_engine_lock_free_pins`.
std::string PrometheusName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out.push_back('_');
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Label names are a strict subset of metric names (no colon).
std::string PrometheusLabelName(const std::string& name) {
  std::string out;
  out.reserve(name.size() + 1);
  if (name.empty() || (name[0] >= '0' && name[0] <= '9')) out.push_back('_');
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Exposition-format label value escaping: backslash, double-quote, and
/// line-feed are the three characters the format requires escaping.
std::string EscapeLabelValue(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '"') {
      out += "\\\"";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

/// `{k="v",k2="v2"}` for a non-empty set; "" for the unlabeled child.
std::string RenderLabels(const LabelSet& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += PrometheusLabelName(key);
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\"";
  }
  out += "}";
  return out;
}

/// `{table="x",le="15"}` — a child's labels plus the bucket bound, also
/// usable with an empty set (plain `{le="15"}`).
std::string RenderLabelsWithLe(const LabelSet& labels,
                               const std::string& le) {
  std::string out = "{";
  for (const auto& [key, value] : labels) {
    out += PrometheusLabelName(key);
    out += "=\"";
    out += EscapeLabelValue(value);
    out += "\",";
  }
  out += "le=\"" + le + "\"}";
  return out;
}

void AppendHelpAndType(std::string* out, const std::string& p,
                       const std::string& dotted, const char* type) {
  *out += "# HELP " + p + " cfest metric " + dotted + "\n";
  *out += "# TYPE " + p + " " + type + "\n";
}

void AppendHistogramSeries(std::string* out, const std::string& p,
                           const LabelSet& labels,
                           const HistogramData& data) {
  const std::string label_text = RenderLabels(labels);
  uint64_t cumulative = 0;
  size_t top = kHistogramBuckets;
  while (top > 0 && data.buckets[top - 1] == 0) --top;
  for (size_t i = 0; i < top; ++i) {
    cumulative += data.buckets[i];
    *out += p + "_bucket" +
            RenderLabelsWithLe(labels,
                               std::to_string(HistogramBucketUpperBound(i))) +
            " " + std::to_string(cumulative) + "\n";
  }
  *out += p + "_bucket" + RenderLabelsWithLe(labels, "+Inf") + " " +
          std::to_string(data.count) + "\n";
  *out += p + "_sum" + label_text + " " + std::to_string(data.sum) + "\n";
  *out += p + "_count" + label_text + " " + std::to_string(data.count) + "\n";
}

JsonWriter LabelsToJson(const LabelSet& labels) {
  JsonWriter out;
  for (const auto& [key, value] : labels) {
    out.AddString(key, value);
  }
  return out;
}

JsonWriter HistogramDataToJson(const HistogramData& data) {
  JsonWriter h;
  h.AddInt("count", static_cast<int64_t>(data.count));
  h.AddInt("sum", static_cast<int64_t>(data.sum));
  // Trailing all-zero buckets carry no information; trim them so the
  // artifact stays readable (the bucket at index i always means the
  // same value range regardless of how many are printed).
  size_t top = kHistogramBuckets;
  while (top > 0 && data.buckets[top - 1] == 0) --top;
  std::vector<int64_t> buckets;
  buckets.reserve(top);
  for (size_t i = 0; i < top; ++i) {
    buckets.push_back(static_cast<int64_t>(data.buckets[i]));
  }
  h.AddIntArray("buckets", buckets);
  h.AddDouble("p50", data.Quantile(0.5));
  h.AddDouble("p99", data.Quantile(0.99));
  return h;
}

}  // namespace

size_t ShardCount() {
  static const size_t count = ComputeShardCount();
  return count;
}

Counter::Counter()
    : mask_(ShardCount() - 1), cells_(new Cell[ShardCount()]) {}

size_t HistogramBucketIndex(uint64_t value) {
  return value == 0 ? 0 : 64 - static_cast<size_t>(std::countl_zero(value));
}

uint64_t HistogramBucketUpperBound(size_t index) {
  if (index == 0) return 0;
  if (index >= 64) return UINT64_MAX;
  return (uint64_t{1} << index) - 1;
}

void HistogramData::Merge(const HistogramData& other) {
  count += other.count;
  sum += other.sum;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    buckets[i] += other.buckets[i];
  }
}

double HistogramData::Quantile(double q) const {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < kHistogramBuckets; ++i) {
    if (buckets[i] == 0) continue;
    const uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= rank) {
      const double lower =
          i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
      const double upper = static_cast<double>(HistogramBucketUpperBound(i));
      const double within =
          (rank - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[i]);
      return lower + within * (upper - lower);
    }
    cumulative = next;
  }
  return static_cast<double>(HistogramBucketUpperBound(kHistogramBuckets - 1));
}

Histogram::Histogram()
    : mask_(ShardCount() - 1), shards_(new Shard[ShardCount()]) {}

HistogramData Histogram::Data() const {
  HistogramData data;
  for (size_t s = 0; s <= mask_; ++s) {
    const Shard& shard = shards_[s];
    data.count += shard.count.load(std::memory_order_relaxed);
    data.sum += shard.sum.load(std::memory_order_relaxed);
    for (size_t i = 0; i < kHistogramBuckets; ++i) {
      data.buckets[i] += shard.buckets[i].load(std::memory_order_relaxed);
    }
  }
  return data;
}

bool TimingEnabled() {
#ifdef CFEST_METRICS_DISABLED
  return false;
#else
  return TimingFlag().load(std::memory_order_relaxed);
#endif
}

void SetTimingEnabled(bool enabled) {
  TimingFlag().store(enabled, std::memory_order_relaxed);
}

uint64_t MetricsSnapshot::CounterValue(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

uint64_t MetricsSnapshot::LabeledCounterValue(const std::string& name,
                                              const LabelSet& labels) const {
  auto it = labeled_counters.find(name);
  if (it == labeled_counters.end()) return 0;
  const LabelSet canonical = CanonicalLabels(labels);
  for (const LabeledCounter& child : it->second) {
    if (child.labels == canonical) return child.value;
  }
  return 0;
}

JsonWriter MetricsSnapshot::ToJsonWriter() const {
  JsonWriter counters_json;
  for (const auto& [name, value] : counters) {
    counters_json.AddInt(name, static_cast<int64_t>(value));
  }
  JsonWriter gauges_json;
  for (const auto& [name, value] : gauges) {
    gauges_json.AddInt(name, value);
  }
  JsonWriter histograms_json;
  for (const auto& [name, data] : histograms) {
    histograms_json.AddObject(name, HistogramDataToJson(data));
  }
  JsonWriter labeled_counters_json;
  for (const auto& [name, children] : labeled_counters) {
    std::vector<JsonWriter> entries;
    entries.reserve(children.size());
    for (const LabeledCounter& child : children) {
      JsonWriter entry;
      entry.AddObject("labels", LabelsToJson(child.labels));
      entry.AddInt("value", static_cast<int64_t>(child.value));
      entries.push_back(std::move(entry));
    }
    labeled_counters_json.AddObjectArray(name, entries);
  }
  JsonWriter labeled_gauges_json;
  for (const auto& [name, children] : labeled_gauges) {
    std::vector<JsonWriter> entries;
    entries.reserve(children.size());
    for (const LabeledGauge& child : children) {
      JsonWriter entry;
      entry.AddObject("labels", LabelsToJson(child.labels));
      entry.AddInt("value", child.value);
      entries.push_back(std::move(entry));
    }
    labeled_gauges_json.AddObjectArray(name, entries);
  }
  JsonWriter labeled_histograms_json;
  for (const auto& [name, children] : labeled_histograms) {
    std::vector<JsonWriter> entries;
    entries.reserve(children.size());
    for (const LabeledHistogram& child : children) {
      JsonWriter entry;
      entry.AddObject("labels", LabelsToJson(child.labels));
      entry.AddObject("data", HistogramDataToJson(child.data));
      entries.push_back(std::move(entry));
    }
    labeled_histograms_json.AddObjectArray(name, entries);
  }
  JsonWriter out;
  out.AddBool("timing_enabled", TimingEnabled());
  out.AddObject("counters", counters_json);
  out.AddObject("gauges", gauges_json);
  out.AddObject("histograms", histograms_json);
  out.AddObject("labeled_counters", labeled_counters_json);
  out.AddObject("labeled_gauges", labeled_gauges_json);
  out.AddObject("labeled_histograms", labeled_histograms_json);
  return out;
}

std::string MetricsSnapshot::ToJson() const { return ToJsonWriter().ToString(); }

std::string MetricsSnapshot::ToPrometheusText() const {
  std::string out;
  for (const auto& [name, value] : counters) {
    const std::string p = PrometheusName(name);
    AppendHelpAndType(&out, p, name, "counter");
    out += p + " " + std::to_string(value) + "\n";
    auto it = labeled_counters.find(name);
    if (it != labeled_counters.end()) {
      for (const LabeledCounter& child : it->second) {
        out += p + RenderLabels(child.labels) + " " +
               std::to_string(child.value) + "\n";
      }
    }
  }
  for (const auto& [name, value] : gauges) {
    const std::string p = PrometheusName(name);
    AppendHelpAndType(&out, p, name, "gauge");
    out += p + " " + std::to_string(value) + "\n";
    auto it = labeled_gauges.find(name);
    if (it != labeled_gauges.end()) {
      for (const LabeledGauge& child : it->second) {
        out += p + RenderLabels(child.labels) + " " +
               std::to_string(child.value) + "\n";
      }
    }
  }
  for (const auto& [name, data] : histograms) {
    const std::string p = PrometheusName(name);
    AppendHelpAndType(&out, p, name, "histogram");
    AppendHistogramSeries(&out, p, /*labels=*/{}, data);
    auto it = labeled_histograms.find(name);
    if (it != labeled_histograms.end()) {
      for (const LabeledHistogram& child : it->second) {
        AppendHistogramSeries(&out, p, child.labels, child.data);
      }
    }
    // Precomputed quantiles as gauges (the bucket-derived estimates, so
    // dashboards without a PromQL histogram_quantile still get p50/p99),
    // for the aggregate and for every labeled child.
    AppendHelpAndType(&out, p + "_p50", name + " p50", "gauge");
    out += p + "_p50 " + std::to_string(data.Quantile(0.5)) + "\n";
    if (it != labeled_histograms.end()) {
      for (const LabeledHistogram& child : it->second) {
        out += p + "_p50" + RenderLabels(child.labels) + " " +
               std::to_string(child.data.Quantile(0.5)) + "\n";
      }
    }
    AppendHelpAndType(&out, p + "_p99", name + " p99", "gauge");
    out += p + "_p99 " + std::to_string(data.Quantile(0.99)) + "\n";
    if (it != labeled_histograms.end()) {
      for (const LabeledHistogram& child : it->second) {
        out += p + "_p99" + RenderLabels(child.labels) + " " +
               std::to_string(child.data.Quantile(0.99)) + "\n";
      }
    }
  }
  return out;
}

MetricRegistry& MetricRegistry::Global() {
  static MetricRegistry* registry = new MetricRegistry();  // never destroyed
  return *registry;
}

Counter* MetricRegistry::GetCounter(const std::string& name) {
  return GetCounter(name, {});
}

Counter* MetricRegistry::GetCounter(const std::string& name,
                                    const LabelSet& labels) {
  const LabelSet canonical = CanonicalLabels(labels);
  std::string key = EncodeLabels(canonical);
  MutexLock lock(mu_);
  CounterChild& child = counters_[name].children[key];
  if (child.owned == nullptr) {
    child.labels = canonical;
    child.owned = std::make_unique<Counter>();
  }
  return child.owned.get();
}

Gauge* MetricRegistry::GetGauge(const std::string& name) {
  return GetGauge(name, {});
}

Gauge* MetricRegistry::GetGauge(const std::string& name,
                                const LabelSet& labels) {
  const LabelSet canonical = CanonicalLabels(labels);
  std::string key = EncodeLabels(canonical);
  MutexLock lock(mu_);
  GaugeChild& child = gauges_[name].children[key];
  if (child.gauge == nullptr) {
    child.labels = canonical;
    child.gauge = std::make_unique<Gauge>();
  }
  return child.gauge.get();
}

Histogram* MetricRegistry::GetHistogram(const std::string& name) {
  return GetHistogram(name, {});
}

Histogram* MetricRegistry::GetHistogram(const std::string& name,
                                        const LabelSet& labels) {
  const LabelSet canonical = CanonicalLabels(labels);
  std::string key = EncodeLabels(canonical);
  MutexLock lock(mu_);
  HistogramChild& child = histograms_[name].children[key];
  if (child.histogram == nullptr) {
    child.labels = canonical;
    child.histogram = std::make_unique<Histogram>();
  }
  return child.histogram.get();
}

MetricRegistry::Registration MetricRegistry::RegisterCounters(
    std::vector<std::pair<std::string, const Counter*>> counters) {
  return RegisterCounters({}, std::move(counters));
}

MetricRegistry::Registration MetricRegistry::RegisterCounters(
    const LabelSet& labels,
    std::vector<std::pair<std::string, const Counter*>> counters) {
  const LabelSet canonical = CanonicalLabels(labels);
  std::string key = EncodeLabels(canonical);
  {
    MutexLock lock(mu_);
    for (const auto& [name, counter] : counters) {
      CounterChild& child = counters_[name].children[key];
      if (child.instances.empty() && child.owned == nullptr &&
          child.retired == 0) {
        child.labels = canonical;
      }
      child.instances.push_back(counter);
    }
  }
  return Registration(this, std::move(key), std::move(counters));
}

void MetricRegistry::Retire(
    const std::string& labels_key,
    const std::vector<std::pair<std::string, const Counter*>>& counters) {
  MutexLock lock(mu_);
  for (const auto& [name, counter] : counters) {
    CounterChild& child = counters_[name].children[labels_key];
    child.retired += counter->Value();
    auto it = std::find(child.instances.begin(), child.instances.end(),
                        counter);
    if (it != child.instances.end()) child.instances.erase(it);
  }
}

MetricRegistry::Registration::Registration(Registration&& other) noexcept
    : registry_(other.registry_),
      labels_key_(std::move(other.labels_key_)),
      counters_(std::move(other.counters_)) {
  other.registry_ = nullptr;
  other.counters_.clear();
}

MetricRegistry::Registration& MetricRegistry::Registration::operator=(
    Registration&& other) noexcept {
  if (this != &other) {
    Release();
    registry_ = other.registry_;
    labels_key_ = std::move(other.labels_key_);
    counters_ = std::move(other.counters_);
    other.registry_ = nullptr;
    other.counters_.clear();
  }
  return *this;
}

MetricRegistry::Registration::~Registration() { Release(); }

void MetricRegistry::Registration::Release() {
  if (registry_ != nullptr) registry_->Retire(labels_key_, counters_);
  registry_ = nullptr;
  labels_key_.clear();
  counters_.clear();
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MetricsSnapshot snapshot;
#ifdef CFEST_METRICS_DISABLED
  return snapshot;
#else
  MutexLock lock(mu_);
  for (const auto& [name, family] : counters_) {
    uint64_t aggregate = 0;
    for (const auto& [key, child] : family.children) {
      (void)key;
      uint64_t total = child.retired;
      if (child.owned != nullptr) total += child.owned->Value();
      for (const Counter* instance : child.instances) {
        total += instance->Value();
      }
      aggregate += total;
      if (!child.labels.empty()) {
        snapshot.labeled_counters[name].push_back({child.labels, total});
      }
    }
    snapshot.counters.emplace(name, aggregate);
  }
  for (const auto& [name, family] : gauges_) {
    int64_t aggregate = 0;
    for (const auto& [key, child] : family.children) {
      (void)key;
      const int64_t value =
          child.gauge != nullptr ? child.gauge->Value() : 0;
      aggregate += value;
      if (!child.labels.empty()) {
        snapshot.labeled_gauges[name].push_back({child.labels, value});
      }
    }
    snapshot.gauges.emplace(name, aggregate);
  }
  for (const auto& [name, family] : histograms_) {
    HistogramData aggregate;
    for (const auto& [key, child] : family.children) {
      (void)key;
      if (child.histogram == nullptr) continue;
      HistogramData data = child.histogram->Data();
      aggregate.Merge(data);
      if (!child.labels.empty()) {
        snapshot.labeled_histograms[name].push_back(
            {child.labels, std::move(data)});
      }
    }
    snapshot.histograms.emplace(name, aggregate);
  }
  return snapshot;
#endif
}

}  // namespace metrics
}  // namespace cfest
