#include "estimator/coalesce.h"

#include <utility>

#include "common/trace.h"

namespace cfest {
namespace {

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 56; shift >= 0; shift -= 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xFF));
  }
}

}  // namespace

std::string CoalesceKey(const std::string& table_name,
                        const CandidateConfiguration& candidate,
                        const SampleEpoch& epoch) {
  std::string key;
  key.reserve(table_name.size() + 64);
  // Length-prefix the free-form components so adjacent fields can never
  // alias across requests ("ab"+"c" vs "a"+"bc").
  AppendU64(&key, table_name.size());
  key += table_name;
  const std::string index_key = SampleIndexCacheKey(candidate.index);
  AppendU64(&key, index_key.size());
  key += index_key;
  // The scheme, field by field: default type, per-column overrides, and
  // every CompressionOptions knob that changes encoded bytes.
  key.push_back(static_cast<char>(candidate.scheme.default_type));
  AppendU64(&key, candidate.scheme.per_column.size());
  for (CompressionType type : candidate.scheme.per_column) {
    key.push_back(static_cast<char>(type));
  }
  AppendU64(&key, candidate.scheme.options.global_pointer_bytes);
  key.push_back(candidate.scheme.options.dict_entries_full_width ? 1 : 0);
  key.push_back(candidate.scheme.options.dict_bit_packed_pointers ? 1 : 0);
  // Epoch identity: same version + same table-rows snapshot => the epochs
  // are interchangeable for estimation (identical sample contents and
  // identical full-index scaling), even if they are distinct objects.
  AppendU64(&key, epoch.version());
  AppendU64(&key, epoch.table_rows());
  return key;
}

RequestCoalescer::TableCounters* RequestCoalescer::CountersForTable(
    const std::string& table_name) {
  MutexLock lock(mu_);
  std::unique_ptr<TableCounters>& block = table_counters_[table_name];
  if (block == nullptr) block = std::make_unique<TableCounters>(table_name);
  return block.get();
}

RequestCoalescer::Ticket RequestCoalescer::Admit(
    const std::string& key, TableCounters* table_counters) {
  MutexLock lock(mu_);
  // Attribute to the caller's per-table child when it resolved one, to
  // the unlabeled child otherwise — never both, so the family aggregate
  // counts each admission exactly once.
  metrics::Counter& requests =
      table_counters != nullptr ? table_counters->requests : requests_;
  metrics::Counter& admitted =
      table_counters != nullptr ? table_counters->admitted : admitted_;
  metrics::Counter& merged =
      table_counters != nullptr ? table_counters->merged : merged_;
  requests.Increment();
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    merged.Increment();
    return Ticket{false, it->second.flow_id, it->second.future};
  }
  Entry entry;
  entry.promise = std::make_shared<std::promise<SizingOutcome>>();
  entry.future = entry.promise->get_future().share();
  // Mint the flow id at owner admission so every sharer of this key gets
  // the same id — the correlation the exported trace draws as arrows.
  entry.flow_id = trace::Enabled() ? trace::NextFlowId() : 0;
  Ticket ticket{true, entry.flow_id, entry.future};
  entries_.emplace(key, std::move(entry));
  admitted.Increment();
  return ticket;
}

void RequestCoalescer::Complete(const std::string& key,
                                SizingOutcome outcome) {
  std::shared_ptr<std::promise<SizingOutcome>> promise;
  {
    MutexLock lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end()) return;
    promise = std::move(it->second.promise);
    // Retire as we publish: the map only ever holds in-flight work, so
    // later identical requests recompute through the engine's epoch
    // caches instead of being served a stale-able memo.
    entries_.erase(it);
  }
  // Fulfill outside the lock: waiters wake straight into their futures
  // without contending on the admission mutex.
  promise->set_value(std::move(outcome));
}

}  // namespace cfest
