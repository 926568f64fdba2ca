#include "estimator/epoch.h"

#include <chrono>

#include "common/trace.h"
#include "estimator/engine.h"


namespace cfest {

SampleEpoch::SampleEpoch(std::shared_ptr<const TableView> sample,
                         uint64_t version, uint64_t table_rows,
                         std::shared_ptr<EpochCounters> counters)
    : sample_(std::move(sample)),
      version_(version),
      table_rows_(table_rows),
      counters_(std::move(counters)),
      indexes_(std::make_shared<const IndexMap>()) {
  counters_->epochs_published.Increment();
}

SampleEpoch::~SampleEpoch() {
  counters_->epochs_retired.Increment();
}

Result<std::shared_ptr<const Index>> SampleEpoch::SampleIndex(
    const IndexDescriptor& descriptor, const IndexBuildOptions& build) const {
  const std::string key = SampleIndexCacheKey(descriptor);

  std::shared_future<IndexEntry> future;
  bool builder = false;
  std::promise<IndexEntry> promise;
  std::shared_ptr<const Index> carried;
  std::shared_ptr<const CarrySource> source;

  // Lock-free hit path: one acquire load of the immutable snapshot map.
  std::shared_ptr<const IndexMap> snapshot =
      indexes_.load(std::memory_order_acquire);
  auto hit = snapshot->find(key);
  if (hit != snapshot->end()) {
    future = hit->second;
    counters_->index_cache_hits.Increment();
  } else {
    // Miss: register the work under the epoch-local mutex so concurrent
    // missers for the same key share it. The lock guards only the
    // copy-on-write insert and the hand-off of a carried key — the build or
    // patch itself runs outside it.
    MutexLock lock(build_mu_);
    snapshot = indexes_.load(std::memory_order_acquire);
    auto raced = snapshot->find(key);
    if (raced != snapshot->end()) {
      future = raced->second;
      counters_->index_cache_hits.Increment();
    } else {
      future = promise.get_future().share();
      auto next = std::make_shared<IndexMap>(*snapshot);
      next->emplace(key, future);
      indexes_.store(std::shared_ptr<const IndexMap>(std::move(next)),
                     std::memory_order_release);
      builder = true;
      if (carry_ != nullptr) {
        auto carry = carry_->indexes.find(key);
        if (carry != carry_->indexes.end()) {
          carried = std::move(carry->second);
          carry_->indexes.erase(carry);
          source = carry_;
          if (carry_->indexes.empty()) carry_.reset();
        }
      }
    }
  }

  if (builder) {
    IndexEntry entry;
    if (carried != nullptr) {
      Result<std::shared_ptr<const Index>> patched =
          Patch(*carried, *source, build);
      if (patched.ok()) {
        entry.index = *std::move(patched);
      } else {
        counters_->invalidations.Increment();
      }
    }
    if (entry.index == nullptr) {
      trace::Span span("engine.index_build");
      Result<Index> built = Index::Build(*sample_, descriptor, build);
      if (built.ok()) {
        entry.index =
            std::make_shared<const Index>(std::move(built).ValueOrDie());
      } else {
        entry.status = built.status();
      }
      counters_->index_builds.Increment();
    }
    promise.set_value(std::move(entry));
  } else {
    WaitForSharedBuild(future);
  }

  const IndexEntry& entry = future.get();
  CFEST_RETURN_NOT_OK(entry.status);
  return entry.index;
}

Result<std::shared_ptr<const Index>> SampleEpoch::Patch(
    const Index& index, const CarrySource& source,
    const IndexBuildOptions& build) const {
  trace::Span span("engine.index_patch");
  CFEST_ASSIGN_OR_RETURN(
      Index patched,
      index.Patched(*source.sample, *sample_, source.changed, build));
  counters_->index_extensions.Increment();
  return std::make_shared<const Index>(std::move(patched));
}

uint64_t SampleEpoch::CarryFrom(const SampleEpoch& predecessor,
                                std::vector<uint64_t> changed) {
  auto carry = std::make_shared<CarrySource>();
  for (auto& [key, index] : predecessor.ReadyIndexes()) {
    carry->indexes.emplace(std::move(key), std::move(index));
  }
  const uint64_t carried = carry->indexes.size();
  if (carried == 0) return 0;
  carry->sample = predecessor.sample_view();
  carry->changed = std::move(changed);
  MutexLock lock(build_mu_);
  carry_ = std::move(carry);
  return carried;
}

uint64_t SampleEpoch::MaterializeCarried(const IndexBuildOptions& build) {
  MutexLock lock(build_mu_);
  if (carry_ == nullptr) return 0;
  auto next = std::make_shared<IndexMap>(*indexes_.load());
  uint64_t cached = 0;
  for (const auto& [key, index] : carry_->indexes) {
    Result<std::shared_ptr<const Index>> patched =
        Patch(*index, *carry_, build);
    if (!patched.ok()) continue;  // dropped: the next request builds it
    std::promise<IndexEntry> promise;
    promise.set_value(IndexEntry{Status::OK(), *std::move(patched)});
    next->insert_or_assign(key, promise.get_future().share());
    ++cached;
  }
  carry_.reset();
  indexes_.store(std::shared_ptr<const IndexMap>(std::move(next)),
                 std::memory_order_release);
  return cached;
}

std::vector<std::pair<std::string, std::shared_ptr<const Index>>>
SampleEpoch::ReadyIndexes() const {
  std::shared_ptr<const IndexMap> snapshot =
      indexes_.load(std::memory_order_acquire);
  std::vector<std::pair<std::string, std::shared_ptr<const Index>>> ready;
  ready.reserve(snapshot->size());
  for (const auto& [key, future] : *snapshot) {
    if (future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      continue;  // in flight: the successor builds on demand
    }
    const IndexEntry& entry = future.get();
    if (!entry.status.ok() || entry.index == nullptr) continue;
    ready.emplace_back(key, entry.index);
  }
  return ready;
}

uint64_t SampleEpoch::CachedIndexCount() const {
  MutexLock lock(build_mu_);
  return indexes_.load(std::memory_order_acquire)->size() +
         (carry_ == nullptr ? 0 : carry_->indexes.size());
}

}  // namespace cfest
