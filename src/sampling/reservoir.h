// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// The Algorithm-R core (Vitter, the paper's ref [5]) shared by both
// reservoir consumers in the tree: the RowSampler strategy over whole
// tables (sampling/sampler.cc) and the EstimationEngine's reservoir mode,
// whose NotifyAppend resumes the stream (estimator/engine.cc).
//
// The class is deliberately storage-agnostic: it only decides, per offered
// stream item, *which reservoir slot* (if any) the item occupies. Callers
// own the slot storage (row ids, in both consumers), so one core serves
// both bit-identically. The RNG consumption contract
// is fixed and must never change (tests pin it): no draw while the
// reservoir is filling, then exactly one NextBounded(items_seen + 1) per
// offered item.

#ifndef CFEST_SAMPLING_RESERVOIR_H_
#define CFEST_SAMPLING_RESERVOIR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"

namespace cfest {

/// \brief Slot-assignment state machine for reservoir sampling.
///
/// A reservoir of capacity r over a stream of n items keeps each item with
/// probability r/n at every prefix. The core is resumable: offering items
/// n..n'-1 to a core that already saw 0..n-1 yields exactly the reservoir a
/// fresh core would produce over 0..n'-1 with the same RNG stream — this is
/// what makes the EstimationEngine's incremental refresh equal a full
/// re-draw.
class ReservoirSampler {
 public:
  /// Returned by Offer() when the item does not enter the reservoir.
  static constexpr uint64_t kSkip = ~0ull;

  /// capacity must be > 0 (callers validate; 0 is clamped to 1).
  explicit ReservoirSampler(uint64_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// Offers the next stream item. Returns the slot index in [0, capacity)
  /// the item should occupy, or kSkip. `rng` is drawn from only once the
  /// reservoir is full.
  uint64_t Offer(Random* rng) {
    uint64_t slot;
    if (size_ < capacity_) {
      slot = size_++;
    } else {
      const uint64_t j = rng->NextBounded(items_seen_ + 1);
      slot = j < capacity_ ? j : kSkip;
    }
    ++items_seen_;
    return slot;
  }

  uint64_t capacity() const { return capacity_; }
  /// Items offered so far (the stream position n).
  uint64_t items_seen() const { return items_seen_; }
  /// Occupied slots: min(items_seen, capacity).
  uint64_t size() const { return size_; }

 private:
  uint64_t capacity_;
  uint64_t items_seen_ = 0;
  uint64_t size_ = 0;
};

/// Offers the contiguous id range [begin, end) to `core` and applies every
/// accepted slot to `slots` (the caller's id-valued slot storage, extended
/// while the reservoir is filling). When `written` is non-null, appends
/// each slot written to it — in write order, a slot once per write — so a
/// caller holding state derived from the old slots can patch just those
/// positions (an empty list means the contents did not change). The
/// streaming loop the EstimationEngine's initial draw, delta refresh, and
/// capacity-growth replay all run — hoisted here so the three call sites
/// cannot drift from the RNG consumption contract above, which reporting
/// leaves untouched.
inline void OfferIdRange(ReservoirSampler* core, Random* rng, uint64_t begin,
                         uint64_t end, std::vector<uint64_t>* slots,
                         std::vector<uint64_t>* written = nullptr) {
  for (uint64_t id = begin; id < end; ++id) {
    const uint64_t slot = core->Offer(rng);
    if (slot == ReservoirSampler::kSkip) continue;
    if (slot == slots->size()) {
      slots->push_back(id);
    } else {
      (*slots)[static_cast<size_t>(slot)] = id;
    }
    if (written != nullptr) written->push_back(slot);
  }
}

}  // namespace cfest

#endif  // CFEST_SAMPLING_RESERVOIR_H_
