// Copyright (c) the samplecf authors. Licensed under the MIT license.
//
// CellDictionary: the one dictionary structure behind every dictionary-coded
// chunk compressor (page dictionary, global dictionary, prefix+dictionary).
//
// An open-addressing linear-probe table over entries whose bytes live in a
// single contiguous pool: no per-entry heap allocation, no key strings built
// to probe. Codes are assigned in first-appearance order, so the hash
// (kernels::HashBytes — CRC or FNV depending on the active SIMD level) is an
// internal accelerator only and never influences a code or serialized byte.
//
// Batched sizing stages a batch before the page packer knows whether the
// page has room for it: BeginTentative() opens a section whose inserts are
// provisional. Commit() keeps them (an accepted batch is inserted once);
// RollBack() removes them again, restoring the exact prior entries.
//
// A grouped dictionary, chosen at construction, serves a column whose equal
// cells are adjacent in the order they are inserted (a sorted leading key,
// or a row id). There a cell is already an entry exactly when it equals the
// newest entry, so a grouped dictionary keeps only that entry and a count:
// Insert() and Contains() compare with it and never hash, and nothing grows
// with the entries. The codes and sizes are those the hashed mode gives for
// the same cells; a column that breaks the contract gets a new entry each
// time a value recurs after another one.

#ifndef CFEST_COMPRESSION_CELL_DICTIONARY_H_
#define CFEST_COMPRESSION_CELL_DICTIONARY_H_

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/slice.h"
#include "compression/kernels.h"

namespace cfest {

class CellDictionary {
 public:
  /// `initial_slots` must be a power of two. `grouped` promises that equal
  /// cells are inserted adjacently (see above); the table then stays empty.
  explicit CellDictionary(size_t initial_slots = 256, bool grouped = false)
      : slots_(grouped ? 0 : initial_slots, 0), grouped_(grouped) {
    assert(initial_slots > 0 && (initial_slots & (initial_slots - 1)) == 0);
  }

  /// Number of distinct entries.
  size_t size() const { return grouped_ ? grouped_size_ : entries_.size(); }
  bool empty() const { return size() == 0; }

  /// The bytes of the entry with `code`, valid until the next Insert. A
  /// grouped dictionary holds only its newest entry.
  Slice entry(uint32_t code) const {
    if (grouped_) {
      assert(code + 1 == grouped_size_);
      return Slice(newest_);
    }
    const Entry& e = entries_[code];
    return Slice(pool_.data() + e.offset, e.len);
  }

  /// The code of the `len` bytes at `data`, which must be an entry of a
  /// hashed dictionary.
  uint32_t Code(const char* data, uint32_t len) const {
    assert(!grouped_ && Contains(data, len));
    return slots_[FindSlot(data, len, Hash(data, len))] - 1;
  }

  /// True if the `len` bytes at `data` are an entry.
  bool Contains(const char* data, uint32_t len) const {
    if (grouped_) return IsNewest(data, len);
    return slots_[FindSlot(data, len, Hash(data, len))] != 0;
  }

  struct Insertion {
    uint32_t code;
    bool inserted;  // false if the bytes were already an entry
  };

  /// The code of the `len` bytes at `data`, inserting them (with the next
  /// code) if they are new.
  Insertion Insert(const char* data, uint32_t len) {
    if (grouped_) {
      if (IsNewest(data, len)) return {grouped_size_ - 1, false};
      // The first insert of a tentative section keeps the entry a
      // RollBack() makes the newest again.
      if (grouped_size_ == tentative_mark_) saved_newest_.swap(newest_);
      newest_.assign(data, len);
      return {grouped_size_++, true};
    }
    const uint32_t hash = Hash(data, len);
    const size_t slot = FindSlot(data, len, hash);
    if (slots_[slot] != 0) return {slots_[slot] - 1, false};
    const uint32_t code = static_cast<uint32_t>(entries_.size());
    entries_.push_back({pool_.size(), len, hash});
    pool_.append(data, len);
    slots_[slot] = code + 1;
    if ((entries_.size() + 1) * 4 > slots_.size() * 3) Grow();
    return {code, true};
  }

  /// Empties the dictionary for the next page: the state of a fresh
  /// dictionary (codes restart at 0), but the slot table keeps its size and
  /// the entries and pool keep their capacity. A larger table only shortens
  /// probe chains; codes follow first appearance, so no code changes.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), 0);
    entries_.clear();
    pool_.clear();
    grouped_size_ = 0;
    tentative_mark_ = 0;
    tentative_slots_ = 0;
  }

  /// Opens a tentative section: every entry inserted from here on is
  /// removed again by a RollBack(), unless Commit() keeps it first.
  void BeginTentative() {
    tentative_mark_ = size();
    tentative_slots_ = slots_.size();
  }

  /// Ends the tentative section, keeping its entries: a RollBack() before
  /// the next BeginTentative() removes nothing.
  void Commit() { BeginTentative(); }

  /// Removes every entry inserted since BeginTentative(), restoring the
  /// dictionary's prior entries and codes. If the section never grew the
  /// table, the tentative entries only ever extended probe chains past the
  /// older ones, so emptying their slots newest first restores the table
  /// exactly; otherwise the table is rebuilt from the surviving entries.
  /// A grouped dictionary has no table: it restores the newest entry it
  /// kept aside and the count.
  void RollBack() {
    const size_t mark = tentative_mark_;
    if (mark == size()) return;
    if (grouped_) {
      newest_.swap(saved_newest_);
      grouped_size_ = static_cast<uint32_t>(mark);
      return;
    }
    const bool grew = slots_.size() != tentative_slots_;
    if (!grew) {
      const size_t mask = slots_.size() - 1;
      for (size_t code = entries_.size(); code-- > mark;) {
        size_t i = entries_[code].hash & mask;
        while (slots_[i] != code + 1) i = (i + 1) & mask;
        slots_[i] = 0;
      }
    }
    pool_.resize(entries_[mark].offset);
    entries_.resize(mark);
    if (grew) Rehash(slots_.size());
  }

 private:
  struct Entry {
    size_t offset;  // into pool_
    uint32_t len;
    uint32_t hash;  // low bits of HashBytes: skips most memcmps and
                    // rehashes
  };

  /// Grouped mode's membership test: the bytes equal the newest entry.
  bool IsNewest(const char* data, uint32_t len) const {
    return grouped_size_ > 0 && newest_.size() == len &&
           std::memcmp(newest_.data(), data, len) == 0;
  }

  static uint32_t Hash(const char* data, uint32_t len) {
    return static_cast<uint32_t>(kernels::HashBytes(data, len));
  }

  /// The slot holding the bytes' code + 1, or the empty slot where they
  /// would be inserted.
  size_t FindSlot(const char* data, uint32_t len, uint32_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = hash & mask;
    while (slots_[i] != 0) {
      const Entry& e = entries_[slots_[i] - 1];
      if (e.hash == hash && e.len == len &&
          std::memcmp(pool_.data() + e.offset, data, len) == 0) {
        return i;
      }
      i = (i + 1) & mask;
    }
    return i;
  }

  /// Doubles the table, keeping it under 75% load.
  void Grow() { Rehash(slots_.size() * 2); }

  /// Rebuilds the table at `slot_count` slots, re-placing every entry by
  /// its stored hash.
  void Rehash(size_t slot_count) {
    slots_.assign(slot_count, 0);
    const size_t mask = slot_count - 1;
    for (size_t code = 0; code < entries_.size(); ++code) {
      size_t i = entries_[code].hash & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = static_cast<uint32_t>(code) + 1;
    }
  }

  /// Entry code + 1 per slot, 0 = empty. Power-of-two sized; empty when
  /// grouped.
  std::vector<uint32_t> slots_;
  bool grouped_;
  std::vector<Entry> entries_;  // in code (first-appearance) order; hashed
  std::string pool_;            // every entry's bytes, back to back; hashed
  // Grouped mode's state: the entry count, the newest entry, and the entry
  // that was newest when the open tentative section first inserted.
  uint32_t grouped_size_ = 0;
  std::string newest_;
  std::string saved_newest_;
  size_t tentative_mark_ = 0;
  size_t tentative_slots_ = 0;
};

}  // namespace cfest

#endif  // CFEST_COMPRESSION_CELL_DICTIONARY_H_
