#ifndef WARPLDA_CORE_COUNT_ARENA_H_
#define WARPLDA_CORE_COUNT_ARENA_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/hash_count.h"

namespace warplda {

/// Mutable view of one fixed-capacity count table inside a CountArena.
///
/// Layout, hashing and probing are exactly HashCount's (same multiplicative
/// hash, linear probing, power-of-two capacity, decremented-to-zero slots
/// keep their key), so Get() returns the same values a freshly built
/// HashCount over the same multiset would — which is all the samplers
/// observe; slot order is irrelevant because alias tables are built from
/// sorted (topic, count) entries. Unlike HashCount there is no Grow(): the
/// arena sizes each table for the worst case up front (see CountArena), so
/// Inc on the hot path is probe + bump, nothing else.
class FlatCounts {
 public:
  FlatCounts(HashCount::Entry* slots, uint32_t mask)
      : slots_(slots), mask_(mask) {}

  int32_t Get(uint32_t key) const {
    const uint32_t i = FindSlot(key);
    return slots_[i].key == HashCount::kEmptyKey ? 0 : slots_[i].value;
  }

  void Inc(uint32_t key) {
    const uint32_t i = FindSlot(key);
    if (slots_[i].key == HashCount::kEmptyKey) {
      slots_[i].key = key;
      slots_[i].value = 1;
    } else {
      ++slots_[i].value;
    }
  }

  /// The key must be present (counts never go negative in correct sampler
  /// code; like HashCount::Dec this is not checked on the hot path).
  void Dec(uint32_t key) { --slots_[FindSlot(key)].value; }

  uint32_t capacity() const { return mask_ + 1; }

  /// Address of the slot `key` hashes to, for cache-trace replay.
  uintptr_t SlotAddr(uint32_t key) const {
    return reinterpret_cast<uintptr_t>(slots_ + (Hash(key) & mask_));
  }

  template <typename F>
  void ForEachNonZero(F&& f) const {
    for (uint32_t i = 0; i <= mask_; ++i) {
      if (slots_[i].key != HashCount::kEmptyKey && slots_[i].value != 0) {
        f(slots_[i].key, slots_[i].value);
      }
    }
  }

 private:
  static uint32_t Hash(uint32_t key) { return key * 2654435761u; }

  uint32_t FindSlot(uint32_t key) const {
    uint32_t i = Hash(key) & mask_;
    while (slots_[i].key != HashCount::kEmptyKey && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  HashCount::Entry* slots_;
  uint32_t mask_;
};

/// One flat slot arena holding a fixed-capacity count table per item (per
/// column or per row) — the exemplar's reusable LocalBuffer idiom applied to
/// the grid path's c_w/c_d snapshots: geometry is computed once per corpus
/// (capacities depend only on item lengths and K), the slab is allocated
/// once, and a sweep just clears and refills it instead of re-initializing
/// a hash table per (block × item) visit.
///
/// Per-item capacity is HashCount's rule — the smallest power of two
/// > min(K, 2·len) — which also bounds patching: a table only ever holds
/// keys from the item's initial topics (≤ len distinct) plus move targets
/// (≤ len more), so ≤ min(K, 2·len) distinct keys ever exist and the fixed
/// capacity can neither overflow nor leave a probe chain unterminated.
struct CountArena {
  std::vector<HashCount::Entry> slots;
  std::vector<uint64_t> offset;  // item i's table is slots[offset[i],
                                 // offset[i+1]); capacity = the difference
  /// Item boundaries of the barrier tasks that rebuild the arena: task t
  /// covers items [ranges[t], ranges[t+1]). Set by SplitRanges.
  std::vector<uint32_t> ranges;
  bool ready = false;            // geometry matches the current corpus/K

  static uint32_t CapacityFor(uint32_t hint) {
    uint32_t cap = 4;
    while (cap <= hint) cap <<= 1;
    return cap;
  }

  /// Computes offsets and allocates the slab for `hints[i]` = the capacity
  /// hint (min(K, 2·len_i)) of each item. Does not clear the slots.
  void AllocateFromHints(const std::vector<uint32_t>& hints) {
    offset.assign(hints.size() + 1, 0);
    for (size_t i = 0; i < hints.size(); ++i) {
      offset[i + 1] = offset[i] + CapacityFor(hints[i]);
    }
    slots.resize(offset.back());
    ready = true;
  }

  /// Cuts the items into at most `num_tasks` contiguous ranges of about
  /// equal cost, item i costing its table capacity plus `lengths[i]` (its
  /// fill work): item lengths are Zipfian, so equal item counts would leave
  /// one task with the head items. Call after AllocateFromHints.
  void SplitRanges(const std::vector<uint32_t>& lengths, uint32_t num_tasks) {
    uint64_t total = offset.back();
    for (uint32_t len : lengths) total += len;
    ranges.assign(1, 0);
    uint64_t cost = 0;
    const uint32_t n = static_cast<uint32_t>(lengths.size());
    for (uint32_t i = 0; i + 1 < n; ++i) {
      cost += offset[i + 1] - offset[i] + lengths[i];
      if (cost * num_tasks >= total * ranges.size()) ranges.push_back(i + 1);
    }
    ranges.push_back(n);
  }

  /// Resets every table to empty (one linear pass over the slab).
  void ClearSlots() {
    std::fill(slots.begin(), slots.end(),
              HashCount::Entry{HashCount::kEmptyKey, 0});
  }

  /// Resets the tables of items [lo, hi) to empty.
  void ClearItems(uint32_t lo, uint32_t hi) {
    std::fill(slots.begin() + static_cast<std::ptrdiff_t>(offset[lo]),
              slots.begin() + static_cast<std::ptrdiff_t>(offset[hi]),
              HashCount::Entry{HashCount::kEmptyKey, 0});
  }

  FlatCounts view(uint32_t item) {
    return FlatCounts(
        slots.data() + offset[item],
        static_cast<uint32_t>(offset[item + 1] - offset[item] - 1));
  }
};

}  // namespace warplda

#endif  // WARPLDA_CORE_COUNT_ARENA_H_
