#ifndef WARPLDA_UTIL_HASH_COUNT_H_
#define WARPLDA_UTIL_HASH_COUNT_H_

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>  // NOLINT(warplint-naked-new): for std::bad_alloc only
#include <vector>

namespace warplda {

/// 64-byte aligned storage for HashCount's slots (and for the dense count
/// arrays that stand in for it): a table of 2^n 8-byte slots then covers
/// exactly its own cache lines wherever the heap puts it, so its footprint
/// (and a cache tracer's count of it) depends on its size only, never on
/// allocator state.
template <typename T>
struct CacheLineAllocator {
  using value_type = T;
  CacheLineAllocator() = default;
  template <typename U>
  CacheLineAllocator(const CacheLineAllocator<U>&) {}
  T* allocate(size_t n) {
    // aligned_alloc takes a size that is a multiple of the alignment.
    void* p = std::aligned_alloc(64, (n * sizeof(T) + 63) / 64 * 64);
    if (p == nullptr) throw std::bad_alloc();
    return static_cast<T*>(p);
  }
  void deallocate(T* p, size_t) { std::free(p); }
  bool operator==(const CacheLineAllocator&) const { return true; }
};

/// Open-addressing hash table from topic id to count, specialized for the
/// per-document / per-word count vectors c_d and c_w (paper §5.4).
///
/// Keys are topic ids in [0, 2^32-2]; values are non-negative counts. Linear
/// probing, power-of-two capacity, hash is a multiplicative mix. Capacity is
/// chosen as the smallest power of two larger than min(K, 2L) as in the paper,
/// so the table stays small enough to live in cache even when K is large.
/// Where a direct-indexed K-vector of 4-byte counts would be no larger than
/// that table, the paper uses the vector instead; DenseIsNoLarger() is that
/// rule, computed from the same CapacityFor() that Init() sizes by, and
/// WarpLdaSampler counts such items in a dense array rather than here.
///
/// Entries are never physically removed: a decremented-to-zero slot keeps its
/// key so probe chains stay intact. The table is intended to be built, used
/// for one document/word, and Clear()ed — exactly the WarpLDA access pattern.
class HashCount {
 public:
  struct Entry {
    uint32_t key;
    int32_t value;
  };
  using Slots = std::vector<Entry, CacheLineAllocator<Entry>>;

  static constexpr uint32_t kEmptyKey = 0xFFFFFFFFu;

  HashCount() = default;

  /// Initializes with capacity = smallest power of two > max(2, capacity_hint).
  explicit HashCount(uint32_t capacity_hint) { Init(capacity_hint); }

  /// Slot capacity Init(capacity_hint) picks: the smallest power of two
  /// larger than capacity_hint, and at least 4.
  static uint32_t CapacityFor(uint32_t capacity_hint) {
    uint32_t cap = 4;
    while (cap <= capacity_hint) cap <<= 1;
    return cap;
  }

  /// The dense-or-hash rule: true when a direct-indexed array of
  /// `num_keys` int32_t counts takes no more bytes than the table
  /// Init(capacity_hint) would allocate.
  static bool DenseIsNoLarger(uint32_t num_keys, uint32_t capacity_hint) {
    return uint64_t{sizeof(int32_t)} * num_keys <=
           uint64_t{sizeof(Entry)} * CapacityFor(capacity_hint);
  }

  /// (Re-)initializes the table; all counts become zero.
  void Init(uint32_t capacity_hint) {
    const uint32_t cap = CapacityFor(capacity_hint);
    mask_ = cap - 1;
    slots_.assign(cap, Entry{kEmptyKey, 0});
    size_ = 0;
  }

  /// Removes all entries, keeping capacity.
  void Clear() {
    for (auto& s : slots_) s = Entry{kEmptyKey, 0};
    size_ = 0;
  }

  /// Adds `delta` to the count of `key` (inserting it at zero first if absent)
  /// and returns the new count. Grows when load factor reaches 3/4.
  int32_t Add(uint32_t key, int32_t delta) {
    uint32_t i = FindSlot(key);
    if (slots_[i].key == kEmptyKey) {
      if ((size_ + 1) * 4 > (mask_ + 1) * 3) {
        Grow();
        i = FindSlot(key);
      }
      slots_[i] = Entry{key, 0};
      ++size_;
    }
    slots_[i].value += delta;
    return slots_[i].value;
  }

  /// Increments key's count by one; returns the new count.
  int32_t Inc(uint32_t key) { return Add(key, 1); }

  /// Decrements key's count by one; returns the new count. The key must be
  /// present (counts never go negative in correct sampler code; this is not
  /// checked on the hot path).
  int32_t Dec(uint32_t key) { return Add(key, -1); }

  /// Returns the count of `key`, or 0 if absent.
  int32_t Get(uint32_t key) const {
    uint32_t i = FindSlot(key);
    return slots_[i].key == kEmptyKey ? 0 : slots_[i].value;
  }

  /// Number of distinct keys ever inserted (slots with value 0 included).
  uint32_t size() const { return size_; }

  /// Current slot capacity (power of two).
  uint32_t capacity() const { return mask_ + 1; }

  /// Raw slot access for iteration: skip entries with key == kEmptyKey.
  const Slots& slots() const { return slots_; }

  /// Approximate memory address of the slot `key` hashes to. Used by the
  /// cache-tracing instrumentation (cachesim) to replay this table's access
  /// pattern; not needed for normal operation.
  uintptr_t SlotAddr(uint32_t key) const {
    return reinterpret_cast<uintptr_t>(slots_.data() + (Hash(key) & mask_));
  }

  /// Invokes f(key, value) for every entry with value != 0.
  template <typename F>
  void ForEachNonZero(F&& f) const {
    for (const auto& s : slots_) {
      if (s.key != kEmptyKey && s.value != 0) f(s.key, s.value);
    }
  }

 private:
  static uint32_t Hash(uint32_t key) {
    // Fibonacci multiplicative hash; cheap and well-spread for small ints.
    return key * 2654435761u;
  }

  uint32_t FindSlot(uint32_t key) const {
    uint32_t i = Hash(key) & mask_;
    while (slots_[i].key != kEmptyKey && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  void Grow() {
    Slots old = std::move(slots_);
    uint32_t new_cap = (mask_ + 1) * 2;
    mask_ = new_cap - 1;
    slots_.assign(new_cap, Entry{kEmptyKey, 0});
    size_ = 0;
    for (const auto& s : old) {
      if (s.key != kEmptyKey) {
        uint32_t i = FindSlot(s.key);
        slots_[i] = s;
        ++size_;
      }
    }
  }

  Slots slots_;
  uint32_t mask_ = 0;
  uint32_t size_ = 0;
};

}  // namespace warplda

#endif  // WARPLDA_UTIL_HASH_COUNT_H_
