// Open-addressing hash containers for the simulator's hot paths.
//
// The surveillance pipeline (flow records, per-source classifier state,
// per-user alert ledgers) used to key std::map on 5-tuples and
// addresses; at population scale those rb-tree walks dominate the tap
// cost. FlatMap/FlatSet are linear-probing, power-of-two tables with
// tombstone deletion: O(1) expected find/insert/erase, one contiguous
// allocation, no per-node malloc.
//
// Determinism contract: the hash is our own (a splitmix64 finalizer over
// the key bytes — never std::hash, whose value is unspecified and may be
// seeded per-process), so table iteration order is a pure function of
// the insertion/erase history. Anything exported to JSON/Prometheus is
// still sorted at export time (see flowrecords.cpp), so byte-identical
// output never depends on table order in the first place.
//
// Requirements on K and V: default-constructible, copy/move-assignable,
// and default construction must not allocate: every slot, empty ones
// included, holds a default-constructed pair, so a V that allocates on
// construction (std::deque does, ~600 B) costs that much per slot of
// capacity, not per entry. Every key in this project is a small POD
// (addresses, tuples, ints).
#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace sm::common {

/// SplitMix64 finalizer: a fast, well-mixed 64->64 bijection.
constexpr uint64_t hash_mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combines an accumulated hash with another word (boost-style, 64-bit).
constexpr uint64_t hash_combine(uint64_t seed, uint64_t v) {
  return seed ^ (hash_mix(v) + 0x9e3779b97f4a7c15ULL + (seed << 6) +
                 (seed >> 2));
}

/// Default hasher: integral keys and anything exposing a
/// `uint64_t hash_value() const` or `uint32_t value() const` (Ipv4Address).
struct DefaultFlatHash {
  template <typename K>
  uint64_t operator()(const K& k) const {
    if constexpr (std::is_integral_v<K>) {
      return hash_mix(static_cast<uint64_t>(k));
    } else if constexpr (requires { k.hash_value(); }) {
      return hash_mix(k.hash_value());
    } else {
      return hash_mix(static_cast<uint64_t>(k.value()));
    }
  }
};

/// Linear-probing open-addressing map. Not thread-safe (one per worker,
/// like every container in the single-threaded sim core).
template <typename K, typename V, typename Hash = DefaultFlatHash>
class FlatMap {
  enum : uint8_t { kEmpty = 0, kFull = 1, kTombstone = 2 };

 public:
  FlatMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    ctrl_.clear();
    slots_.clear();
    size_ = 0;
    used_ = 0;
  }

  void reserve(size_t n) {
    size_t want = required_capacity(n);
    if (want > capacity()) rehash(want);
  }

  V* find(const K& key) {
    size_t i = find_index(key);
    return i == npos ? nullptr : &slots_[i].second;
  }
  const V* find(const K& key) const {
    size_t i = find_index(key);
    return i == npos ? nullptr : &slots_[i].second;
  }
  bool contains(const K& key) const { return find_index(key) != npos; }

  /// Inserts a default-constructed value if absent. Returns
  /// (value pointer, inserted).
  std::pair<V*, bool> try_emplace(const K& key) {
    grow_if_needed();
    const size_t mask = capacity() - 1;
    size_t i = hash_(key) & mask;
    size_t first_tomb = npos;
    for (;;) {
      if (ctrl_[i] == kFull) {
        if (slots_[i].first == key) return {&slots_[i].second, false};
      } else if (ctrl_[i] == kTombstone) {
        if (first_tomb == npos) first_tomb = i;
      } else {  // empty: not present
        size_t at = first_tomb != npos ? first_tomb : i;
        if (at == i) ++used_;  // tombstones are already counted in used_
        ctrl_[at] = kFull;
        slots_[at].first = key;
        slots_[at].second = V{};
        ++size_;
        return {&slots_[at].second, true};
      }
      i = (i + 1) & mask;
    }
  }

  V& operator[](const K& key) { return *try_emplace(key).first; }

  bool erase(const K& key) {
    size_t i = find_index(key);
    if (i == npos) return false;
    ctrl_[i] = kTombstone;
    slots_[i] = {};  // drop held resources now, not at rehash
    --size_;
    return true;
  }

  /// Visits every element (table order — deterministic but meaningless;
  /// sort afterwards if order reaches an output).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (size_t i = 0; i < ctrl_.size(); ++i)
      if (ctrl_[i] == kFull) fn(slots_[i].first, slots_[i].second);
  }
  template <typename Fn>
  void for_each(Fn&& fn) {
    for (size_t i = 0; i < ctrl_.size(); ++i)
      if (ctrl_[i] == kFull) fn(slots_[i].first, slots_[i].second);
  }

  /// Erases every element for which `pred(key, value)` returns true
  /// (tombstoning is safe mid-scan). Returns how many were erased.
  template <typename Pred>
  size_t erase_if(Pred&& pred) {
    size_t erased = 0;
    for (size_t i = 0; i < ctrl_.size(); ++i) {
      if (ctrl_[i] == kFull && pred(slots_[i].first, slots_[i].second)) {
        ctrl_[i] = kTombstone;
        slots_[i] = {};
        --size_;
        ++erased;
      }
    }
    return erased;
  }

  size_t capacity() const { return ctrl_.size(); }

 private:
  static constexpr size_t npos = SIZE_MAX;
  static constexpr size_t kMinCapacity = 16;

  static size_t required_capacity(size_t n) {
    // Keep load (incl. tombstones) under 7/8.
    size_t cap = kMinCapacity;
    while (cap - cap / 8 < n + 1) cap <<= 1;
    return cap;
  }

  size_t find_index(const K& key) const {
    if (ctrl_.empty()) return npos;
    const size_t mask = capacity() - 1;
    size_t i = hash_(key) & mask;
    for (;;) {
      if (ctrl_[i] == kFull) {
        if (slots_[i].first == key) return i;
      } else if (ctrl_[i] == kEmpty) {
        return npos;
      }
      i = (i + 1) & mask;
    }
  }

  void grow_if_needed() {
    if (ctrl_.empty()) {
      rehash(kMinCapacity);
      return;
    }
    // used_ counts full + tombstone slots; growing on that keeps probe
    // chains short even under churny insert/erase workloads. If live
    // entries alone would fit at half load, same-size rehash just
    // scrubs tombstones instead of doubling.
    if (used_ + 1 > capacity() - capacity() / 8) {
      rehash(size_ + 1 <= capacity() / 2 ? capacity() : capacity() * 2);
    }
  }

  void rehash(size_t new_cap) {
    std::vector<uint8_t> old_ctrl = std::move(ctrl_);
    std::vector<std::pair<K, V>> old_slots = std::move(slots_);
    ctrl_.assign(new_cap, kEmpty);
    slots_.assign(new_cap, {});
    used_ = size_;
    const size_t mask = new_cap - 1;
    for (size_t i = 0; i < old_ctrl.size(); ++i) {
      if (old_ctrl[i] != kFull) continue;
      size_t j = hash_(old_slots[i].first) & mask;
      while (ctrl_[j] == kFull) j = (j + 1) & mask;
      ctrl_[j] = kFull;
      slots_[j] = std::move(old_slots[i]);
    }
  }

  std::vector<uint8_t> ctrl_;
  std::vector<std::pair<K, V>> slots_;
  size_t size_ = 0;  // live entries
  size_t used_ = 0;  // full + tombstone slots
  [[no_unique_address]] Hash hash_;
};

/// Open-addressing set over the same machinery.
template <typename K, typename Hash = DefaultFlatHash>
class FlatSet {
  struct Unit {};

 public:
  size_t size() const { return map_.size(); }
  bool empty() const { return map_.empty(); }
  void clear() { map_.clear(); }
  void reserve(size_t n) { map_.reserve(n); }
  bool contains(const K& key) const { return map_.contains(key); }
  /// Returns true if the key was newly inserted.
  bool insert(const K& key) { return map_.try_emplace(key).second; }
  bool erase(const K& key) { return map_.erase(key); }

 private:
  FlatMap<K, Unit, Hash> map_;
};

}  // namespace sm::common
