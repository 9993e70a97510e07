// Sorted flat set with small-buffer storage.
//
// Elements live in one contiguous sorted SmallVector: inline up to InlineN,
// on the heap beyond.  Lookup is binary search, iteration is a linear scan of
// contiguous memory, and steady-state mutation never allocates once capacity
// has reached the working-set size -- exactly the access pattern of the
// per-process edge sets (probe fan-out iterates them on every forwarded
// probe, and typical degrees are tiny).
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <algorithm>
#include <cstddef>
#include <initializer_list>

#include "common/small_vector.h"

namespace cmh {

template <typename T, std::size_t InlineN = 8>
class FlatSet {
 public:
  using value_type = T;
  using const_iterator = const T*;

  FlatSet() = default;

  FlatSet(std::initializer_list<T> init) {
    for (const T& v : init) insert(v);
  }

  [[nodiscard]] std::size_t size() const { return items_.size(); }
  [[nodiscard]] bool empty() const { return items_.empty(); }
  [[nodiscard]] const_iterator begin() const { return items_.begin(); }
  [[nodiscard]] const_iterator end() const { return items_.end(); }

  void clear() { items_.clear(); }

  [[nodiscard]] bool contains(const T& v) const {
    const T* pos = std::lower_bound(begin(), end(), v);
    return pos != end() && *pos == v;
  }

  /// Inserts `v` at its sorted position; returns false if already present.
  bool insert(const T& v) {
    const T* pos = std::lower_bound(begin(), end(), v);
    if (pos != end() && *pos == v) return false;
    items_.insert(pos, v);
    return true;
  }

  template <typename It>
  void insert(It first, It last) {
    for (; first != last; ++first) insert(*first);
  }

  /// Removes `v`; returns false if absent.
  bool erase(const T& v) {
    const T* pos = std::lower_bound(begin(), end(), v);
    if (pos == end() || !(*pos == v)) return false;
    items_.erase(pos);
    return true;
  }

  friend bool operator==(const FlatSet& a, const FlatSet& b) {
    return a.items_ == b.items_;
  }

 private:
  SmallVector<T, InlineN> items_;
};

}  // namespace cmh
