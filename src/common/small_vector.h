// Vector with small-buffer storage.
//
// Elements live in one contiguous array: inline up to InlineN, on the heap
// beyond (doubling).  Capacity is never given back, so a container that is
// cleared and refilled to its working-set size allocates nothing -- the
// property the DDB state tables rely on (see DESIGN.md, "DDB state layout").
// Returned by value, an InlineN-sized result costs no heap traffic at all,
// which is how the lock manager hands back grants and waiter snapshots.
//
// Restricted to trivially-copyable, default-constructible element types so
// growth and shifting stay simple copies; every id/record type it holds
// qualifies.
// cmh:hot-path -- steady-state detection path; lint enforces zero-alloc.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <type_traits>

namespace cmh {

template <typename T, std::size_t InlineN = 8>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>);
  static_assert(std::is_default_constructible_v<T>);
  static_assert(InlineN > 0);

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) {
    for (const T& v : init) push_back(v);
  }

  SmallVector(const SmallVector& other) { assign(other.data_, other.size_); }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) assign(other.data_, other.size_);
    return *this;
  }

  SmallVector(SmallVector&& other) noexcept { steal(other); }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this != &other) steal(other);
    return *this;
  }

  ~SmallVector() = default;

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return cap_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] T& operator[](std::size_t i) { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  void clear() { size_ = 0; }

  void push_back(const T& v) {
    const T copy = v;  // v may alias an element that growth moves
    if (size_ == cap_) reallocate(cap_ * 2);
    data_[size_++] = copy;
  }

  /// Inserts `v` before `pos`; returns an iterator to the new element.
  iterator insert(const_iterator pos, const T& v) {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    const T copy = v;  // v may alias an element about to move
    if (size_ == cap_) reallocate(cap_ * 2);
    std::copy_backward(data_ + idx, data_ + size_, data_ + size_ + 1);
    data_[idx] = copy;
    ++size_;
    return data_ + idx;
  }

  /// Removes the element at `pos`, keeping order; returns the next one.
  iterator erase(const_iterator pos) {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    std::copy(data_ + idx + 1, data_ + size_, data_ + idx);
    --size_;
    return data_ + idx;
  }

  /// Removes every element matching `pred`, keeping order.
  template <typename Pred>
  std::size_t erase_if(Pred pred) {
    T* last = std::remove_if(data_, data_ + size_, pred);
    const auto removed = static_cast<std::size_t>(data_ + size_ - last);
    size_ -= removed;
    return removed;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return a.size_ == b.size_ && std::equal(a.begin(), a.end(), b.begin());
  }

 private:
  void reallocate(std::size_t new_cap) {
    // Growth path only; steady state never reaches here.
    auto fresh = std::make_unique<T[]>(new_cap);  // lint:allow(hot-path-alloc)
    std::copy(data_, data_ + size_, fresh.get());
    heap_ = std::move(fresh);
    data_ = heap_.get();
    cap_ = new_cap;
  }

  void assign(const T* src, std::size_t n) {
    if (n > cap_) reallocate(n);
    std::copy(src, src + n, data_);
    size_ = n;
  }

  void steal(SmallVector& other) {
    if (other.heap_) {
      heap_ = std::move(other.heap_);
      data_ = heap_.get();
      cap_ = other.cap_;
      size_ = other.size_;
    } else {
      heap_.reset();
      data_ = inline_.data();
      cap_ = InlineN;
      std::copy(other.data_, other.data_ + other.size_, data_);
      size_ = other.size_;
    }
    other.heap_.reset();
    other.data_ = other.inline_.data();
    other.cap_ = InlineN;
    other.size_ = 0;
  }

  std::array<T, InlineN> inline_{};
  std::unique_ptr<T[]> heap_;
  T* data_{inline_.data()};
  std::size_t size_{0};
  std::size_t cap_{InlineN};
};

}  // namespace cmh
