// Per-thread cache of mid-sized heap blocks, and a std::allocator stand-in
// over it.
//
// glibc merges every parked small chunk ("fastbins") into its free lists
// the next time a thread asks for a block above the small-bin range (about
// 1 KiB): one such request pays for all the small frees before it.  The
// simulator's and controllers' tables are exactly such blocks, and a
// ddb::Cluster builds and grows them for every episode, so without a cache
// each episode's set-up and first growths pay for the previous episode's
// teardown (DESIGN.md section 4e).
//
// BlockPool keeps freed blocks of 1 KiB to 64 KiB per thread instead:
//   * A request of more than 512 B and at most 64 KiB is rounded up to a
//     power-of-two class, 1 KiB to 64 KiB.  Every other request goes
//     straight to operator new.
//   * A freed block goes back to the freeing thread's cache, up to
//     kBlocksPerClass blocks per class; beyond that, to operator delete.
//   * A thread's cache is emptied when the thread exits.  A block freed on
//     that thread after this goes to operator delete.
//   * Under AddressSanitizer a cached block is poisoned, so an access
//     through a stale pointer into a table that has since grown, or been
//     destroyed, is still reported.
// The cache is per thread, not per owner: it must outlive the Cluster whose
// blocks it keeps, so the next Cluster on the thread finds them.  A block
// may be freed on another thread than the one that allocated it; it joins
// that thread's cache.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <memory>
#include <new>
#include <vector>

namespace cmh {

class BlockPool {
 public:
  static constexpr std::size_t kMinBlock = std::size_t{1} << 10;  // 1 KiB
  static constexpr std::size_t kMaxBlock = std::size_t{1} << 16;  // 64 KiB
  static constexpr std::size_t kClasses =
      std::bit_width(kMaxBlock) - std::bit_width(kMinBlock) + 1;
  static constexpr std::size_t kBlocksPerClass = 16;

  /// True iff requests of `bytes` are served from the cache.
  [[nodiscard]] static constexpr bool pooled(std::size_t bytes) {
    return bytes > kMinBlock / 2 && bytes <= kMaxBlock;
  }

  /// The size of the block a request of `bytes` gets: its class for a
  /// pooled request, `bytes` itself otherwise.
  [[nodiscard]] static constexpr std::size_t block_size(std::size_t bytes) {
    return pooled(bytes) ? std::max(kMinBlock, std::bit_ceil(bytes)) : bytes;
  }

  /// A block of at least `bytes` bytes, aligned for any fundamental type.
  [[nodiscard]] static void* allocate(std::size_t bytes);

  /// Returns a block from allocate(bytes) with the same `bytes`.
  static void deallocate(void* block, std::size_t bytes) noexcept;

  /// Blocks of `bytes`'s class cached on the calling thread (0 for a
  /// request that is not pooled).
  [[nodiscard]] static std::size_t cached(std::size_t bytes);
};

/// Stateless allocator over BlockPool: every instance is interchangeable,
/// so containers move and swap as with std::allocator.  An over-aligned
/// T keeps std::allocator's aligned path.
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& /*other*/) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      return std::allocator<T>{}.allocate(n);
    } else {
      if (n > static_cast<std::size_t>(-1) / sizeof(T)) {
        throw std::bad_array_new_length();
      }
      return static_cast<T*>(BlockPool::allocate(n * sizeof(T)));
    }
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if constexpr (alignof(T) > __STDCPP_DEFAULT_NEW_ALIGNMENT__) {
      std::allocator<T>{}.deallocate(p, n);
    } else {
      BlockPool::deallocate(p, n * sizeof(T));
    }
  }

  friend bool operator==(const PoolAllocator& /*a*/,
                         const PoolAllocator& /*b*/) noexcept {
    return true;
  }
};

template <typename T>
using PooledVector = std::vector<T, PoolAllocator<T>>;

}  // namespace cmh
