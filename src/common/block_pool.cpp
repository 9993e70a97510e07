#include "common/block_pool.h"

#include <array>
#include <cstdint>

#if defined(__SANITIZE_ADDRESS__)
#define CMH_BLOCK_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CMH_BLOCK_POOL_ASAN 1
#endif
#endif
#ifdef CMH_BLOCK_POOL_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace cmh {
namespace {

void poison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef CMH_BLOCK_POOL_ASAN
  ASAN_POISON_MEMORY_REGION(p, n);
#endif
}

void unpoison([[maybe_unused]] void* p, [[maybe_unused]] std::size_t n) {
#ifdef CMH_BLOCK_POOL_ASAN
  ASAN_UNPOISON_MEMORY_REGION(p, n);
#endif
}

// Class index of a pooled request: 0 for 1 KiB, up to kClasses - 1.
std::size_t class_of(std::size_t bytes) {
  return static_cast<std::size_t>(
      std::bit_width(BlockPool::block_size(bytes) - 1) -
      std::bit_width(BlockPool::kMinBlock - 1));
}

std::size_t class_size(std::size_t cls) { return BlockPool::kMinBlock << cls; }

// One thread's cached blocks.  The destructor runs at thread exit and
// hands every block to operator delete.
struct Cache {
  std::array<std::array<void*, BlockPool::kBlocksPerClass>, BlockPool::kClasses>
      blocks{};
  std::array<std::uint8_t, BlockPool::kClasses> count{};

  Cache() = default;
  Cache(const Cache&) = delete;
  Cache& operator=(const Cache&) = delete;
  ~Cache();
};

thread_local Cache t_cache;
// Set once t_cache has been destroyed.  Trivially destructible, so other
// thread_local objects destroyed later on the thread can still read it.
constinit thread_local bool t_closed = false;

Cache::~Cache() {
  for (std::size_t c = 0; c < BlockPool::kClasses; ++c) {
    for (std::size_t i = 0; i < count[c]; ++i) {
      unpoison(blocks[c][i], class_size(c));
      ::operator delete(blocks[c][i]);
    }
    count[c] = 0;
  }
  t_closed = true;
}

// Poisons the part of a `size`-byte block past the `bytes` handed out.
void hand_out(void* block, std::size_t bytes, std::size_t size) {
  poison(static_cast<std::byte*>(block) + bytes, size - bytes);
}

}  // namespace

void* BlockPool::allocate(std::size_t bytes) {
  if (!pooled(bytes)) return ::operator new(bytes);
  const std::size_t cls = class_of(bytes);
  const std::size_t size = class_size(cls);
  void* block = nullptr;
  if (!t_closed && t_cache.count[cls] > 0) {
    block = t_cache.blocks[cls][--t_cache.count[cls]];
    unpoison(block, size);
  } else {
    block = ::operator new(size);
  }
  hand_out(block, bytes, size);
  return block;
}

void BlockPool::deallocate(void* block, std::size_t bytes) noexcept {
  if (block == nullptr) return;
  if (!pooled(bytes)) {
    ::operator delete(block);
    return;
  }
  const std::size_t cls = class_of(bytes);
  const std::size_t size = class_size(cls);
  if (t_closed || t_cache.count[cls] == kBlocksPerClass) {
    unpoison(block, size);
    ::operator delete(block);
    return;
  }
  poison(block, size);
  t_cache.blocks[cls][t_cache.count[cls]++] = block;
}

std::size_t BlockPool::cached(std::size_t bytes) {
  if (!pooled(bytes) || t_closed) return 0;
  return t_cache.count[class_of(bytes)];
}

}  // namespace cmh
