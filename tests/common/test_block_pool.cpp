#include "common/block_pool.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <thread>
#include <vector>

namespace cmh {
namespace {

// Runs `fn` on a new thread, whose cache starts empty, and joins it.
template <typename F>
void on_fresh_thread(F&& fn) {
  std::thread t(std::forward<F>(fn));
  t.join();
}

TEST(BlockPool, RoundsPooledRequestsToPowerOfTwoClasses) {
  EXPECT_FALSE(BlockPool::pooled(512));
  EXPECT_TRUE(BlockPool::pooled(513));
  EXPECT_TRUE(BlockPool::pooled(64 * 1024));
  EXPECT_FALSE(BlockPool::pooled(64 * 1024 + 1));
  EXPECT_EQ(BlockPool::block_size(100), 100u);
  EXPECT_EQ(BlockPool::block_size(513), 1024u);
  EXPECT_EQ(BlockPool::block_size(1024), 1024u);
  EXPECT_EQ(BlockPool::block_size(1025), 2048u);
  EXPECT_EQ(BlockPool::block_size(2944), 4096u);
  EXPECT_EQ(BlockPool::block_size(64 * 1024), 64u * 1024);
  EXPECT_EQ(BlockPool::block_size(100'000), 100'000u);
  EXPECT_EQ(BlockPool::kClasses, 7u);
}

TEST(BlockPool, ReusesAFreedBlockOfTheSameClass) {
  on_fresh_thread([] {
    void* const a = BlockPool::allocate(3000);
    EXPECT_EQ(BlockPool::cached(3000), 0u);
    BlockPool::deallocate(a, 3000);
    EXPECT_EQ(BlockPool::cached(3000), 1u);
    EXPECT_EQ(BlockPool::cached(4096), 1u);  // the same 4 KiB class
    EXPECT_EQ(BlockPool::cached(2048), 0u);
    // Any request of the class gets the block back, and the whole class
    // size is usable.
    auto* const b = static_cast<std::byte*>(BlockPool::allocate(4096));
    EXPECT_EQ(b, a);
    EXPECT_EQ(BlockPool::cached(4096), 0u);
    b[4095] = std::byte{1};
    BlockPool::deallocate(b, 4096);
  });
}

TEST(BlockPool, SmallAndLargeRequestsBypassTheCache) {
  on_fresh_thread([] {
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{512},
                                    std::size_t{128 * 1024}}) {
      BlockPool::deallocate(BlockPool::allocate(bytes), bytes);
      EXPECT_EQ(BlockPool::cached(bytes), 0u) << bytes;
    }
  });
}

TEST(BlockPool, CapsEachClass) {
  on_fresh_thread([] {
    constexpr std::size_t kBytes = 8192;
    std::vector<void*> blocks;
    for (std::size_t i = 0; i < BlockPool::kBlocksPerClass + 4; ++i) {
      blocks.push_back(BlockPool::allocate(kBytes));
    }
    for (void* b : blocks) BlockPool::deallocate(b, kBytes);
    // The four past the cap went to operator delete.
    EXPECT_EQ(BlockPool::cached(kBytes), BlockPool::kBlocksPerClass);
    EXPECT_EQ(BlockPool::cached(kBytes / 2), 0u);
  });
}

TEST(BlockPool, ABlockFreedOnAnotherThreadJoinsThatThreadsCache) {
  on_fresh_thread([] {
    void* const block = BlockPool::allocate(2048);
    on_fresh_thread([block] {
      BlockPool::deallocate(block, 2048);
      EXPECT_EQ(BlockPool::cached(2048), 1u);
      EXPECT_EQ(BlockPool::allocate(2048), block);
      BlockPool::deallocate(block, 2048);
      // Left cached: this thread's exit frees it.
    });
    EXPECT_EQ(BlockPool::cached(2048), 0u);
  });
}

// What a thread_local object destroyed after the cache sees of it.
struct AfterDrain {
  std::size_t cached_before_exit{0};
  std::size_t cached_at_exit{~std::size_t{0}};
  std::size_t cached_after_late_free{~std::size_t{0}};
};
AfterDrain g_after_drain;

// Constructed before the thread's first BlockPool call, so destroyed after
// the cache: it runs once the cache has been emptied.
struct LateFreer {
  void* block{nullptr};
  ~LateFreer() {
    g_after_drain.cached_at_exit = BlockPool::cached(1024);
    BlockPool::deallocate(block, 1024);
    g_after_drain.cached_after_late_free = BlockPool::cached(1024);
  }
};

TEST(BlockPool, DrainsAtThreadExit) {
  // Under LeakSanitizer a cache left undrained is reported as leaked: the
  // thread that held it is gone.
  g_after_drain = AfterDrain{};
  on_fresh_thread([] {
    thread_local LateFreer late;
    late.block = BlockPool::allocate(1024);
    std::vector<void*> blocks;
    for (int i = 0; i < 3; ++i) blocks.push_back(BlockPool::allocate(1000));
    for (void* b : blocks) BlockPool::deallocate(b, 1000);
    g_after_drain.cached_before_exit = BlockPool::cached(1024);
  });
  EXPECT_EQ(g_after_drain.cached_before_exit, 3u);
  EXPECT_EQ(g_after_drain.cached_at_exit, 0u);
  // Freed after the drain: straight to operator delete.
  EXPECT_EQ(g_after_drain.cached_after_late_free, 0u);
}

TEST(PooledVector, GrowsAndCopiesLikeAVector) {
  on_fresh_thread([] {
    PooledVector<std::uint64_t> v;
    for (std::uint64_t i = 0; i < 1000; ++i) v.push_back(i);  // to 8 KiB
    PooledVector<std::uint64_t> w = v;
    EXPECT_EQ(w, v);
    const void* const first = w.data();
    w = {};
    w.shrink_to_fit();
    // Growth freed the 1, 2 and 4 KiB blocks and w's 8 KiB one.
    EXPECT_EQ(BlockPool::cached(1024), 1u);
    EXPECT_EQ(BlockPool::cached(2048), 1u);
    EXPECT_EQ(BlockPool::cached(4096), 1u);
    EXPECT_EQ(BlockPool::cached(8192), 1u);
    PooledVector<std::uint64_t> x(1000);
    EXPECT_EQ(x.data(), first);
  });
}

#if defined(__SANITIZE_ADDRESS__)
#define CMH_TEST_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define CMH_TEST_ASAN 1
#endif
#endif

#ifdef CMH_TEST_ASAN
// AddressSanitizer builds only: a cached block is poisoned, so a pointer
// kept across a table's growth is still reported when it is used.
TEST(BlockPoolDeathTest, AStalePointerIntoAGrownTableIsReported) {
  EXPECT_DEATH(
      {
        PooledVector<std::uint32_t> table(300);  // a 2 KiB block
        volatile std::uint32_t* stale = table.data();
        table.resize(5000);  // the 2 KiB block goes back to the cache
        stale[7] = 1;
      },
      "use-after-poison");
}
#endif

}  // namespace
}  // namespace cmh
