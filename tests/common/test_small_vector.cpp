// SmallVector: the inline-storage vector behind FlatSet and the DDB state
// tables.  Validated against std::vector as the reference model, across the
// inline/heap boundary and with aliasing arguments.
#include "common/small_vector.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace cmh {
namespace {

template <typename T, std::size_t N>
std::vector<T> items(const SmallVector<T, N>& v) {
  return {v.begin(), v.end()};
}

TEST(SmallVector, StartsEmptyWithInlineCapacity) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
  EXPECT_EQ(v.capacity(), 4u);
  EXPECT_EQ(v.begin(), v.end());
}

TEST(SmallVector, PushBackGrowsPastInlineCapacity) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 10; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 10u);
  EXPECT_GE(v.capacity(), 10u);
  EXPECT_EQ(items(v), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
  EXPECT_EQ(v.back(), 9);
}

TEST(SmallVector, PushBackOfOwnElementAtCapacity) {
  SmallVector<int, 2> v{7, 8};
  v.push_back(v[0]);  // growth moves the element being copied
  EXPECT_EQ(items(v), (std::vector<int>{7, 8, 7}));
  v.insert(v.begin(), v[2]);
  EXPECT_EQ(items(v), (std::vector<int>{7, 7, 8, 7}));
}

TEST(SmallVector, InsertAndEraseKeepOrder) {
  SmallVector<int, 4> v{1, 3};
  EXPECT_EQ(*v.insert(v.begin() + 1, 2), 2);
  v.insert(v.end(), 4);
  v.insert(v.begin(), 0);  // crosses to the heap
  EXPECT_EQ(items(v), (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(*v.erase(v.begin() + 2), 3);
  EXPECT_EQ(items(v), (std::vector<int>{0, 1, 3, 4}));
  EXPECT_EQ(v.erase_if([](int x) { return x % 2 == 1; }), 2u);
  EXPECT_EQ(items(v), (std::vector<int>{0, 4}));
}

TEST(SmallVector, ClearKeepsCapacity) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  const std::size_t cap = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), cap);
  v.push_back(42);
  EXPECT_EQ(items(v), (std::vector<int>{42}));
}

TEST(SmallVector, CopyAndMovePreserveContents) {
  for (const int n : {3, 9}) {  // inline and heap storage
    SmallVector<int, 4> original;
    for (int i = 0; i < n; ++i) original.push_back(i);
    SmallVector<int, 4> copy(original);
    EXPECT_EQ(copy, original);
    copy.push_back(99);
    EXPECT_FALSE(copy == original);  // deep copy, not aliased

    SmallVector<int, 4> moved(std::move(copy));
    EXPECT_EQ(moved.size(), static_cast<std::size_t>(n) + 1);
    EXPECT_EQ(moved.back(), 99);

    SmallVector<int, 4> assigned;
    assigned = original;
    EXPECT_EQ(assigned, original);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.back(), 99);
    EXPECT_EQ(assigned.size(), static_cast<std::size_t>(n) + 1);
  }
}

TEST(SmallVector, RandomizedAgainstStdVector) {
  Rng rng(0x5A11u);
  SmallVector<std::uint32_t, 4> small;
  std::vector<std::uint32_t> reference;
  for (int step = 0; step < 3000; ++step) {
    const auto v = static_cast<std::uint32_t>(rng.below(1000));
    switch (rng.below(4)) {
      case 0:
        small.push_back(v);
        reference.push_back(v);
        break;
      case 1: {
        const std::size_t at = rng.below(reference.size() + 1);
        small.insert(small.begin() + at, v);
        reference.insert(reference.begin() + static_cast<std::ptrdiff_t>(at),
                         v);
        break;
      }
      case 2:
        if (!reference.empty()) {
          const std::size_t at = rng.below(reference.size());
          small.erase(small.begin() + at);
          reference.erase(reference.begin() + static_cast<std::ptrdiff_t>(at));
        }
        break;
      default:
        if (rng.below(8) == 0) {
          small.clear();
          reference.clear();
        }
        break;
    }
    ASSERT_EQ(items(small), reference);
  }
}

}  // namespace
}  // namespace cmh
