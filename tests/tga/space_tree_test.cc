#include "tga/space_tree.h"

#include <gtest/gtest.h>

#include <numeric>
#include <unordered_set>

#include "net/rng.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

Ipv6Addr addr_n(std::uint64_t hi_low, std::uint64_t lo) {
  return Ipv6Addr(0x2001000000000000ULL | hi_low, lo);
}

TEST(RegionCursor, EnumeratesOdometer) {
  // Free positions 30 and 31: counter spins the last nybble fastest.
  RegionCursor cursor(addr_n(0, 0), {30, 31});
  EXPECT_EQ(cursor.capacity(), 256u);
  std::vector<Ipv6Addr> seen;
  for (int i = 0; i < 18; ++i) {
    auto a = cursor.next();
    ASSERT_TRUE(a.has_value());
    seen.push_back(*a);
  }
  EXPECT_EQ(seen[0].lo(), 0x00u);
  EXPECT_EQ(seen[1].lo(), 0x01u);
  EXPECT_EQ(seen[15].lo(), 0x0fu);
  EXPECT_EQ(seen[16].lo(), 0x10u);
  EXPECT_EQ(seen[17].lo(), 0x11u);
}

TEST(RegionCursor, BaseFreePositionsZeroed) {
  RegionCursor cursor(addr_n(0, 0xab), {31});
  // Base nybble 31 zeroed: enumeration starts at ...a0.
  auto first = cursor.next();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->lo(), 0xa0u);
}

TEST(RegionCursor, ExhaustsExactlyCapacity) {
  RegionCursor cursor(addr_n(0, 0), {31});
  std::unordered_set<Ipv6Addr> seen;
  while (auto a = cursor.next()) {
    EXPECT_TRUE(seen.insert(*a).second);  // no duplicates
  }
  EXPECT_EQ(seen.size(), 16u);
  EXPECT_TRUE(cursor.exhausted());
}

TEST(RegionCursor, ExtendAddsRightmostFixedPosition) {
  RegionCursor cursor(addr_n(0, 0), {31});
  while (cursor.next()) {
  }
  ASSERT_TRUE(cursor.extend());
  EXPECT_EQ(cursor.capacity(), 256u);
  EXPECT_EQ(cursor.free_nybbles(), (std::vector<int>{30, 31}));
  // Enumeration restarted over the enlarged space.
  std::size_t count = 0;
  while (cursor.next()) ++count;
  EXPECT_EQ(count, 256u);
}

TEST(RegionCursor, ExtendFailsWhenFullyFree) {
  std::vector<int> all(32);
  std::iota(all.begin(), all.end(), 0);
  RegionCursor cursor(addr_n(0, 0), all);
  EXPECT_FALSE(cursor.extend());
}

TEST(RangeCursor, EnumeratesValueSets) {
  RangeCursor cursor(addr_n(0, 0), {30, 31},
                     {{0x1, 0x2}, {0x0, 0x5, 0xa}});
  EXPECT_EQ(cursor.capacity(), 6u);
  std::vector<std::uint64_t> lows;
  while (auto a = cursor.next()) lows.push_back(a->lo());
  EXPECT_EQ(lows, (std::vector<std::uint64_t>{0x10, 0x15, 0x1a, 0x20, 0x25,
                                              0x2a}));
}

TEST(RangeCursor, WidenAddsAdjacentValueToNarrowestPosition) {
  RangeCursor cursor(addr_n(0, 0), {30, 31}, {{0x1}, {0x2, 0x3}});
  while (cursor.next()) {
  }
  ASSERT_TRUE(cursor.widen());
  // Position 30 (narrowest) gains value 0x2.
  EXPECT_EQ(cursor.capacity(), 4u);
  std::unordered_set<Ipv6Addr> seen;
  while (auto a = cursor.next()) seen.insert(*a);
  EXPECT_TRUE(seen.contains(addr_n(0, 0x22)));
}

TEST(RangeCursor, WidenExhaustsAtFullRange) {
  std::vector<std::uint8_t> all16(16);
  std::iota(all16.begin(), all16.end(), 0);
  RangeCursor cursor(addr_n(0, 0), {31}, {all16});
  EXPECT_FALSE(cursor.widen());
}

TEST(SpaceTree, RegionFreePositionsFollowMask) {
  TreeRegion region;
  region.free_mask = (1u << 31) | (1u << 3) | (1u << 17);
  EXPECT_EQ(region.free(), (std::vector<int>{3, 17, 31}));
  EXPECT_EQ(region.free_count(), 3);
}

TEST(SpaceTree, EmptySeedsYieldNoRegions) {
  const SpaceTree tree({}, {});
  EXPECT_TRUE(tree.regions().empty());
}

TEST(SpaceTree, SeedCountsPartitionAcrossLeaves) {
  v6::net::Rng rng(11);
  std::vector<Ipv6Addr> seeds;
  for (int subnet = 0; subnet < 20; ++subnet) {
    for (int host = 1; host <= 30; ++host) {
      seeds.push_back(addr_n(static_cast<std::uint64_t>(subnet),
                             static_cast<std::uint64_t>(host)));
    }
  }
  for (const SplitPolicy policy :
       {SplitPolicy::kLeftmost, SplitPolicy::kMinEntropy}) {
    const SpaceTree tree(seeds, {.policy = policy});
    std::uint64_t total = 0;
    for (const TreeRegion& r : tree.regions()) total += r.seed_count;
    EXPECT_EQ(total, seeds.size()) << static_cast<int>(policy);
  }
}

TEST(SpaceTree, RegionsSortedByDensity) {
  v6::net::Rng rng(12);
  std::vector<Ipv6Addr> seeds;
  for (int subnet = 0; subnet < 40; ++subnet) {
    for (int host = 1; host <= 1 + subnet % 14; ++host) {
      seeds.push_back(addr_n(static_cast<std::uint64_t>(subnet),
                             static_cast<std::uint64_t>(host)));
    }
  }
  const SpaceTree tree(seeds, {});
  const auto regions = tree.regions();
  for (std::size_t i = 1; i < regions.size(); ++i) {
    EXPECT_GE(regions[i - 1].density, regions[i].density);
  }
}

TEST(SpaceTree, CounterSubnetBecomesTightRegion) {
  // One subnet with hosts ::1..::40 must yield a region whose free
  // dimensions are the last two nybbles only.
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t host = 1; host <= 0x40; ++host) {
    seeds.push_back(addr_n(7, host));
  }
  const SpaceTree tree(seeds, {});
  bool found_tight = false;
  for (const TreeRegion& r : tree.regions()) {
    if (r.free_count() <= 2 && r.seed_count >= 10) found_tight = true;
  }
  EXPECT_TRUE(found_tight);
}

TEST(SpaceTree, MaxFreeCapRespected) {
  v6::net::Rng rng(13);
  std::vector<Ipv6Addr> seeds;
  for (int i = 0; i < 100; ++i) {
    seeds.push_back(Ipv6Addr(0x2001000000000000ULL, rng()));  // random low64
  }
  const SpaceTree tree(seeds, {.max_leaf_seeds = 200, .max_free = 4});
  for (const TreeRegion& r : tree.regions()) {
    EXPECT_LE(r.free_count(), 4);
  }
}

TEST(SpaceTree, SingletonDensityDiscounted) {
  // A singleton leaf must rank below a 16-seed counter leaf.
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t host = 0; host < 16; ++host) {
    seeds.push_back(addr_n(1, host));
  }
  seeds.push_back(addr_n(0x900, 0xdeadbeefULL));
  const SpaceTree tree(seeds, {});
  const auto regions = tree.regions();
  ASSERT_GE(regions.size(), 2u);
  EXPECT_GE(regions.front().seed_count, 16u);
}

}  // namespace
}  // namespace v6::tga
