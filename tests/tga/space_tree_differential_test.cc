// Differential test: the flat SpaceTree build against the recursive
// builder it replaced, kept here as the oracle.
//
// The recursive builder copies each node's seed indices into 16 bucket
// vectors and recurses into them in nybble order; the flat build
// partitions one index array in place and walks an explicit stack. The
// stride sample on nodes above 4,096 seeds reads members in node order,
// and a leaf's base is its first member, so the two agree only if the
// flat partition is stable. Each case compares every region — base, free
// positions, seed count, density and position in the density order —
// and the node count, under both split policies and several option sets.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"
#include "tga/nybble_stats.h"
#include "tga/space_tree.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

struct OracleTree {
  std::vector<TreeRegion> regions;
  std::size_t node_count = 0;
};

/// The recursive space-tree build, as it stood before the flat one.
class RecursiveBuilder {
 public:
  RecursiveBuilder(std::span<const Ipv6Addr> seeds,
                   const SpaceTree::Options& options)
      : seeds_(seeds), options_(options) {}

  OracleTree run() {
    if (!seeds_.empty()) {
      std::vector<std::uint32_t> all(seeds_.size());
      for (std::uint32_t i = 0; i < seeds_.size(); ++i) all[i] = i;
      build(std::move(all), 0);
    }
    std::sort(out_.regions.begin(), out_.regions.end(),
              [](const TreeRegion& a, const TreeRegion& b) {
                if (a.density != b.density) return a.density > b.density;
                return a.base < b.base;
              });
    return std::move(out_);
  }

 private:
  void build(std::vector<std::uint32_t> indices, int depth) {
    ++out_.node_count;
    constexpr std::size_t kSampleCap = 4096;
    const bool sampled = indices.size() > kSampleCap;
    NybbleStats stats;
    if (sampled) {
      const std::size_t stride = indices.size() / kSampleCap;
      for (std::size_t i = 0; i < indices.size(); i += stride) {
        stats.add(seeds_[indices[i]]);
      }
    } else {
      for (const std::uint32_t i : indices) stats.add(seeds_[i]);
    }
    const int split = options_.policy == SplitPolicy::kLeftmost
                          ? stats.leftmost_varying_position()
                          : stats.min_entropy_position();
    const bool make_leaf = split < 0 ||
                           indices.size() <= options_.max_leaf_seeds ||
                           depth >= Ipv6Addr::kNybbles;
    if (make_leaf) {
      if (sampled) {
        stats = NybbleStats();
        for (const std::uint32_t i : indices) stats.add(seeds_[i]);
      }
      TreeRegion region;
      std::vector<int> varying = stats.varying_positions();
      if (static_cast<int>(varying.size()) > options_.max_free) {
        varying.erase(varying.begin(), varying.end() - options_.max_free);
      }
      if (varying.empty()) varying.push_back(Ipv6Addr::kNybbles - 1);
      region.base = seeds_[indices.front()];
      for (const int pos : varying) {
        region.base = region.base.with_nybble(pos, 0);
      }
      for (const int pos : varying) region.free_mask |= 1u << pos;
      region.seed_count = static_cast<std::uint32_t>(indices.size());
      region.density =
          (static_cast<double>(indices.size()) - 0.5) /
          std::pow(16.0, static_cast<double>(varying.size()));
      out_.regions.push_back(std::move(region));
      return;
    }
    std::array<std::vector<std::uint32_t>, 16> buckets;
    for (const std::uint32_t i : indices) {
      buckets[seeds_[i].nybble(split)].push_back(i);
    }
    indices.clear();
    indices.shrink_to_fit();
    for (auto& bucket : buckets) {
      if (!bucket.empty()) build(std::move(bucket), depth + 1);
    }
  }

  std::span<const Ipv6Addr> seeds_;
  SpaceTree::Options options_;
  OracleTree out_;
};

const char* policy_name(SplitPolicy policy) {
  return policy == SplitPolicy::kLeftmost ? "leftmost" : "min-entropy";
}

/// The flat build must equal the oracle on `seeds` under both policies
/// and each option set below.
void expect_matches_oracle(const std::vector<Ipv6Addr>& seeds) {
  const std::array<SpaceTree::Options, 4> shapes = {{
      {},                                         // the TGAs' defaults
      {.max_leaf_seeds = 1, .max_free = 6},       // split to single seeds
      {.max_leaf_seeds = 200, .max_free = 3},     // wide leaves, few free
      {.max_leaf_seeds = 10000, .max_free = 32},  // sampled forced leaves
  }};
  for (const SplitPolicy policy :
       {SplitPolicy::kLeftmost, SplitPolicy::kMinEntropy}) {
    for (SpaceTree::Options options : shapes) {
      options.policy = policy;
      SCOPED_TRACE(std::string(policy_name(policy)) +
                   " max_leaf_seeds=" +
                   std::to_string(options.max_leaf_seeds) +
                   " max_free=" + std::to_string(options.max_free));
      const OracleTree oracle = RecursiveBuilder(seeds, options).run();
      const SpaceTree flat(seeds, options);
      EXPECT_EQ(flat.node_count(), oracle.node_count);
      ASSERT_EQ(flat.regions().size(), oracle.regions.size());
      for (std::size_t i = 0; i < oracle.regions.size(); ++i) {
        const TreeRegion& a = flat.regions()[i];
        const TreeRegion& b = oracle.regions[i];
        ASSERT_EQ(a.base, b.base) << "region " << i;
        ASSERT_EQ(a.free_mask, b.free_mask) << "region " << i;
        ASSERT_EQ(a.seed_count, b.seed_count) << "region " << i;
        // Same count over the same free set: the same double, bit for bit.
        ASSERT_EQ(a.density, b.density) << "region " << i;
      }
    }
  }
}

TEST(SpaceTreeDifferential, EmptySeeds) { expect_matches_oracle({}); }

TEST(SpaceTreeDifferential, RandomSeeds) {
  v6::net::Rng rng(11);
  std::vector<Ipv6Addr> seeds;
  for (int i = 0; i < 3000; ++i) seeds.emplace_back(rng(), rng());
  expect_matches_oracle(seeds);
}

TEST(SpaceTreeDifferential, StructuredSubnetsWithDuplicates) {
  // A few /48s, each with /64s holding low-byte counters, EUI-64-like
  // random IIDs and repeated addresses.
  v6::net::Rng rng(12);
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t site = 0; site < 6; ++site) {
    const std::uint64_t prefix = 0x2001'0db8'0000'0000ULL | (site << 16);
    for (std::uint64_t subnet = 0; subnet < 12; ++subnet) {
      const std::uint64_t hi = prefix | (subnet * 0x11);
      for (std::uint64_t host = 1; host <= 20; ++host) {
        seeds.emplace_back(hi, host);
      }
      for (int k = 0; k < 6; ++k) {
        seeds.emplace_back(hi, 0x0200'00ff'fe00'0000ULL | (rng() & 0xffffff));
      }
      seeds.emplace_back(hi, 1);  // duplicate of host 1
      seeds.emplace_back(hi, 1);
    }
  }
  expect_matches_oracle(seeds);
}

TEST(SpaceTreeDifferential, LargePrefixExercisesStrideSampling) {
  // 9,000 seeds under one /64 (so the root and its first children are
  // above the 8,192 = 2 x 4,096 mark, where the stride exceeds 1), with a
  // sprinkle of other prefixes ahead of and behind them.
  v6::net::Rng rng(13);
  std::vector<Ipv6Addr> seeds;
  for (int i = 0; i < 40; ++i) seeds.emplace_back(rng(), rng());
  for (std::uint64_t i = 0; i < 9000; ++i) {
    const std::uint64_t iid = (i % 3 == 0) ? i : (rng() & 0xffff'ffffULL);
    seeds.emplace_back(0x2a00'1450'4001'0800ULL, iid);
  }
  for (int i = 0; i < 40; ++i) seeds.emplace_back(rng(), rng());
  expect_matches_oracle(seeds);
}

TEST(SpaceTreeDifferential, SampleMissesAVaryingPosition) {
  // 9,000 seeds of one /64 where only the odd ones set nybble 20: a
  // stride-2 sample sees nybbles 28..31 vary, but not 20. The split is
  // taken from the sample; a leaf's free set must come from all seeds.
  std::vector<Ipv6Addr> seeds;
  for (std::uint64_t i = 0; i < 9000; ++i) {
    const std::uint64_t marker = (i % 2 == 1) ? 0xAULL << 44 : 0;
    seeds.emplace_back(0x2a00'1450'4001'0800ULL, marker | i);
  }
  expect_matches_oracle(seeds);
}

TEST(SpaceTreeDifferential, AllIdenticalSeeds) {
  const std::vector<Ipv6Addr> seeds(5000, Ipv6Addr(0x2001'0db8'0001'0002ULL,
                                                  0x0000'0000'0000'00abULL));
  expect_matches_oracle(seeds);
}

TEST(SpaceTreeDifferential, DepthThirtyTwoChain) {
  // 17 copies of one address, plus one address per position that differs
  // from it only there: every split peels off one singleton, so the
  // copies sit in a node at depth 32 — a leaf by depth as much as by
  // having nothing left to split on.
  const Ipv6Addr base(0x2001'0db8'aaaa'bbbbULL, 0xcccc'dddd'eeee'ffffULL);
  std::vector<Ipv6Addr> seeds(17, base);
  for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
    seeds.push_back(base.with_nybble(
        pos, static_cast<std::uint8_t>((base.nybble(pos) + 1) & 0xF)));
  }
  expect_matches_oracle(seeds);
}

}  // namespace
}  // namespace v6::tga
