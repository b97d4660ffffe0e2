// Differential tests for the TGA layer's selection and mining structures.
//
// DET and 6Hit pick regions through EmittedBuckets and MaxTree, 6Graph
// mines pattern clusters by sort-and-scan. Each is checked here against
// the plain algorithm it replaces, which lives only in this file:
//
//   - a linear argmax over all regions (first index wins ties), both on
//     the bare structures under random operation streams with heavy
//     ties, and as whole reference generators (LinearDet, LinearSixHit)
//     whose address streams must equal Det's and SixHit's under random
//     observe() feedback, region extensions and tree recreations;
//   - a hash map of first key holders plus a capped union-find driven in
//     (leaf, position) order, on leaves built so that keys made at
//     different positions collide and the 16-leaf cap binds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>
#include <unordered_map>
#include <vector>

#include "net/ipv6.h"
#include "net/rng.h"
#include "tga/det.h"
#include "tga/region_select.h"
#include "tga/six_graph.h"
#include "tga/six_hit.h"
#include "tga/space_tree.h"
#include "tga/target_generator.h"
#include "testutil/fixtures.h"

namespace v6::tga {
namespace {

using v6::net::Ipv6Addr;

// ---------------------------------------------------------------------
// EmittedBuckets against a linear argmax.

struct RankedRegion {
  std::uint64_t emitted = 0;
  double seed_mass = 0.0;
  bool dead = false;
};

/// The first live region of maximal score, as a left-to-right scan with
/// a strict comparison finds it.
template <typename Score>
std::uint32_t linear_best(const std::vector<RankedRegion>& regions,
                          const Score& score) {
  std::uint32_t best = 0;
  double best_score = -std::numeric_limits<double>::infinity();
  bool found = false;
  for (std::uint32_t i = 0; i < regions.size(); ++i) {
    if (regions[i].dead) continue;
    const double s = score(i);
    if (!found || s > best_score) {
      best = i;
      best_score = s;
      found = true;
    }
  }
  return best;
}

void check_buckets_against_linear(bool det_score, std::uint64_t seed) {
  v6::net::Rng rng = v6::net::make_rng(seed);
  constexpr std::uint32_t kRegions = 300;
  std::vector<RankedRegion> regions(kRegions);
  EmittedBuckets buckets;
  for (std::uint32_t i = 0; i < kRegions; ++i) {
    // Few distinct masses and emitted counts: ties everywhere.
    regions[i].seed_mass = static_cast<double>(v6::net::uniform_int(rng, 1, 4));
    regions[i].emitted = 16 * v6::net::uniform_int<std::uint64_t>(rng, 0, 2);
    buckets.insert(i, regions[i].emitted, regions[i].seed_mass);
  }
  std::uint64_t total_emitted = 0;
  // DET's score, or a plain ratio whose exact values tie across buckets
  // (2/32 == 1/16). Both grow strictly with seed_mass at fixed emitted.
  const auto score = [&](std::uint32_t i) {
    const RankedRegion& r = regions[i];
    const double exploit =
        r.seed_mass / static_cast<double>(r.emitted + 16);
    if (!det_score) return exploit;
    return exploit +
           0.35 * std::sqrt(std::log(static_cast<double>(total_emitted + 2)) /
                            static_cast<double>(r.emitted + 1));
  };

  std::size_t live = kRegions;
  for (int step = 0; step < 4000 && live > 0; ++step) {
    const std::uint32_t expected = linear_best(regions, score);
    ASSERT_EQ(buckets.best(score), expected) << "step " << step;
    RankedRegion& picked = regions[expected];
    buckets.erase(expected, picked.emitted, picked.seed_mass);
    const int op = v6::net::uniform_int(rng, 0, 9);
    if (op == 0) {
      picked.dead = true;  // exhausted and unextendable: leaves for good
      --live;
      continue;
    }
    if (op > 1) {  // op == 1: an extension, re-ranked under the same key
      const std::uint64_t spent = v6::net::uniform_int<std::uint64_t>(rng, 0, 48);
      picked.emitted += spent;
      total_emitted += spent;
    }
    buckets.insert(expected, picked.emitted, picked.seed_mass);
    // Feedback for a few random regions, live or dead.
    for (int k = v6::net::uniform_int(rng, 0, 3); k > 0; --k) {
      const auto i = v6::net::uniform_int<std::uint32_t>(rng, 0, kRegions - 1);
      RankedRegion& r = regions[i];
      if (!r.dead) buckets.erase(i, r.emitted, r.seed_mass);
      r.seed_mass += 2.0;
      if (!r.dead) buckets.insert(i, r.emitted, r.seed_mass);
    }
  }
  EXPECT_EQ(buckets.empty(), live == 0);
}

TEST(EmittedBucketsDifferential, MatchesLinearArgmaxWithDetScore) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_buckets_against_linear(/*det_score=*/true, seed);
  }
}

TEST(EmittedBucketsDifferential, FirstIndexWinsExactTiesAcrossBuckets) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    check_buckets_against_linear(/*det_score=*/false, seed);
  }
}

TEST(EmittedBucketsDifferential, EqualMassesPickLowestIndex) {
  EmittedBuckets buckets;
  for (const std::uint32_t i : {7u, 3u, 9u, 5u}) buckets.insert(i, 0, 4.0);
  const auto flat = [](std::uint32_t) { return 1.0; };
  EXPECT_EQ(buckets.best(flat), 3u);
  buckets.erase(3, 0, 4.0);
  EXPECT_EQ(buckets.best(flat), 5u);
  buckets.insert(2, 0, 3.0);  // same bucket, lower mass: not the leader
  EXPECT_EQ(buckets.best(flat), 5u);
}

// ---------------------------------------------------------------------
// MaxTree against a linear argmax.

/// 6Hit's greedy scan: the first live region of maximal q, else 0.
std::uint32_t linear_greedy(const std::vector<double>& q,
                            const std::vector<bool>& dead) {
  std::uint32_t pick = 0;
  double best = -1.0;
  for (std::uint32_t i = 0; i < q.size(); ++i) {
    if (dead[i]) continue;
    if (q[i] > best) {
      best = q[i];
      pick = i;
    }
  }
  return pick;
}

TEST(MaxTreeDifferential, MatchesLinearGreedyUnderRandomUpdates) {
  for (const std::size_t n : {1u, 2u, 3u, 17u, 64u, 257u}) {
    v6::net::Rng rng = v6::net::make_rng(n);
    std::vector<double> q(n);
    std::vector<bool> dead(n, false);
    MaxTree tree;
    tree.assign(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      // Quantized values: many exact ties.
      q[i] = 0.1 * v6::net::uniform_int(rng, 0, 5);
      tree.set(i, q[i]);
    }
    for (int step = 0; step < 3000; ++step) {
      ASSERT_EQ(tree.best(0), linear_greedy(q, dead))
          << "n " << n << " step " << step;
      const auto i = v6::net::uniform_int<std::uint32_t>(
          rng, 0, static_cast<std::uint32_t>(n - 1));
      switch (v6::net::uniform_int(rng, 0, 5)) {
        case 0:  // death
          dead[i] = true;
          tree.remove(i);
          break;
        case 1:  // widened space: q halves
          q[i] *= 0.5;
          if (!dead[i]) tree.set(i, q[i]);
          break;
        default:  // observe(): q steps toward a 0/1 reward
          q[i] += 0.05 * ((v6::net::chance(rng, 0.3) ? 1.0 : 0.0) - q[i]);
          if (!dead[i]) tree.set(i, q[i]);
          break;
      }
    }
  }
}

TEST(MaxTreeDifferential, AllRemovedFallsBack) {
  MaxTree tree;
  tree.assign(5);
  EXPECT_EQ(tree.best(0), 0u);
  tree.set(3, 0.0);
  tree.set(4, 0.0);
  EXPECT_EQ(tree.best(0), 3u);  // tie at zero: first index
  tree.remove(3);
  tree.remove(4);
  EXPECT_EQ(tree.best(0), 0u);
}

// ---------------------------------------------------------------------
// Whole generators against linear-argmax reference generators.

/// DET with the linear argmax over all regions.
class LinearDet final : public TargetGeneratorBase {
 public:
  explicit LinearDet(const Det::Options& options) : options_(options) {}
  std::string_view name() const override { return "DET"; }

  std::vector<Ipv6Addr> next_batch(std::size_t n) override {
    std::vector<Ipv6Addr> out;
    if (regions_.empty()) return out;
    std::size_t consecutive_failures = 0;
    while (out.size() < n && consecutive_failures < regions_.size() + 8) {
      std::size_t best = 0;
      double best_score = -2.0;
      for (std::size_t i = 0; i < regions_.size(); ++i) {
        const double s = score(regions_[i]);
        if (s > best_score) {
          best_score = s;
          best = i;
        }
      }
      Region& region = regions_[best];
      if (region.dead) break;
      std::uint64_t taken = 0;
      while (taken < options_.chunk && out.size() < n) {
        auto addr = region.cursor.next();
        if (!addr) {
          if (!region.cursor.extend()) region.dead = true;
          break;
        }
        ++region.emitted;
        ++total_emitted_;
        if (emit(*addr, out)) {
          pending_.emplace(*addr, static_cast<std::uint32_t>(best));
          ++taken;
        }
      }
      consecutive_failures = taken == 0 ? consecutive_failures + 1 : 0;
    }
    return out;
  }

  void observe(const Ipv6Addr& addr, bool active) override {
    const auto it = pending_.find(addr);
    if (it == pending_.end()) return;
    if (active) regions_[it->second].seed_mass += options_.hit_weight;
    pending_.erase(it);
  }

 protected:
  void reset_model() override {
    regions_.clear();
    pending_.clear();
    total_emitted_ = 0;
    SpaceTree tree(seeds_, {.policy = SplitPolicy::kMinEntropy,
                            .max_leaf_seeds = options_.max_leaf_seeds,
                            .max_free = options_.max_free});
    for (const TreeRegion& r : tree.regions()) {
      regions_.push_back({RegionCursor(r.base, r.free()),
                          static_cast<double>(r.seed_count), 0, false});
    }
  }

 private:
  struct Region {
    RegionCursor cursor;
    double seed_mass = 0.0;
    std::uint64_t emitted = 0;
    bool dead = false;
  };

  double score(const Region& r) const {
    if (r.dead) return -1.0;
    const double exploit = r.seed_mass / static_cast<double>(r.emitted + 16);
    const double explore =
        options_.exploration *
        std::sqrt(std::log(static_cast<double>(total_emitted_ + 2)) /
                  static_cast<double>(r.emitted + 1));
    return exploit + explore;
  }

  Det::Options options_;
  std::vector<Region> regions_;
  std::unordered_map<Ipv6Addr, std::uint32_t> pending_;
  std::uint64_t total_emitted_ = 0;
};

/// 6Hit with the linear greedy scan over all regions.
class LinearSixHit final : public TargetGeneratorBase {
 public:
  explicit LinearSixHit(const SixHit::Options& options) : options_(options) {}
  std::string_view name() const override { return "6Hit"; }

  std::vector<Ipv6Addr> next_batch(std::size_t n) override {
    std::vector<Ipv6Addr> out;
    if (regions_.empty()) return out;
    if (hits_since_rebuild_ >= options_.rebuild_after_hits) rebuild();
    std::size_t consecutive_failures = 0;
    while (out.size() < n && consecutive_failures < regions_.size() + 8) {
      std::size_t pick;
      if (v6::net::chance(rng_, options_.epsilon)) {
        pick = v6::net::uniform_int<std::size_t>(rng_, 0, regions_.size() - 1);
      } else {
        pick = 0;
        double best = -1.0;
        for (std::size_t i = 0; i < regions_.size(); ++i) {
          if (regions_[i].dead) continue;
          if (regions_[i].q > best) {
            best = regions_[i].q;
            pick = i;
          }
        }
      }
      Region& region = regions_[pick];
      if (region.dead) {
        ++consecutive_failures;
        continue;
      }
      std::uint64_t taken = 0;
      while (taken < options_.chunk && out.size() < n) {
        auto addr = region.cursor.next();
        if (!addr) {
          if (!region.cursor.extend()) {
            region.dead = true;
          } else {
            region.q *= 0.5;
          }
          break;
        }
        if (emit(*addr, out)) {
          pending_.emplace(*addr, static_cast<std::uint32_t>(pick));
          ++taken;
        }
      }
      consecutive_failures = taken == 0 ? consecutive_failures + 1 : 0;
    }
    return out;
  }

  void observe(const Ipv6Addr& addr, bool active) override {
    const auto it = pending_.find(addr);
    if (it == pending_.end()) return;
    Region& region = regions_[it->second];
    region.q += options_.learning_rate * ((active ? 1.0 : 0.0) - region.q);
    if (active) {
      discovered_.push_back(addr);
      ++hits_since_rebuild_;
    }
    pending_.erase(it);
  }

  bool absorb_seeds(std::span<const Ipv6Addr> added) override {
    if (register_seeds(added) == 0) return true;
    rebuild();
    return true;
  }

 protected:
  void reset_model() override {
    pending_.clear();
    discovered_.clear();
    hits_since_rebuild_ = 0;
    build_tree(seeds_);
  }

 private:
  struct Region {
    RegionCursor cursor;
    double q = 0.0;
    bool dead = false;
  };

  void rebuild() {
    std::vector<Ipv6Addr> combined = seeds_;
    combined.insert(combined.end(), discovered_.begin(), discovered_.end());
    pending_.clear();
    build_tree(combined);
    hits_since_rebuild_ = 0;
  }

  void build_tree(const std::vector<Ipv6Addr>& from) {
    regions_.clear();
    SpaceTree tree(from, {.policy = SplitPolicy::kLeftmost,
                          .max_leaf_seeds = options_.max_leaf_seeds,
                          .max_free = options_.max_free});
    double max_density = 0.0;
    for (const TreeRegion& r : tree.regions()) {
      max_density = std::max(max_density, r.density);
    }
    for (const TreeRegion& r : tree.regions()) {
      regions_.push_back(
          {RegionCursor(r.base, r.free()),
           0.2 + (max_density > 0 ? 0.3 * r.density / max_density : 0.0),
           false});
    }
  }

  SixHit::Options options_;
  std::vector<Region> regions_;
  std::unordered_map<Ipv6Addr, std::uint32_t> pending_;
  std::vector<Ipv6Addr> discovered_;
  std::uint64_t hits_since_rebuild_ = 0;
};

std::vector<Ipv6Addr> sample_hosts(std::size_t n, std::size_t offset) {
  const auto hosts = v6::testutil::small_universe().hosts();
  std::vector<Ipv6Addr> seeds;
  const std::size_t stride = std::max<std::size_t>(1, hosts.size() / n);
  for (std::size_t i = offset; i < hosts.size() && seeds.size() < n;
       i += stride) {
    seeds.push_back(hosts[i].addr);
  }
  return seeds;
}

/// Runs both generators in lockstep with the same random feedback and
/// asserts identical batches. Returns the number of addresses compared.
std::size_t expect_same_streams(TargetGenerator& actual,
                                TargetGenerator& reference,
                                std::uint64_t seed, double hit_rate) {
  const auto seeds = sample_hosts(3000, 0);
  const auto late_seeds = sample_hosts(400, 1);
  actual.prepare(seeds, seed);
  reference.prepare(seeds, seed);
  v6::net::Rng feedback = v6::net::make_rng(seed, 99);
  std::size_t compared = 0;
  for (int batch = 0; batch < 40; ++batch) {
    if (batch == 20) {
      EXPECT_EQ(actual.absorb_seeds(late_seeds),
                reference.absorb_seeds(late_seeds));
    }
    const auto got = actual.next_batch(500);
    const auto want = reference.next_batch(500);
    EXPECT_EQ(got.size(), want.size()) << "batch " << batch;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      if (got[i] != want[i]) {
        ADD_FAILURE() << "batch " << batch << " address " << i << ": "
                      << got[i].to_string() << " != " << want[i].to_string();
        return compared;
      }
      const bool active = v6::net::chance(feedback, hit_rate);
      actual.observe(got[i], active);
      reference.observe(want[i], active);
      ++compared;
    }
  }
  return compared;
}

TEST(DetDifferential, StreamEqualsLinearArgmaxUnderRandomFeedback) {
  for (const std::uint64_t seed : {3u, 17u}) {
    for (const double hit_rate : {0.05, 0.4}) {
      // Small chunks and tight leaves: many picks, 16-address regions
      // that drain and extend, and equal seed masses everywhere.
      const Det::Options options{.max_leaf_seeds = 4, .max_free = 1,
                                 .chunk = 8};
      Det actual(options);
      LinearDet reference(options);
      EXPECT_EQ(expect_same_streams(actual, reference, seed, hit_rate),
                20'000u);
    }
  }
}

TEST(SixHitDifferential, StreamEqualsLinearGreedyUnderRandomFeedback) {
  for (const std::uint64_t seed : {3u, 17u}) {
    for (const double hit_rate : {0.05, 0.4}) {
      // Frequent tree recreations on top of the absorb_seeds rebuild.
      const SixHit::Options options{.max_leaf_seeds = 4, .max_free = 1,
                                    .chunk = 8, .rebuild_after_hits = 700};
      SixHit actual(options);
      LinearSixHit reference(options);
      EXPECT_EQ(expect_same_streams(actual, reference, seed, hit_rate),
                20'000u);
    }
  }
}

// ---------------------------------------------------------------------
// 6Graph pattern mining against a hash-map reference.

class CappedUnionFind {
 public:
  explicit CappedUnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) x = parent_[x];
    return x;
  }
  /// Returns false when the cap refuses the merge.
  bool unite(std::uint32_t a, std::uint32_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return true;
    if (size_[a] + size_[b] > 16) return false;
    parent_[b] = a;
    size_[a] += size_[b];
    return true;
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

struct MiningStats {
  std::size_t cross_position_matches = 0;
  std::size_t refused_by_cap = 0;
};

/// One pass over (leaf, position) with a hash map of each key's first
/// holder, uniting on every repeat.
std::vector<std::vector<std::uint32_t>> reference_clusters(
    const std::vector<TreeRegion>& leaves, MiningStats& stats) {
  struct Key {
    Ipv6Addr base;
    std::uint64_t mask;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      return v6::net::Ipv6AddrHash{}(k.base) ^ (k.mask * 0x9E3779B97F4A7C15ULL);
    }
  };
  struct Holder {
    std::uint32_t leaf;
    int pos;
  };
  CappedUnionFind uf(leaves.size());
  std::unordered_map<Key, Holder, KeyHash> first_with_key;
  for (std::uint32_t li = 0; li < leaves.size(); ++li) {
    if (leaves[li].free_count() > 2) continue;
    const std::uint64_t free_mask = leaves[li].free_mask;
    for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
      if (free_mask & (1ULL << pos)) continue;
      const Key key{leaves[li].base.with_nybble(pos, 0),
                    free_mask | (1ULL << pos)};
      const auto [it, inserted] = first_with_key.emplace(key, Holder{li, pos});
      if (inserted) continue;
      if (it->second.pos != pos) ++stats.cross_position_matches;
      if (!uf.unite(it->second.leaf, li)) ++stats.refused_by_cap;
    }
  }
  std::map<std::uint32_t, std::vector<std::uint32_t>> by_root;
  for (std::uint32_t li = 0; li < leaves.size(); ++li) {
    by_root[uf.find(li)].push_back(li);
  }
  std::vector<std::vector<std::uint32_t>> components;
  for (auto& [root, members] : by_root) components.push_back(members);
  std::sort(components.begin(), components.end());  // by lowest member
  return components;
}

/// Leaves over a tiny alphabet: bases differ in a few nybbles among
/// positions 28..31, free sets are drawn from the same positions, so a
/// key made by wildcarding position p of one leaf often equals a key
/// made at position q != p of a leaf with a different free set.
std::vector<TreeRegion> colliding_leaves(std::uint64_t seed,
                                         std::size_t count) {
  v6::net::Rng rng = v6::net::make_rng(seed);
  std::vector<TreeRegion> leaves;
  for (std::size_t i = 0; i < count; ++i) {
    TreeRegion leaf;
    Ipv6Addr base(0x20010db800000000ULL, 0);
    for (int pos = 28; pos < 32; ++pos) {
      base = base.with_nybble(
          pos, static_cast<std::uint8_t>(v6::net::uniform_int(rng, 0, 2)));
    }
    if (v6::net::chance(rng, 0.2)) {  // a second prefix keeps some apart
      base = base.with_nybble(10, 1);
    }
    const int n_free = v6::net::uniform_int(rng, 0, 3);  // 3: not tight
    for (int pos = 28; pos < 32 && leaf.free_count() < n_free; ++pos) {
      if (v6::net::chance(rng, 0.5)) leaf.free_mask |= 1u << pos;
    }
    for (const int pos : leaf.free()) base = base.with_nybble(pos, 0);
    leaf.base = base;
    leaf.seed_count = static_cast<std::uint32_t>(v6::net::uniform_int(rng, 1, 16));
    leaves.push_back(std::move(leaf));
  }
  return leaves;
}

TEST(SixGraphMiningDifferential, ClustersMatchHashMapReference) {
  MiningStats total;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto leaves = colliding_leaves(seed, 40 + 20 * seed);
    MiningStats stats;
    const auto expected = reference_clusters(leaves, stats);
    EXPECT_EQ(mine_pattern_clusters(leaves), expected) << "seed " << seed;
    total.cross_position_matches += stats.cross_position_matches;
    total.refused_by_cap += stats.refused_by_cap;
  }
  // The leaves must exercise both pitfalls the flat miner has to get
  // right: keys shared across positions, and a binding merge cap.
  EXPECT_GT(total.cross_position_matches, 0u);
  EXPECT_GT(total.refused_by_cap, 0u);
}

TEST(SixGraphMiningDifferential, ClustersMatchOnSpaceTreeLeaves) {
  const auto seeds = sample_hosts(20'000, 0);
  const SpaceTree tree(seeds, {.policy = SplitPolicy::kMinEntropy,
                               .max_leaf_seeds = 16,
                               .max_free = 6});
  const std::vector<TreeRegion> leaves(tree.regions().begin(),
                                       tree.regions().end());
  MiningStats stats;
  EXPECT_EQ(mine_pattern_clusters(leaves), reference_clusters(leaves, stats));
}

}  // namespace
}  // namespace v6::tga
