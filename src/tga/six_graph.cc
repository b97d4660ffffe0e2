#include "tga/six_graph.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <numeric>

#include "net/rng.h"

namespace v6::tga {

using v6::net::Ipv6Addr;

namespace {

/// Disjoint-set forest for leaf merging.
class UnionFind {
 public:
  explicit UnionFind(std::size_t n) : parent_(n), size_(n, 1) {
    std::iota(parent_.begin(), parent_.end(), 0u);
  }
  std::uint32_t find(std::uint32_t x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }
  /// Unites unless the merged component would exceed `cap` members —
  /// unbounded transitive merging chains unrelated patterns into one
  /// dilute mega-cluster.
  void unite(std::uint32_t a, std::uint32_t b, std::uint32_t cap) {
    a = find(a);
    b = find(b);
    if (a == b || size_[a] + size_[b] > cap) return;
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> size_;
};

}  // namespace

std::vector<std::vector<std::uint32_t>> mine_pattern_clusters(
    std::span<const TreeRegion> leaves) {
  static_assert(Ipv6Addr::kNybbles <= 32, "nybble masks are 32-bit");
  constexpr std::uint32_t kNone = ~0u;

  // One key per (tight leaf, fixed position): the leaf's pattern with
  // that position wildcarded. Only tight leaves participate in pattern
  // mining: a leaf with many free dimensions is noise, and merging
  // through it would fuse unrelated patterns into one dilute cluster.
  struct Keyed {
    Ipv6Addr base;       // free and wildcard nybbles zeroed
    std::uint32_t mask;  // free and wildcard positions
    std::uint32_t leaf;
    auto operator<=>(const Keyed&) const = default;
  };
  const auto for_each_key = [&](auto&& visit) {
    for (std::uint32_t li = 0; li < leaves.size(); ++li) {
      const TreeRegion& leaf = leaves[li];
      if (leaf.free_count() > 2) continue;
      for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
        if ((leaf.free_mask >> pos) & 1) continue;
        visit(Keyed{leaf.base.with_nybble(pos, 0),
                    leaf.free_mask | (1u << pos), li});
      }
    }
  };

  // Sort the keys so that equal keys are adjacent, each key's lowest
  // leaf first. Most keys are unique, so a counting sort on a hash of
  // the key first splits them into cache-sized buckets (equal keys share
  // a bucket), and only the buckets are sorted.
  std::size_t total = 0;
  for (const TreeRegion& leaf : leaves) {
    if (leaf.free_count() <= 2) {
      total += static_cast<std::size_t>(Ipv6Addr::kNybbles - leaf.free_count());
    }
  }
  const int bucket_bits =
      std::max(1, static_cast<int>(std::bit_width(total / 128)));
  const auto bucket_of = [bucket_bits](const Keyed& k) {
    const std::uint64_t h = v6::net::splitmix64(
        k.base.hi() ^ v6::net::splitmix64(k.base.lo() ^ k.mask));
    return static_cast<std::size_t>(h >> (64 - bucket_bits));
  };
  std::vector<std::uint32_t> bucket_start((std::size_t{1} << bucket_bits) + 1);
  for_each_key([&](const Keyed& k) { ++bucket_start[bucket_of(k) + 1]; });
  std::partial_sum(bucket_start.begin(), bucket_start.end(),
                   bucket_start.begin());
  std::vector<Keyed> keyed(total);
  std::vector<std::uint32_t> fill(bucket_start.begin(), bucket_start.end() - 1);
  for_each_key([&](const Keyed& k) { keyed[fill[bucket_of(k)]++] = k; });
  for (std::size_t b = 0; b + 1 < bucket_start.size(); ++b) {
    std::sort(keyed.begin() + bucket_start[b],
              keyed.begin() + bucket_start[b + 1]);
  }

  // Leaves sharing a key are connected (an edge in 6Graph's
  // pattern-similarity graph): each joins the key's lowest leaf. A key
  // can arise at different positions of different leaves, so groups span
  // positions. The capped unite depends on call order, so the unites run
  // in (leaf, position) order, the order of a single pass over leaves.
  struct Edge {
    std::uint32_t leaf;
    int pos;
    std::uint32_t holder;
    auto operator<=>(const Edge&) const = default;
  };
  std::vector<Edge> edges;
  for (std::size_t i = 1, first = 0; i < keyed.size(); ++i) {
    if (keyed[i].base != keyed[first].base ||
        keyed[i].mask != keyed[first].mask) {
      first = i;
      continue;
    }
    const std::uint32_t leaf = keyed[i].leaf;
    const std::uint32_t wildcard =
        keyed[i].mask & ~leaves[leaf].free_mask;
    edges.push_back({leaf, std::countr_zero(wildcard), keyed[first].leaf});
  }
  std::sort(edges.begin(), edges.end());
  UnionFind uf(leaves.size());
  for (const Edge& e : edges) uf.unite(e.holder, e.leaf, /*cap=*/16);

  std::vector<std::uint32_t> component_of_root(leaves.size(), kNone);
  std::vector<std::vector<std::uint32_t>> components;
  for (std::uint32_t li = 0; li < leaves.size(); ++li) {
    std::uint32_t& component = component_of_root[uf.find(li)];
    if (component == kNone) {
      component = static_cast<std::uint32_t>(components.size());
      components.emplace_back();
    }
    components[component].push_back(li);
  }
  return components;
}

void SixGraph::reset_model() {
  clusters_.clear();
  turn_ = 0;

  const SpaceTree& tree =
      seed_tree({.policy = SplitPolicy::kMinEntropy,
                 .max_leaf_seeds = options_.max_leaf_seeds,
                 .max_free = options_.max_free});
  const auto leaves = tree.regions();
  if (leaves.empty()) return;

  // Materialize components into pattern clusters. A cluster's pattern
  // wildcards (a) the members' free dimensions over the full nybble range
  // and (b) the positions where member bases differ over the *observed*
  // values only — 6Graph expands mined patterns, it does not enumerate
  // blind space between them.
  const auto components = mine_pattern_clusters(leaves);

  struct Scored {
    Cluster cluster;
    double density;
    Ipv6Addr base;
  };
  std::vector<Scored> scored;
  scored.reserve(components.size());
  // Every component lands in `scored`, later sorted by (density, base)
  // — a total order since bases are distinct per component.
  for (const std::vector<std::uint32_t>& members : components) {
    // Union of free positions; observed values at differing positions.
    std::uint64_t free_mask = 0;
    std::array<std::uint16_t, Ipv6Addr::kNybbles> value_bits{};
    std::uint32_t seeds = 0;
    double member_capacity = 0.0;
    std::uint32_t best_seed_count = 0;
    Ipv6Addr base = leaves[members.front()].base;
    for (const std::uint32_t li : members) {
      const TreeRegion& leaf = leaves[li];
      free_mask |= leaf.free_mask;
      for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
        value_bits[static_cast<std::size_t>(pos)] |=
            static_cast<std::uint16_t>(1u << leaf.base.nybble(pos));
      }
      seeds += leaf.seed_count;
      member_capacity +=
          std::pow(16.0, static_cast<double>(leaf.free_count()));
      if (leaf.seed_count > best_seed_count) {
        best_seed_count = leaf.seed_count;
        base = leaf.base;
      }
    }

    std::vector<int> positions;
    std::vector<std::vector<std::uint8_t>> values;
    double span_log16 = 0.0;
    for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
      const bool is_free = (free_mask >> pos) & 1;
      std::vector<std::uint8_t> vals;
      if (is_free) {
        vals.resize(16);
        for (int v = 0; v < 16; ++v) vals[static_cast<std::size_t>(v)] =
            static_cast<std::uint8_t>(v);
      } else {
        for (int v = 0; v < 16; ++v) {
          if (value_bits[static_cast<std::size_t>(pos)] & (1u << v)) {
            vals.push_back(static_cast<std::uint8_t>(v));
          }
        }
        if (vals.size() <= 1) continue;  // constant across members
      }
      span_log16 += std::log2(static_cast<double>(vals.size())) / 4.0;
      positions.push_back(pos);
      values.push_back(std::move(vals));
      if (span_log16 > static_cast<double>(options_.max_cluster_free)) break;
    }
    if (span_log16 > static_cast<double>(options_.max_cluster_free)) {
      continue;  // pattern too wide to enumerate
    }
    if (positions.empty()) {
      positions.push_back(Ipv6Addr::kNybbles - 1);
      std::vector<std::uint8_t> all16(16);
      for (int v = 0; v < 16; ++v) all16[static_cast<std::size_t>(v)] =
          static_cast<std::uint8_t>(v);
      values.push_back(std::move(all16));
    }

    Scored s;
    s.base = base;
    s.cluster.cursor = RangeCursor(base, std::move(positions),
                                   std::move(values));
    s.cluster.chunk = std::max<std::uint64_t>(
        options_.min_chunk, options_.chunk_per_seed * seeds);
    // Density over the member space: fusing leaves into one pattern must
    // not demote the pattern below its constituent parts.
    s.density = (static_cast<double>(seeds) - 0.5) /
                std::max(1.0, member_capacity);
    scored.push_back(std::move(s));
  }

  std::sort(scored.begin(), scored.end(), [](const Scored& a, const Scored& b) {
    if (a.density != b.density) return a.density > b.density;
    return a.base < b.base;
  });
  clusters_.reserve(scored.size());
  for (Scored& s : scored) clusters_.push_back(std::move(s.cluster));
}

std::vector<Ipv6Addr> SixGraph::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (clusters_.empty()) return out;

  std::size_t stall = 0;
  while (out.size() < n && stall < clusters_.size() * 2) {
    Cluster& cluster = clusters_[turn_ % clusters_.size()];
    ++turn_;
    std::uint64_t taken = 0;
    while (taken < cluster.chunk && out.size() < n) {
      auto addr = cluster.cursor.next();
      if (!addr) {
        if (cluster.extensions >= options_.max_extensions ||
            !cluster.cursor.widen()) {
          break;
        }
        ++cluster.extensions;
        break;  // widened space waits for the next scheduling round
      }
      if (emit(*addr, out)) ++taken;
    }
    stall = taken == 0 ? stall + 1 : 0;
  }
  return out;
}

}  // namespace v6::tga
