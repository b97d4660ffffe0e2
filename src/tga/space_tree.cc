#include "tga/space_tree.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <numeric>

#include "tga/nybble_stats.h"

namespace v6::tga {

using v6::net::Ipv6Addr;

// ---- RegionCursor ------------------------------------------------------

RegionCursor::RegionCursor(Ipv6Addr base, std::vector<int> free_nybbles)
    : base_(base), free_(std::move(free_nybbles)) {
  std::sort(free_.begin(), free_.end());
  // Zero the free positions of the base so enumeration starts at the
  // region origin.
  for (const int pos : free_) base_ = base_.with_nybble(pos, 0);
}

std::uint64_t RegionCursor::capacity() const {
  if (free_.size() >= 16) return ~0ULL;  // effectively unbounded
  return 1ULL << (4 * free_.size());
}

std::optional<Ipv6Addr> RegionCursor::next() {
  if (counter_ >= capacity()) return std::nullopt;
  Ipv6Addr addr = base_;
  std::uint64_t c = counter_;
  // Rightmost free position spins fastest.
  for (std::size_t j = 0; j < free_.size(); ++j) {
    const int pos = free_[free_.size() - 1 - j];
    addr = addr.with_nybble(pos, static_cast<std::uint8_t>(c & 0xF));
    c >>= 4;
  }
  ++counter_;
  return addr;
}

bool RegionCursor::extend() {
  // Free the rightmost currently-fixed nybble.
  std::array<bool, Ipv6Addr::kNybbles> is_free{};
  for (const int pos : free_) is_free[static_cast<std::size_t>(pos)] = true;
  for (int pos = Ipv6Addr::kNybbles - 1; pos >= 0; --pos) {
    if (!is_free[static_cast<std::size_t>(pos)]) {
      free_.push_back(pos);
      std::sort(free_.begin(), free_.end());
      base_ = base_.with_nybble(pos, 0);
      counter_ = 0;  // restart enumeration over the enlarged space
      return true;
    }
  }
  return false;
}

// ---- RangeCursor ---------------------------------------------------------

RangeCursor::RangeCursor(Ipv6Addr base, std::vector<int> positions,
                         std::vector<std::vector<std::uint8_t>> values)
    : base_(base), positions_(std::move(positions)), values_(std::move(values)) {}

std::uint64_t RangeCursor::capacity() const {
  std::uint64_t c = 1;
  for (const auto& v : values_) {
    c *= v.size();
    if (c > (1ULL << 62)) return 1ULL << 62;
  }
  return c;
}

std::optional<Ipv6Addr> RangeCursor::next() {
  if (counter_ >= capacity()) return std::nullopt;
  Ipv6Addr addr = base_;
  std::uint64_t c = counter_;
  for (std::size_t j = 0; j < positions_.size(); ++j) {
    const std::size_t i = positions_.size() - 1 - j;  // rightmost fastest
    const auto& vals = values_[i];
    addr = addr.with_nybble(positions_[i], vals[c % vals.size()]);
    c /= vals.size();
  }
  ++counter_;
  return addr;
}

bool RangeCursor::widen() {
  // Narrowest position (rightmost on ties) gains one adjacent value.
  int best = -1;
  for (int i = static_cast<int>(values_.size()) - 1; i >= 0; --i) {
    const auto& v = values_[static_cast<std::size_t>(i)];
    if (v.size() >= 16) continue;
    if (best < 0 ||
        v.size() < values_[static_cast<std::size_t>(best)].size()) {
      best = i;
    }
  }
  if (best < 0) return false;
  auto& vals = values_[static_cast<std::size_t>(best)];
  // Prefer max+1, fall back to min-1, else the first gap.
  if (vals.back() < 15) {
    vals.push_back(static_cast<std::uint8_t>(vals.back() + 1));
  } else if (vals.front() > 0) {
    vals.insert(vals.begin(), static_cast<std::uint8_t>(vals.front() - 1));
  } else {
    for (std::uint8_t v = 0; v < 16; ++v) {
      if (!std::binary_search(vals.begin(), vals.end(), v)) {
        vals.insert(std::lower_bound(vals.begin(), vals.end(), v), v);
        break;
      }
    }
  }
  counter_ = 0;
  return true;
}

// ---- SpaceTree -----------------------------------------------------------

std::vector<int> TreeRegion::free() const {
  std::vector<int> positions;
  positions.reserve(static_cast<std::size_t>(free_count()));
  for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
    if ((free_mask >> pos) & 1) positions.push_back(pos);
  }
  return positions;
}

namespace {

// Split decisions on large nodes are made from a stride sample; the
// exact varying positions are recomputed if the node turns out to be a
// leaf.
constexpr std::size_t kSampleCap = 4096;

/// The OR of `seeds[m] ^ seeds[members[0]]` over every `stride`-th
/// member: nybble i is nonzero iff position i varies in that sample.
Ipv6Addr varying_mask(std::span<const Ipv6Addr> seeds,
                      std::span<const std::uint32_t> members,
                      std::size_t stride) {
  const Ipv6Addr& first = seeds[members.front()];
  std::uint64_t hi = 0, lo = 0;
  for (std::size_t i = 0; i < members.size(); i += stride) {
    const Ipv6Addr& a = seeds[members[i]];
    hi |= a.hi() ^ first.hi();
    lo |= a.lo() ^ first.lo();
  }
  return Ipv6Addr(hi, lo);
}

/// Leftmost varying position of `mask`, or -1 if none varies.
int leftmost_position(const Ipv6Addr& mask) {
  if (mask.hi() != 0) return std::countl_zero(mask.hi()) / 4;
  if (mask.lo() != 0) return 16 + std::countl_zero(mask.lo()) / 4;
  return -1;
}

/// The varying position of minimum entropy over the same sample that
/// produced `mask` (the leftmost on ties), or -1 if none varies —
/// NybbleStats::min_entropy_position, with histograms for the varying
/// positions only.
int min_entropy_position(std::span<const Ipv6Addr> seeds,
                         std::span<const std::uint32_t> members,
                         std::size_t stride, const Ipv6Addr& mask) {
  std::array<int, Ipv6Addr::kNybbles> positions{};
  std::size_t varying = 0;
  for (int pos = 0; pos < Ipv6Addr::kNybbles; ++pos) {
    if (mask.nybble(pos) != 0) positions[varying++] = pos;
  }
  if (varying == 0) return -1;
  std::array<NybbleHistogram, Ipv6Addr::kNybbles> hist{};
  for (std::size_t i = 0; i < members.size(); i += stride) {
    const Ipv6Addr& a = seeds[members[i]];
    for (std::size_t k = 0; k < varying; ++k) {
      ++hist[k].count[a.nybble(positions[k])];
    }
  }
  int best = -1;
  double best_h = 5.0;  // above the 4-bit maximum
  for (std::size_t k = 0; k < varying; ++k) {
    const double e = hist[k].entropy();
    if (e < best_h) {
      best_h = e;
      best = positions[k];
    }
  }
  return best;
}

}  // namespace

SpaceTree::SpaceTree(std::span<const Ipv6Addr> seeds, Options options)
    : options_(options) {
  if (seeds.empty()) return;
  // Every node owns a contiguous range of `index`. A split stably
  // partitions its range into up to 16 child ranges by the split nybble,
  // so members keep their relative order, and the stack visits children
  // in ascending nybble order: the same nodes, in the same order, with the
  // same member order as a recursive build. Member order matters twice:
  // the stride sample of a large node reads it, and a leaf's base is its
  // first member, whose varying nybbles beyond max_free are not zeroed.
  std::vector<std::uint32_t> index(seeds.size());
  std::iota(index.begin(), index.end(), 0u);
  std::vector<std::uint32_t> scratch(seeds.size());
  struct Node {
    std::uint32_t begin;
    std::uint32_t end;
    int depth;
  };
  std::vector<Node> stack{{0, static_cast<std::uint32_t>(seeds.size()), 0}};
  while (!stack.empty()) {
    const Node node = stack.back();
    stack.pop_back();
    ++node_count_;
    const std::span<const std::uint32_t> members(index.data() + node.begin,
                                                 node.end - node.begin);

    // Nodes that are leaves whatever the split skip choosing one.
    int split = -1;
    Ipv6Addr mask;
    bool mask_exact = false;
    if (members.size() > options_.max_leaf_seeds &&
        node.depth < Ipv6Addr::kNybbles) {
      const std::size_t stride =
          members.size() > kSampleCap ? members.size() / kSampleCap : 1;
      mask = varying_mask(seeds, members, stride);
      mask_exact = stride == 1;
      split = options_.policy == SplitPolicy::kLeftmost
                  ? leftmost_position(mask)
                  : min_entropy_position(seeds, members, stride, mask);
    }
    if (split < 0) {
      if (!mask_exact) mask = varying_mask(seeds, members, 1);
      add_leaf(seeds[members.front()], mask, members.size());
      continue;
    }

    // Stable counting partition of the node's range on the split nybble.
    std::array<std::uint32_t, 17> start{};
    for (const std::uint32_t i : members) ++start[seeds[i].nybble(split) + 1];
    std::partial_sum(start.begin(), start.end(), start.begin());
    std::array<std::uint32_t, 16> fill{};
    std::copy(start.begin(), start.end() - 1, fill.begin());
    std::uint32_t* const out = scratch.data() + node.begin;
    for (const std::uint32_t i : members) {
      out[fill[seeds[i].nybble(split)]++] = i;
    }
    std::copy(out, out + members.size(), index.data() + node.begin);
    for (int v = 15; v >= 0; --v) {
      const auto b = static_cast<std::size_t>(v);
      if (start[b] == start[b + 1]) continue;
      stack.push_back({node.begin + start[b], node.begin + start[b + 1],
                       node.depth + 1});
    }
  }
  std::sort(regions_.begin(), regions_.end(),
            [](const TreeRegion& a, const TreeRegion& b) {
              if (a.density != b.density) return a.density > b.density;
              return a.base < b.base;
            });
  regions_.shrink_to_fit();  // a shared tree lives for a whole sweep call
}

void SpaceTree::add_leaf(const Ipv6Addr& first, const Ipv6Addr& mask,
                         std::size_t seed_count) {
  TreeRegion region;
  region.base = first;
  // Keep at most max_free dimensions; prefer the rightmost (host-side)
  // ones, which vary most in structured allocations.
  int kept = 0;
  for (int pos = Ipv6Addr::kNybbles - 1; pos >= 0 && kept < options_.max_free;
       --pos) {
    if (mask.nybble(pos) == 0) continue;
    region.free_mask |= 1u << pos;
    region.base = region.base.with_nybble(pos, 0);
    ++kept;
  }
  if (region.free_mask == 0) {
    // Identical (or single) seeds: expand around the host nybble.
    region.free_mask = 1u << (Ipv6Addr::kNybbles - 1);
    region.base = region.base.with_nybble(Ipv6Addr::kNybbles - 1, 0);
  }
  region.seed_count = static_cast<std::uint32_t>(seed_count);
  // (n - 0.5) rather than n: a singleton region's density estimate is
  // discounted so true multi-seed patterns outrank lone addresses.
  region.density = (static_cast<double>(seed_count) - 0.5) /
                   std::pow(16.0, static_cast<double>(region.free_count()));
  regions_.push_back(region);
}

}  // namespace v6::tga
