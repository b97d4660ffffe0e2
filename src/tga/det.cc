#include "tga/det.h"

#include <algorithm>
#include <cmath>

namespace v6::tga {

using v6::net::Ipv6Addr;

void Det::reset_model() {
  regions_.clear();
  ranked_.clear();
  pending_.clear();
  total_emitted_ = 0;
  const SpaceTree& tree =
      seed_tree({.policy = SplitPolicy::kMinEntropy,
                 .max_leaf_seeds = options_.max_leaf_seeds,
                 .max_free = options_.max_free});
  regions_.reserve(tree.regions().size());
  for (const TreeRegion& r : tree.regions()) {
    Region region;
    region.cursor = RegionCursor(r.base, r.free());
    region.seed_mass = static_cast<double>(r.seed_count);
    regions_.push_back(std::move(region));
    rank(static_cast<std::uint32_t>(regions_.size() - 1));
  }
}

double Det::score(const Region& r) const {
  if (r.dead) return -1.0;
  const double exploit =
      r.seed_mass / static_cast<double>(r.emitted + 16);
  const double explore =
      options_.exploration *
      std::sqrt(std::log(static_cast<double>(total_emitted_ + 2)) /
                static_cast<double>(r.emitted + 1));
  return exploit + explore;
}

std::vector<Ipv6Addr> Det::next_batch(std::size_t n) {
  std::vector<Ipv6Addr> out;
  out.reserve(n);
  if (regions_.empty()) return out;

  std::size_t consecutive_failures = 0;
  while (out.size() < n && consecutive_failures < regions_.size() + 8) {
    if (ranked_.empty()) break;  // every region is dead
    // At fixed emitted, score() grows strictly with seed_mass: masses are
    // seed counts plus multiples of hit_weight, far apart at double
    // precision. So the bucket leaders hold the linear argmax.
    const std::uint32_t best = ranked_.best(
        [this](std::uint32_t i) { return score(regions_[i]); });
    Region& region = regions_[best];
    unrank(best);

    std::uint64_t taken = 0;
    while (taken < options_.chunk && out.size() < n) {
      auto addr = region.cursor.next();
      if (!addr) {
        if (!region.cursor.extend()) {
          region.dead = true;
        }
        break;  // re-score before spending into the widened space
      }
      ++region.emitted;
      ++total_emitted_;
      if (emit(*addr, out)) {
        pending_.emplace(*addr, best);
        ++taken;
      }
    }
    if (!region.dead) rank(best);
    consecutive_failures = taken == 0 ? consecutive_failures + 1 : 0;
  }
  return out;
}

void Det::observe(const Ipv6Addr& addr, bool active) {
  const auto it = pending_.find(addr);
  if (it == pending_.end()) return;
  if (active) {
    const bool live = !regions_[it->second].dead;
    if (live) unrank(it->second);  // re-key under the new seed_mass
    regions_[it->second].seed_mass += options_.hit_weight;
    if (live) rank(it->second);
  }
  pending_.erase(it);
}

}  // namespace v6::tga
