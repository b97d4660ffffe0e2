// Sub-linear region selection for the online tree generators.
//
// DET and 6Hit re-pick a region after every chunk. A linear argmax over
// tens of thousands of regions per pick dominated both generators; the
// two structures below return exactly the region that argmax returns —
// the best live region, lowest index first on ties — in time that does
// not grow with the region count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>
#include <vector>

namespace v6::tga {

/// DET's live regions, bucketed by their emitted count. A score that
/// depends on the region only through (emitted, seed_mass) and grows
/// strictly with seed_mass at fixed emitted ranks every bucket by
/// seed_mass, so a bucket's best region is its first entry: the largest
/// seed_mass, lowest index first. best() scores only those leaders.
class EmittedBuckets {
 public:
  void clear() { buckets_.clear(); }
  bool empty() const { return buckets_.empty(); }

  void insert(std::uint32_t index, std::uint64_t emitted, double seed_mass) {
    buckets_[emitted].emplace(-seed_mass, index);
  }

  /// Removes the entry inserted with exactly these arguments.
  void erase(std::uint32_t index, std::uint64_t emitted, double seed_mass) {
    const auto bucket = buckets_.find(emitted);
    bucket->second.erase({-seed_mass, index});
    if (bucket->second.empty()) buckets_.erase(bucket);
  }

  /// The live region with the highest `score(index)`, lowest index on
  /// ties. Requires !empty().
  template <typename Score>
  std::uint32_t best(const Score& score) const {
    std::uint32_t best_index = std::numeric_limits<std::uint32_t>::max();
    double best_score = -std::numeric_limits<double>::infinity();
    for (const auto& bucket : buckets_) {
      const std::uint32_t index = bucket.second.begin()->second;
      const double s = score(index);
      if (s > best_score || (s == best_score && index < best_index)) {
        best_index = index;
        best_score = s;
      }
    }
    return best_index;
  }

 private:
  // emitted -> {(-seed_mass, index)}: ascending order puts the largest
  // seed_mass, then the lowest index, first.
  std::map<std::uint64_t, std::set<std::pair<double, std::uint32_t>>>
      buckets_;
};

/// 6Hit's greedy pick: a max tournament tree (segment tree) over one
/// value per region. Each inner node holds the index of the better
/// child's winner, the left (lower-index) one on ties; removed regions
/// hold -inf and never win against a live one.
class MaxTree {
 public:
  /// Resets to `n` regions, all removed.
  void assign(std::size_t n) {
    leaves_ = 1;
    while (leaves_ < n) leaves_ <<= 1;
    values_.assign(leaves_, kRemoved);
    winner_.assign(2 * leaves_, 0);
    for (std::size_t i = 0; i < leaves_; ++i) {
      winner_[leaves_ + i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t node = leaves_ - 1; node >= 1; --node) pull(node);
  }

  void set(std::uint32_t index, double value) {
    values_[index] = value;
    for (std::size_t node = (leaves_ + index) / 2; node >= 1; node /= 2) {
      pull(node);
    }
  }

  void remove(std::uint32_t index) { set(index, kRemoved); }

  /// Index of the largest live value, lowest index on ties; `fallback`
  /// when no region is live.
  std::uint32_t best(std::uint32_t fallback) const {
    const std::uint32_t top = winner_[1];
    return values_[top] == kRemoved ? fallback : top;
  }

 private:
  static constexpr double kRemoved = -std::numeric_limits<double>::infinity();

  void pull(std::size_t node) {
    const std::uint32_t left = winner_[2 * node];
    const std::uint32_t right = winner_[2 * node + 1];
    winner_[node] = values_[right] > values_[left] ? right : left;
  }

  std::size_t leaves_ = 1;
  std::vector<double> values_;
  std::vector<std::uint32_t> winner_;  // node -> winning region index
};

}  // namespace v6::tga
