// SeedTrees: the space trees of one seed row, each built at most once.
//
// 6Tree, 6Scan, 6Hit (its initial tree), DET and 6Graph all start from a
// SpaceTree over the whole seed row, with one of two option sets. A
// ScanSession::sweep() call keeps one SeedTrees on its stack over the
// row it sweeps and attaches it to each generator, so those five
// generators share two builds instead of making five. The memo dies
// with the call: nothing is cached across calls.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <span>

#include "net/ipv6.h"
#include "tga/space_tree.h"

namespace v6::tga {

class SeedTrees {
 public:
  /// `seeds` is borrowed and must outlive the memo.
  explicit SeedTrees(std::span<const v6::net::Ipv6Addr> seeds)
      : seeds_(seeds) {}
  SeedTrees(const SeedTrees&) = delete;
  SeedTrees& operator=(const SeedTrees&) = delete;

  /// True if the memo was built over exactly this span (same storage and
  /// size), so its trees are the trees of `seeds`.
  bool built_over(std::span<const v6::net::Ipv6Addr> seeds) const {
    return seeds.data() == seeds_.data() && seeds.size() == seeds_.size();
  }

  /// The tree over the seeds with `options`, built on the first request.
  /// Safe to call from several threads: concurrent requests for the same
  /// options wait for one build, and different options build in
  /// parallel. The reference stays valid for the memo's lifetime.
  const SpaceTree& get(const SpaceTree::Options& options);

  /// Trees built so far.
  std::size_t builds() const { return builds_.load(); }

 private:
  struct Entry {
    explicit Entry(const SpaceTree::Options& o) : options(o) {}
    SpaceTree::Options options;
    std::once_flag once;
    std::optional<SpaceTree> tree;
  };

  std::span<const v6::net::Ipv6Addr> seeds_;
  std::mutex mu_;             // guards entries_ (not the builds)
  std::deque<Entry> entries_;  // stable addresses; one per options
  std::atomic<std::size_t> builds_{0};
};

}  // namespace v6::tga
