// 6Graph (Yang et al., Computer Networks 2022).
//
// Offline graph-theoretic pattern mining: seeds are partitioned with
// DET-style entropy splitting, then leaves whose patterns differ in at
// most one fixed nybble are connected and merged into pattern clusters
// (connected components). Each cluster becomes a wildcard pattern whose
// address space is enumerated densest-cluster first.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tga/space_tree.h"
#include "tga/target_generator.h"

namespace v6::tga {

/// 6Graph's pattern mining over space-tree leaves: two leaves with at
/// most two free nybbles each are connected when their patterns agree
/// once one more fixed nybble is wildcarded, and connected leaves merge
/// into components of at most 16 leaves. Returns every leaf's component
/// (a leaf that joins none is alone in its own), members ascending,
/// components ordered by their lowest member.
std::vector<std::vector<std::uint32_t>> mine_pattern_clusters(
    std::span<const TreeRegion> leaves);

class SixGraph final : public TargetGeneratorBase {
 public:
  struct Options {
    std::uint32_t max_leaf_seeds = 16;
    int max_free = 6;
    /// Cap on free dimensions of a merged pattern cluster.
    int max_cluster_free = 7;
    std::uint64_t chunk_per_seed = 8;
    std::uint64_t min_chunk = 16;
    /// Times a drained cluster may widen (offline: no waste feedback).
    int max_extensions = 2;
  };

  SixGraph() = default;
  explicit SixGraph(const Options& options) : options_(options) {}

  std::string_view name() const override { return "6Graph"; }
  std::vector<v6::net::Ipv6Addr> next_batch(std::size_t n) override;

 protected:
  void reset_model() override;

 private:
  struct Cluster {
    RangeCursor cursor;
    std::uint64_t chunk = 0;
    int extensions = 0;
  };

  Options options_;
  std::vector<Cluster> clusters_;  // density order
  std::size_t turn_ = 0;
};

}  // namespace v6::tga
