// DET (Song et al., ToN 2022).
//
// A space tree split on the minimum-entropy varying nybble, with online
// density updates: discovered active addresses raise the density estimate
// of their region, steering subsequent budget. Selection is UCB-style —
// exploitation of high-density regions plus an exploration bonus that
// spreads probes across many regions, which is what gives DET its strong
// AS diversity in the paper's results.
#pragma once

#include <unordered_map>
#include <vector>

#include "tga/region_select.h"
#include "tga/space_tree.h"
#include "tga/target_generator.h"

namespace v6::tga {

class Det final : public TargetGeneratorBase {
 public:
  struct Options {
    std::uint32_t max_leaf_seeds = 16;
    int max_free = 6;
    std::uint64_t chunk = 32;       // addresses per region selection
    double exploration = 0.35;      // UCB exploration coefficient
    double hit_weight = 2.0;        // online density boost per hit
  };

  Det() = default;
  explicit Det(const Options& options) : options_(options) {}

  std::string_view name() const override { return "DET"; }
  bool is_online() const override { return true; }
  std::vector<v6::net::Ipv6Addr> next_batch(std::size_t n) override;
  void observe(const v6::net::Ipv6Addr& addr, bool active) override;

 protected:
  void reset_model() override;

 private:
  struct Region {
    RegionCursor cursor;
    double seed_mass = 0.0;     // seeds + hit_weight * observed hits
    std::uint64_t emitted = 0;  // addresses generated from this region
    bool dead = false;          // space exhausted and unextendable
  };

  double score(const Region& r) const;
  void rank(std::uint32_t index) {
    ranked_.insert(index, regions_[index].emitted, regions_[index].seed_mass);
  }
  void unrank(std::uint32_t index) {
    ranked_.erase(index, regions_[index].emitted, regions_[index].seed_mass);
  }

  Options options_;
  std::vector<Region> regions_;
  EmittedBuckets ranked_;  // live regions only
  std::unordered_map<v6::net::Ipv6Addr, std::uint32_t> pending_;
  std::uint64_t total_emitted_ = 0;
};

}  // namespace v6::tga
