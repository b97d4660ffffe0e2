#include "service/incremental_tga.h"

#include <algorithm>

namespace v6::service {

using v6::net::Ipv6Addr;

IncrementalTargetGenerator::IncrementalTargetGenerator(v6::tga::TgaKind kind,
                                                       std::uint64_t rng_seed)
    : kind_(kind),
      rng_seed_(rng_seed),
      generator_(v6::tga::make_generator(kind)) {}

void IncrementalTargetGenerator::prepare(std::span<const Ipv6Addr> seeds) {
  seeds_.clear();
  seed_set_.clear();
  for (const Ipv6Addr& addr : seeds) {
    if (seed_set_.insert(addr).second) seeds_.push_back(addr);
  }
  incremental_updates_ = 0;
  full_rebuilds_ = 0;
  generator_->prepare(seeds_, rng_seed_);
}

void IncrementalTargetGenerator::rebuild() {
  ++full_rebuilds_;
  generator_->prepare(seeds_, rng_seed_);
}

void IncrementalTargetGenerator::ingest(const SeedDelta& delta) {
  // Removals first: they force the rebuild anyway.
  bool removed_any = false;
  if (!delta.removed.empty()) {
    for (const Ipv6Addr& addr : delta.removed) {
      if (seed_set_.erase(addr) > 0) removed_any = true;
    }
    if (removed_any) {
      std::erase_if(seeds_, [this](const Ipv6Addr& addr) {
        return !seed_set_.contains(addr);
      });
    }
  }

  // Our bookkeeping takes the additions up front. seed_set_ rejects both
  // current seeds and repeats within this delta (first occurrence wins).
  std::vector<Ipv6Addr> fresh;
  fresh.reserve(delta.added.size());
  for (const Ipv6Addr& addr : delta.added) {
    if (!seed_set_.insert(addr).second) continue;
    seeds_.push_back(addr);
    fresh.push_back(addr);
  }

  // Models cannot unlearn, so a removal retrains once from the filtered
  // list with the additions riding along. An addition-only delta lets
  // the model fold it in place if it can (absorb_seeds registers the
  // addresses in the generator's own seed bookkeeping).
  if (removed_any || (!fresh.empty() && !generator_->absorb_seeds(fresh))) {
    rebuild();
    return;
  }
  if (fresh.empty()) return;  // delta was a no-op
  ++incremental_updates_;
}

}  // namespace v6::service
