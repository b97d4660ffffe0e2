#include "tga/seed_trees.h"

#include <algorithm>

namespace v6::tga {

const SpaceTree& SeedTrees::get(const SpaceTree::Options& options) {
  Entry* entry = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(
        entries_.begin(), entries_.end(),
        [&](const Entry& e) { return e.options == options; });
    entry = it != entries_.end() ? &*it : &entries_.emplace_back(options);
  }
  // Built outside the lock, so a build of other options does not wait.
  std::call_once(entry->once, [&] {
    entry->tree.emplace(seeds_, options);
    builds_.fetch_add(1);
  });
  return *entry->tree;
}

}  // namespace v6::tga
